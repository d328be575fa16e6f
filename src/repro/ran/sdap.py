"""SDAP entity: QoS-flow to DRB mapping.

The SDAP layer in the CU-UP maps each downlink packet, by its QoS flow
identifier, to one of the UE's data radio bearers.  In this reproduction the
mapping is driven by the packet's ECN codepoint when the UE is provisioned
with separate L4S and classic bearers (the paper's recommended configuration,
§4.2), and falls back to the UE's single default bearer otherwise (the
"shared DRB" scenario of §4.2.3 and Fig. 16).
"""

from __future__ import annotations

from typing import Optional

from repro.net.ecn import ECN, FlowClass, classify_ecn
from repro.net.packet import Packet
from repro.ran.identifiers import DrbConfig, DrbId, DrbServiceClass, QosFlowId, UeId


class SdapEntity:
    """Per-UE QFI -> DRB mapping."""

    def __init__(self, ue_id: UeId, drb_configs: list[DrbConfig]) -> None:
        if not drb_configs:
            raise ValueError("a UE needs at least one DRB")
        self.ue_id = ue_id
        self.drb_configs = {cfg.drb_id: cfg for cfg in drb_configs}
        by_class: dict[DrbServiceClass, DrbId] = {}
        for cfg in drb_configs:
            by_class.setdefault(cfg.service_class, cfg.drb_id)
        #: The bearer of each ECN codepoint, indexed by its value: the
        #: classification rule resolved once here, so the CU maps a packet
        #: with one tuple index.
        self.drb_by_codepoint: tuple[DrbId, ...] = tuple(
            self._drb_for_class(classify_ecn(codepoint), by_class,
                                drb_configs[0].drb_id)
            for codepoint in sorted(ECN))
        self._qfi_map: dict[QosFlowId, DrbId] = {}

    @staticmethod
    def _drb_for_class(flow_class: FlowClass,
                       by_class: dict[DrbServiceClass, DrbId],
                       default_drb: DrbId) -> DrbId:
        """A bearer provisioned for the traffic class, else the mixed
        bearer, else the default bearer."""
        if flow_class == FlowClass.L4S and DrbServiceClass.L4S in by_class:
            return by_class[DrbServiceClass.L4S]
        if (flow_class == FlowClass.CLASSIC
                and DrbServiceClass.CLASSIC in by_class):
            return by_class[DrbServiceClass.CLASSIC]
        if DrbServiceClass.MIXED in by_class:
            return by_class[DrbServiceClass.MIXED]
        return default_drb

    # ------------------------------------------------------------------ #
    def map_qfi(self, qfi: QosFlowId, drb_id: DrbId) -> None:
        """Pin a QoS flow to a specific bearer (administrative configuration)."""
        if drb_id not in self.drb_configs:
            raise KeyError(f"UE {self.ue_id} has no DRB {drb_id}")
        self._qfi_map[qfi] = drb_id

    def drb_for_packet(self, packet: Packet,
                       qfi: Optional[QosFlowId] = None) -> DrbId:
        """Choose the bearer for a downlink packet.

        An explicit QFI pin wins; otherwise the packet's ECN codepoint picks
        its entry of :attr:`drb_by_codepoint`.
        """
        if qfi is not None and qfi in self._qfi_map:
            return self._qfi_map[qfi]
        return self.drb_by_codepoint[packet.ecn]

    @property
    def drb_ids(self) -> list[DrbId]:
        """All bearers configured for this UE."""
        return list(self.drb_configs)
