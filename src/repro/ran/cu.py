"""The Central Unit user plane: SDAP + PDCP per UE, plus the marker hook.

Downlink packets from the 5G core enter here.  The CU asks the attached
marker (L4Span, a baseline, or the no-op) to observe/mark the packet, maps it
to a bearer via SDAP, numbers it in PDCP and ships it to the DU over F1-U.
Uplink packets pass through the marker on their way back to the core, which is
where feedback short-circuiting happens.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.packet import Packet
from repro.ran.f1u import F1UInterface
from repro.ran.identifiers import DrbId, UeId
from repro.ran.marker import NoopMarker, RanMarker
from repro.ran.pdcp import PdcpEntity
from repro.ran.sdap import SdapEntity
from repro.ran.ue import UeContext
from repro.sim.engine import Simulator


class CentralUnitUserPlane:
    """Per-UE SDAP/PDCP state and the in-RAN marker attachment point."""

    def __init__(self, sim: Simulator, f1u: F1UInterface,
                 marker: Optional[RanMarker] = None,
                 name: str = "cu-up") -> None:
        self._sim = sim
        self.f1u = f1u
        self.name = name
        self.marker: RanMarker = marker if marker is not None else NoopMarker()
        self._sdap: dict[UeId, SdapEntity] = {}
        self._pdcp: dict[tuple[UeId, DrbId], PdcpEntity] = {}
        #: Uplink packets leave the RAN through this callable (the core's
        #: ``receive_uplink``).
        self.uplink_sink: Optional[Callable[[Packet], None]] = None
        #: Mobility sets this: downlink datagrams racing a detach through the
        #: core's processing pipeline are dropped (and counted) instead of
        #: raising for the departed UE.
        self.drop_unknown_ue = False
        self.unknown_ue_packets = 0
        self.downlink_packets = 0
        self.uplink_packets = 0
        # F1-U delivers each delivery-status report straight to the marker.
        f1u.connect_cu(self.marker.on_ran_feedback)

    # ------------------------------------------------------------------ #
    # Attachment
    # ------------------------------------------------------------------ #
    def attach_ue(self, ue: UeContext) -> None:
        """Create the SDAP and PDCP entities for a newly attached UE."""
        drb_configs = ue.config.drb_configs()
        self._sdap[ue.ue_id] = SdapEntity(ue.ue_id, drb_configs)
        for config in drb_configs:
            self._pdcp[(ue.ue_id, config.drb_id)] = PdcpEntity(
                ue.ue_id, config, self.f1u.send_downlink_sdu)

    def detach_ue(self, ue_id: UeId) -> None:
        """Drop a UE's SDAP/PDCP state (handover departure)."""
        sdap = self._sdap.pop(ue_id, None)
        if sdap is not None:
            for drb_id in sdap.drb_ids:
                self._pdcp.pop((ue_id, drb_id), None)

    def set_marker(self, marker: RanMarker) -> None:
        """Attach (or replace) the in-RAN marking layer.

        F1-U reports already in flight still reach the marker that was
        attached when the DU sent them.
        """
        self.marker = marker
        self.f1u.connect_cu(marker.on_ran_feedback)

    # ------------------------------------------------------------------ #
    # Downlink
    # ------------------------------------------------------------------ #
    def receive_downlink(self, packet: Packet, ue_id: UeId) -> None:
        """Process a downlink datagram from the 5G core for ``ue_id``."""
        sdap = self._sdap.get(ue_id)
        if sdap is None:
            if self.drop_unknown_ue:
                self.unknown_ue_packets += 1
                return
            raise KeyError(f"UE {ue_id} is not attached to {self.name}")
        self.downlink_packets += 1
        now = self._sim.now
        packet.timestamps.setdefault("cu_ingress", now)
        drb_id = sdap.drb_by_codepoint[packet.ecn]
        self.marker.on_downlink_packet(packet, ue_id, drb_id, now)
        self._pdcp[(ue_id, drb_id)].submit(packet)

    def resubmit_downlink(self, ue_id: UeId, drb_id: DrbId,
                          packet: Packet) -> None:
        """Enqueue a handover-forwarded SDU on the target cell's bearer.

        Forwarded SDUs were already observed (and possibly marked) by the
        source cell's marker, so they enter PDCP directly -- the Xn
        data-forwarding path, not a second trip through SDAP/marking.  SDUs
        racing a further detach are dropped like any unknown-UE packet.
        """
        pdcp = self._pdcp.get((ue_id, drb_id))
        if pdcp is None:
            self.unknown_ue_packets += 1
            return
        packet.timestamps.setdefault("cu_ingress", self._sim.now)
        pdcp.submit(packet)

    # ------------------------------------------------------------------ #
    # Uplink
    # ------------------------------------------------------------------ #
    def receive_uplink(self, packet: Packet, ue_id: UeId) -> None:
        """Process an uplink packet from ``ue_id`` on its way to the core."""
        self.uplink_packets += 1
        self.marker.on_uplink_packet(packet, self._sim.now)
        if self.uplink_sink is not None:
            self.uplink_sink(packet)
