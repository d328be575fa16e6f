"""The gNB: CU-UP + F1-U + DU assembled into one attachable unit."""

from __future__ import annotations

from typing import Optional

from repro.net.packet import Packet
from repro.ran.cell import CellConfig
from repro.ran.cu import CentralUnitUserPlane
from repro.ran.du import DistributedUnit
from repro.ran.f1u import F1UInterface
from repro.ran.identifiers import UeId
from repro.ran.mac import SchedulerPolicy
from repro.ran.marker import RanMarker
from repro.ran.phy import AirInterfaceConfig
from repro.ran.ue import UeContext
from repro.sim.engine import Simulator


class GNodeB:
    """A complete base station.

    Args:
        sim: simulator.
        cell: radio configuration.
        scheduler_policy: MAC policy (RR / PF).
        marker: the in-RAN marking layer (defaults to no-op).
        air_config: air-interface delay/HARQ configuration.
    """

    def __init__(self, sim: Simulator, cell: Optional[CellConfig] = None,
                 scheduler_policy: SchedulerPolicy = SchedulerPolicy.ROUND_ROBIN,
                 marker: Optional[RanMarker] = None,
                 air_config: Optional[AirInterfaceConfig] = None,
                 name: str = "gnb") -> None:
        self._sim = sim
        self.name = name
        self.cell = cell if cell is not None else CellConfig()
        self.f1u = F1UInterface(sim, name=f"{name}-f1u")
        self.cu = CentralUnitUserPlane(sim, self.f1u, marker=marker,
                                       name=f"{name}-cu")
        self.du = DistributedUnit(sim, self.cell, self.f1u,
                                  scheduler_policy=scheduler_policy,
                                  air_config=air_config)
        self._ues: dict[UeId, UeContext] = {}

    # ------------------------------------------------------------------ #
    # Attachment and wiring
    # ------------------------------------------------------------------ #
    def attach_ue(self, ue: UeContext, *, bearer_tag: str = "",
                  register_mac: bool = True) -> None:
        """Attach a UE: creates CU and DU state and wires the uplink path.

        ``bearer_tag`` and ``register_mac`` support handover re-attachment:
        the tag keeps the fresh bearers' report labels unique, and deferring
        MAC registration models the interruption window (see
        :meth:`repro.ran.du.DistributedUnit.attach_ue`).
        """
        if ue.ue_id in self._ues:
            raise ValueError(f"UE {ue.ue_id} already attached to {self.name}")
        self._ues[ue.ue_id] = ue
        self.cu.attach_ue(ue)
        self.du.attach_ue(ue, bearer_tag=bearer_tag, register_mac=register_mac)
        ue.uplink_sink = self.cu.receive_uplink
        ue.cell_ues = self._ues

    def detach_ue(self, ue_id: UeId) -> list:
        """Detach a UE (handover departure); returns its released bearers.

        The returned ``(drb_id, entity)`` pairs still hold the SDUs that
        were awaiting a grant; the mobility manager forwards or flushes
        them per the scenario's handover mode.
        """
        self._ues.pop(ue_id, None)
        self.cu.detach_ue(ue_id)
        return self.du.detach_ue(ue_id)

    def set_marker(self, marker: RanMarker) -> None:
        """Attach the in-RAN marking layer (L4Span, a baseline, or no-op)."""
        self.cu.set_marker(marker)

    @property
    def marker(self) -> RanMarker:
        """The currently attached marking layer."""
        return self.cu.marker

    # ------------------------------------------------------------------ #
    # Data plane entry points
    # ------------------------------------------------------------------ #
    def receive_downlink(self, packet: Packet, ue_id: UeId) -> None:
        """Downlink datagram from the core destined to ``ue_id``."""
        self.cu.receive_downlink(packet, ue_id)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def ue_ids(self) -> list[UeId]:
        """Identifiers of every attached UE."""
        return list(self._ues)

    def rlc_queue_lengths(self) -> dict[str, int]:
        """RLC queue length (SDUs) per bearer, keyed by "ueX/drbY".

        Labels carry the attach tag of handed-over UEs (``"ue0/drb1#a1"``)
        so a re-attached UE's fresh bearers never alias its old ones.
        """
        return {label: entity.queue_length_sdus
                for label, entity in self.du.labeled_rlc_items()}

    def stop(self) -> None:
        """Stop periodic machinery (MAC slot clock)."""
        self.du.stop()
