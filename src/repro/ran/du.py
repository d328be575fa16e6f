"""The Distributed Unit: RLC entities plus the MAC scheduler.

The DU owns one :class:`~repro.ran.rlc.RlcEntity` per (UE, DRB).  Downlink
SDUs arrive from the CU over F1-U and join their bearer's RLC queue; the MAC
scheduler drains those queues slot by slot.  The DU also emits the F1-U
delivery-status reports that feed L4Span's packet profile table.
"""

from __future__ import annotations

from typing import Optional

from repro.net.packet import Packet
from repro.ran.cell import CellConfig
from repro.ran.f1u import F1UInterface
from repro.ran.identifiers import DrbId, DrbKey, UeId
from repro.ran.mac import MacScheduler, SchedulerPolicy
from repro.ran.phy import AirInterface, AirInterfaceConfig
from repro.ran.rlc import RlcEntity
from repro.ran.ue import UeContext
from repro.sim.engine import Simulator


class DistributedUnit:
    """RLC + MAC + air interface for one cell."""

    def __init__(self, sim: Simulator, cell: CellConfig, f1u: F1UInterface,
                 scheduler_policy: SchedulerPolicy = SchedulerPolicy.ROUND_ROBIN,
                 air_config: Optional[AirInterfaceConfig] = None) -> None:
        self._sim = sim
        self.cell = cell
        self.f1u = f1u
        self.air = AirInterface(sim, air_config)
        self.mac = MacScheduler(sim, cell, policy=scheduler_policy)
        self._rlc: dict[DrbKey, RlcEntity] = {}
        self._ue_drbs: dict[UeId, list[DrbId]] = {}
        #: Per-UE RLC entities in DRB order -- the grant/backlog hot path
        #: iterates these directly instead of hashing DrbKeys per slot.
        self._ue_entities: dict[UeId, tuple[RlcEntity, ...]] = {}
        self._pull_rotation: dict[UeId, int] = {}
        #: Reporting suffix per UE ("#a2" after the second attach of a mobile
        #: UE) so bearer sample streams stay unique across re-attachments.
        self._bearer_tags: dict[UeId, str] = {}
        #: Mobility sets this: downlink SDUs racing a detach over F1-U are
        #: dropped (and counted) instead of raising for the missing entity.
        self.drop_orphan_sdus = False
        self.orphan_sdus = 0
        f1u.connect_du(self.handle_downlink_sdu)

    # ------------------------------------------------------------------ #
    # UE attachment
    # ------------------------------------------------------------------ #
    def attach_ue(self, ue: UeContext, *, bearer_tag: str = "",
                  register_mac: bool = True) -> None:
        """Create the RLC entities for a UE and register it with the MAC.

        ``bearer_tag`` suffixes the UE's bearer labels in queue reports (a
        handed-over UE's fresh bearers must not alias its old sample
        streams); ``register_mac=False`` defers MAC service -- the handover
        interruption window -- until :meth:`register_with_mac` is called.
        """
        drb_ids: list[DrbId] = []
        entities: list[RlcEntity] = []
        for drb_config in ue.config.drb_configs():
            key = DrbKey(ue.ue_id, drb_config.drb_id)
            entity = RlcEntity(
                self._sim, ue.ue_id, drb_config, self.air,
                deliver=ue.deliver,
                send_status=self.f1u.status_sender(ue.ue_id,
                                                   drb_config.drb_id))
            entity.mac = self.mac
            self._rlc[key] = entity
            drb_ids.append(drb_config.drb_id)
            entities.append(entity)
        self._ue_drbs[ue.ue_id] = drb_ids
        self._ue_entities[ue.ue_id] = tuple(entities)
        self._pull_rotation[ue.ue_id] = 0
        self._bearer_tags[ue.ue_id] = bearer_tag
        if register_mac:
            self.register_with_mac(ue)

    def register_with_mac(self, ue: UeContext) -> None:
        """Give the MAC this UE's backlog/pull callbacks (start of service)."""
        entities = self._ue_entities[ue.ue_id]
        # The MAC polls the backlog every slot for every UE; give it the
        # cheapest possible callable for the dominant bearer layouts.
        if len(entities) == 1:
            only = entities[0]
            backlog = (lambda e=only: e.backlog_bytes)
        elif len(entities) == 2:
            first, second = entities
            backlog = (lambda a=first, b=second:
                       a.backlog_bytes + b.backlog_bytes)
        else:
            backlog = (lambda es=tuple(entities):
                       sum(e.backlog_bytes for e in es))
        self.mac.register_ue(ue.ue_id, ue.channel, backlog_bytes=backlog,
                             pull=self._mac_pull(ue.ue_id, entities))

    def _mac_pull(self, ue_id: UeId, entities: tuple[RlcEntity, ...]):
        """:meth:`pull_for_ue` as the MAC holds it: a grant reaching a single
        backlogged bearer goes to it directly, with the same rotation
        bookkeeping; several backlogged bearers share it by ``pull_for_ue``."""
        rotation = self._pull_rotation
        pull_for_ue = self.pull_for_ue

        def pull(grant_bytes: int) -> int:
            only = None
            for entity in entities:
                if entity.backlog_bytes > 0:
                    if only is not None:
                        return pull_for_ue(ue_id, grant_bytes)
                    only = entity
            if only is None:
                return 0
            rotation[ue_id] += 1
            return only.pull(grant_bytes)
        return pull

    def detach_ue(self, ue_id: UeId) -> list[tuple[DrbId, RlcEntity]]:
        """Remove a UE's bearers and MAC registration (handover departure).

        Returns the released ``(drb_id, entity)`` pairs in bearer order; the
        caller (the mobility manager) decides whether their queued SDUs are
        forwarded to the target cell or flushed.
        """
        drb_ids = self._ue_drbs.pop(ue_id, [])
        entities = self._ue_entities.pop(ue_id, ())
        self._pull_rotation.pop(ue_id, None)
        self._bearer_tags.pop(ue_id, None)
        for drb_id in drb_ids:
            self._rlc.pop(DrbKey(ue_id, drb_id), None)
        self.mac.unregister_ue(ue_id)
        return list(zip(drb_ids, entities))

    # ------------------------------------------------------------------ #
    # Downlink ingress (from CU over F1-U)
    # ------------------------------------------------------------------ #
    def handle_downlink_sdu(self, ue_id: UeId, drb_id: DrbId, sn: int,
                            packet: Packet) -> None:
        """Enqueue a PDCP SDU into its bearer's RLC queue."""
        entity = self._rlc.get((ue_id, drb_id))
        if entity is None:
            if self.drop_orphan_sdus:
                # The UE detached while this SDU was crossing F1-U.
                self.orphan_sdus += 1
                return
            raise KeyError(f"no RLC entity for ue{ue_id}/drb{drb_id}")
        entity.enqueue(sn, packet)

    # ------------------------------------------------------------------ #
    # Queue state and MAC grants
    # ------------------------------------------------------------------ #
    def rlc_entity(self, ue_id: UeId, drb_id: DrbId) -> RlcEntity:
        """Direct access to a bearer's RLC entity (probes and tests)."""
        return self._rlc[DrbKey(ue_id, drb_id)]

    def ue_backlog_bytes(self, ue_id: UeId) -> int:
        """Total RLC backlog across all bearers of one UE."""
        return sum(entity.backlog_bytes
                   for entity in self._ue_entities.get(ue_id, ()))

    def pull_for_ue(self, ue_id: UeId, grant_bytes: int) -> int:
        """Distribute a MAC grant across the UE's backlogged bearers.

        Bearers are served round-robin (rotating the starting bearer every
        grant) with an equal split of the grant; any bytes a bearer cannot
        use are offered to the remaining bearers, so a grant is never wasted
        while any bearer has backlog.  The sub-grants of one call are pulled
        with deferred reporting and flushed as a single F1-U delivery-status
        report per bearer -- one scheduling decision, one report.
        """
        entities = self._ue_entities.get(ue_id)
        if not entities:
            return 0
        backlogged = [e for e in entities if e.backlog_bytes > 0]
        if not backlogged:
            return 0
        if len(backlogged) == 1:
            # Single backlogged bearer (the dominant case): the whole grant
            # goes to it in one pull with an immediate report.
            self._pull_rotation[ue_id] += 1
            return backlogged[0].pull(grant_bytes)
        rotation = self._pull_rotation[ue_id] % len(backlogged)
        self._pull_rotation[ue_id] += 1
        ordered = backlogged[rotation:] + backlogged[:rotation]
        remaining = grant_bytes
        used_total = 0
        share = max(1, grant_bytes // len(ordered))
        for index, entity in enumerate(ordered):
            budget = remaining if index == len(ordered) - 1 else min(share,
                                                                     remaining)
            used = entity.pull(budget, report=False)
            used_total += used
            remaining -= used
            if remaining <= 0:
                break
        # Second pass: hand any leftover grant to bearers that still have data.
        if remaining > 0:
            for entity in ordered:
                if entity.backlog_bytes <= 0:
                    continue
                used = entity.pull(remaining, report=False)
                used_total += used
                remaining -= used
                if remaining <= 0:
                    break
        for entity in ordered:
            entity.flush_status()
        return used_total

    # ------------------------------------------------------------------ #
    def rlc_items(self):
        """Live (DrbKey, entity) view of every bearer, registration order."""
        return self._rlc.items()

    def labeled_rlc_items(self) -> list[tuple[str, RlcEntity]]:
        """(label, entity) for every bearer, attach tags applied.

        Labels are ``"ueX/drbY"`` plus the UE's attach tag (``"#a1"`` after
        its first handover), so a mobile UE's fresh bearers report under
        names distinct from the ones it had before moving.
        """
        tags = self._bearer_tags
        return [(f"{key}{tags.get(key.ue_id, '')}", entity)
                for key, entity in self._rlc.items()]

    def stop(self) -> None:
        """Stop the MAC slot clock."""
        self.mac.stop()
