"""Inter-cell handover: UEs moving between the scenario's gNBs.

Mobility is the one workload that genuinely couples cells: a UE's transport
state (cumulative ACK point, AccECN counters), its queued RLC data and its
5G-core route all have to move from the source cell to the target cell in
the middle of a transfer -- exactly where L4S queue-delay guarantees are
most fragile.  This module owns the execution semantics; *when* a handover
happens comes either from a schedule
(:class:`~repro.experiments.spec.HandoverSpec` entries) or from the SNR
monitor below.

Execution timeline of one handover at time ``t``:

1. **Detach** (source cell, at ``t``): the UE's MAC registration, RLC
   entities, SDAP/PDCP state and marker state are removed (SDUs and F1-U
   reports in flight for them carry the attach tag, so they never reach a
   later attachment's bearer).  RLC SDUs still waiting for a
   grant are *released*: forwarded to the target cell (``ho_mode
   "forward"``, the Xn data-forwarding path, arriving ``interruption_s``
   later) or flushed (``"flush"``, loss the transport must recover from).
   Transport blocks already on the air complete against the released entity
   and are abandoned; SDUs parked in the in-order delivery buffer are
   dropped.  Packets racing the detach through the core or F1-U are dropped
   and counted.
2. **Transfer** (at ``t``): each of the UE's flows exports its receiver
   state (:meth:`~repro.cc.receiver.TcpReceiver.export_state`).  In a
   sharded run the transfer crosses the shard boundary as a control
   message; in the single loop it is applied directly.  Either way it is in
   place before the target cell can deliver anything.
3. **Attach** (target cell, at ``t``): a fresh :class:`UeContext` is built
   with **attach-qualified random streams** (``"air-ue3#a1"``,
   ``"channel-ue3#a1"``, ...), fresh bearers are created (buffering arriving
   downlink data, numbered from 0 under the attach tag), fresh receivers
   adopt the transferred state, and the 5G core re-routes the UE's address
   to the target gNB.  Forwarded SDUs enter the target PDCP and marker
   table unmarked.
4. **Service resumes** at ``t + interruption_s``: only then does the target
   MAC grant the UE air time (RACH + path switch), which is what makes the
   interruption observable as a per-flow delay spike.

The attach-qualified stream names are the mobility half of the sharded
determinism contract: a stream's draw sequence is identical whether the
target cell runs in the shared event loop or in its own shard process,
because the stream is born at the attach in both cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.timers import SlotTimer


@dataclass(frozen=True)
class Transition:
    """One resolved handover: ``ue_id`` moves ``from_cell`` -> ``to_cell``.

    ``attach_index`` counts the UE's attachments (initial attach is 0), and
    qualifies every random stream the new attachment creates.
    """

    time: float
    ue_id: int
    from_cell: int
    to_cell: int
    attach_index: int

    @property
    def attach_tag(self) -> str:
        """Suffix naming the new attachment: its random streams and bearers."""
        return f"#a{self.attach_index}"


@dataclass
class HandoverTransfer:
    """The state one handover carries from the source to the target cell.

    Picklable: in a sharded run this is the control message that crosses
    the shard boundary.
    """

    ue_id: int
    attach_index: int
    time: float
    receiver_states: dict[int, dict] = field(default_factory=dict)
    forwarded: list[tuple[int, Packet]] = field(default_factory=list)


@dataclass(frozen=True)
class HandoverDecision:
    """Phase one of an SNR-triggered handover: decided, not yet executed.

    The serving loop's monitor *decides* at ``decided_at`` and every event
    loop (the decider included) *commits* — runs the actual transition — at
    ``commit_at = decided_at + commit_lag``.  Picklable: in a sharded run
    this is the broadcast control message published at the decision
    window's barrier, and the commit lag is sized so it always reaches
    every shard (and every in-flight routing lookup has resolved) strictly
    before the commit time.
    """

    ue_id: int
    from_cell: int
    to_cell: int
    decided_at: float
    commit_at: float
    attach_index: int

    def transition(self) -> Transition:
        """The resolved transition this decision commits to."""
        return Transition(time=self.commit_at, ue_id=self.ue_id,
                          from_cell=self.from_cell, to_cell=self.to_cell,
                          attach_index=self.attach_index)


@dataclass
class MobilityTopology:
    """The full-scenario view the manager needs, as plain data.

    A sharded run builds one manager per shard from the *full* spec (each
    sub-spec only knows its own cells), so this is deliberately independent
    of the scenario builder.

    Attributes:
        itineraries: per-UE ``[(attach_time, cell_id), ...]``; the first
            entry is ``(0.0, initial_cell)``.  UEs that never move may be
            omitted.
        ue_specs: fully resolved per-UE spec objects by UE id (duck-typed:
            ``channel_profile``, ``mean_snr_db``, ``rlc_mode``, ...).
        flows_by_ue: the resolved flow specs terminating at each UE.
        cells_order: every cell id in declaration order (the SNR monitor's
            candidate ring).
    """

    itineraries: dict[int, list[tuple[float, int]]]
    ue_specs: dict[int, object]
    flows_by_ue: dict[int, list]
    cells_order: list[int]

    def transitions(self) -> list[Transition]:
        """Every scheduled handover, in (time, ue) order."""
        out = []
        for ue_id, itinerary in self.itineraries.items():
            for index in range(1, len(itinerary)):
                out.append(Transition(
                    time=itinerary[index][0], ue_id=ue_id,
                    from_cell=itinerary[index - 1][1],
                    to_cell=itinerary[index][1],
                    attach_index=index))
        out.sort(key=lambda tr: (tr.time, tr.ue_id))
        return out

    def mobile_ue_ids(self) -> set[int]:
        """UEs with at least one handover in their itinerary."""
        return {ue_id for ue_id, itin in self.itineraries.items()
                if len(itin) > 1}


class MobilityManager:
    """Executes handovers against one event loop's worth of cells.

    In the single loop every cell is local and the manager runs each
    handover end to end.  In a sharded run each shard's manager executes
    only the locally relevant halves (departures from its cells, arrivals
    into them) and ships :class:`HandoverTransfer` messages through the
    ``transfer_out`` callable when source and target live on different
    shards.

    Args:
        scenario: the built scenario (duck-typed: ``sim``, ``core``,
            ``gnbs``, ``ues``, ``receivers``, ``build_mobile_ue``,
            ``attach_flow_endpoint``, ``register_ue_route``,
            ``invalidate_samplers``).
        topology: the full-scenario :class:`MobilityTopology`.
        config: the spec's mobility block (duck-typed:
            ``interruption_s``, ``ho_mode``, ``mode``, SNR knobs).
        local_cells: cells this manager owns, or None for all of them.
        transfer_out: cross-shard transfer dispatch
            ``(transfer, target_cell) -> None``; None applies locally.
        visiting_ues: UEs whose *home* shard is elsewhere -- tracked for
            the synchronizer's boundary-drained report.
        commit_lag: decide-to-commit delay of SNR-triggered handovers (the
            two-phase protocol; see :class:`HandoverDecision`).  The single
            loop and every shard must use the same value for a sharded run
            to be bit-identical.
        decision_out: cross-shard decision broadcast
            ``(decision) -> None`` invoked at decide time; None on the
            single loop (nobody else needs to hear about it).
    """

    def __init__(self, scenario, topology: MobilityTopology, config,
                 local_cells: Optional[set[int]] = None,
                 transfer_out: Optional[Callable] = None,
                 visiting_ues: Optional[set[int]] = None,
                 commit_lag: float = 0.0,
                 decision_out: Optional[Callable] = None) -> None:
        self._scenario = scenario
        self._sim: Simulator = scenario.sim
        self.topology = topology
        self.config = config
        self._local_cells = local_cells
        self._transfer_out = transfer_out
        self._visiting_ues = visiting_ues or set()
        self._interruption = config.interruption_s
        self._forward = config.ho_mode == "forward"
        self._commit_lag = commit_lag
        self._decision_out = decision_out
        #: ue_id -> (attach_index, cell_id, gnb, UeContext) of the current
        #: *local* attachment; absent while the UE is served elsewhere.
        self._attached: dict[int, tuple[int, int, object, object]] = {}
        self._visiting_now: set[int] = set()
        self._visitor_ctxs: list = []
        self._records: dict[tuple[int, float], dict] = {}
        self._last_ho: dict[int, float] = {}
        #: UEs with a decided-but-not-yet-committed handover (the decider's
        #: re-trigger guard) and the (ue, commit_at) keys already adopted
        #: (the broadcast dedup).
        self._pending_commits: set[int] = set()
        self._adopted: set[tuple[int, float]] = set()
        self._snr_timer: Optional[SlotTimer] = None
        self._install()

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #
    def _is_local(self, cell_id: int) -> bool:
        return self._local_cells is None or cell_id in self._local_cells

    def _install(self) -> None:
        scenario = self._scenario
        for gnb in scenario.gnbs.values():
            # Packets racing a detach must drop like a real network, not
            # blow up the loop.
            gnb.cu.drop_unknown_ue = True
            gnb.du.drop_orphan_sdus = True
        for ue_id, ctx in scenario.ues.items():
            cell = scenario.ue_specs[ue_id].cell_id
            if self._is_local(cell):
                self._attached[ue_id] = (0, cell, scenario.gnbs[cell], ctx)
        for tr in self.topology.transitions():
            if self._is_local(tr.from_cell) or self._is_local(tr.to_cell):
                self._sim.schedule_at(tr.time, self._execute_transition, tr)
        if self.config.mode == "snr":
            self._snr_timer = self._sim.every(self.config.check_interval_s,
                                              self._snr_check)

    def stop(self) -> None:
        """Stop periodic machinery (the SNR monitor)."""
        if self._snr_timer is not None:
            self._snr_timer.stop()

    # ------------------------------------------------------------------ #
    # Handover execution
    # ------------------------------------------------------------------ #
    def _execute_transition(self, tr: Transition) -> None:
        transfer = None
        if self._is_local(tr.from_cell):
            transfer = self._depart(tr)
        if self._is_local(tr.to_cell):
            self._arrive(tr)
        if transfer is not None:
            if self._is_local(tr.to_cell):
                self.apply_transfer(transfer)
            elif self._transfer_out is not None:
                self._transfer_out(transfer, tr.to_cell)
        self._last_ho[tr.ue_id] = tr.time

    def _depart(self, tr: Transition) -> HandoverTransfer:
        scenario = self._scenario
        self._attached.pop(tr.ue_id, None)
        gnb = scenario.gnbs[tr.from_cell]
        released = gnb.detach_ue(tr.ue_id)
        forwarded: list[tuple[int, Packet]] = []
        flushed = 0
        pending_dropped = 0
        for drb_id, entity in released:
            packets, pending = entity.release()
            pending_dropped += pending
            if self._forward:
                forwarded.extend((drb_id, packet) for packet in packets)
            else:
                flushed += len(packets)
        states: dict[int, dict] = {}
        for flow in self.topology.flows_by_ue.get(tr.ue_id, []):
            receiver = scenario.receivers.get(flow.flow_id)
            if receiver is None:
                continue
            states[flow.flow_id] = receiver.export_state()
            stop = getattr(receiver, "stop", None)
            if stop is not None:  # periodic feedback clocks (SCReAM)
                stop()
        self._visiting_now.discard(tr.ue_id)
        self._merge_record(tr, {
            "forwarded_sdus": len(forwarded), "flushed_sdus": flushed,
            "pending_dropped": pending_dropped, "ho_mode": self.config.ho_mode})
        scenario.invalidate_samplers()
        return HandoverTransfer(ue_id=tr.ue_id, attach_index=tr.attach_index,
                                time=tr.time, receiver_states=states,
                                forwarded=forwarded)

    def _arrive(self, tr: Transition) -> None:
        scenario = self._scenario
        gnb = scenario.gnbs[tr.to_cell]
        tag = tr.attach_tag
        ue_spec = self.topology.ue_specs[tr.ue_id]
        ue = scenario.build_mobile_ue(ue_spec, tr.to_cell, tag)
        gnb.attach_ue(ue, register_mac=False)
        gnb.du.air.rebind_ue(tr.ue_id, f"air-ue{tr.ue_id}{tag}")
        scenario.register_ue_route(tr.ue_id, gnb)
        scenario.ues[tr.ue_id] = ue
        for flow in self.topology.flows_by_ue.get(tr.ue_id, []):
            scenario.attach_flow_endpoint(flow, ue)
        completed_at = tr.time + self._interruption
        self._sim.schedule_at(completed_at, self._activate, tr, ue)
        self._attached[tr.ue_id] = (tr.attach_index, tr.to_cell, gnb, ue)
        if tr.ue_id in self._visiting_ues:
            self._visiting_now.add(tr.ue_id)
            self._visitor_ctxs.append(ue)
        self._merge_record(tr, {"completed_at": completed_at})
        scenario.invalidate_samplers()

    def _activate(self, tr: Transition, ue) -> None:
        """End of the interruption window: the target MAC starts serving."""
        entry = self._attached.get(tr.ue_id)
        if entry is None or entry[0] != tr.attach_index:
            return  # the UE already moved on (guarded ping-pong)
        entry[2].du.register_with_mac(ue)

    def apply_transfer(self, transfer: HandoverTransfer) -> None:
        """Adopt a transfer at the target cell (local call or shard inject)."""
        entry = self._attached.get(transfer.ue_id)
        if entry is None or entry[0] != transfer.attach_index:
            return  # stale: the UE departed again before the state landed
        for flow_id, state in transfer.receiver_states.items():
            receiver = self._scenario.receivers.get(flow_id)
            if receiver is not None:
                receiver.import_state(state)
        if transfer.forwarded:
            self._sim.schedule_at(transfer.time + self._interruption,
                                  self._resubmit_forwarded, transfer)

    def _resubmit_forwarded(self, transfer: HandoverTransfer) -> None:
        """Xn-forwarded SDUs reach the target cell's PDCP (in order)."""
        entry = self._attached.get(transfer.ue_id)
        if entry is None or entry[0] != transfer.attach_index:
            return
        cu = entry[2].cu
        for drb_id, packet in transfer.forwarded:
            cu.resubmit_downlink(transfer.ue_id, drb_id, packet)

    # ------------------------------------------------------------------ #
    # SNR-triggered mobility: two-phase decide-then-commit
    # ------------------------------------------------------------------ #
    def _snr_check(self) -> None:
        """Phase one: the serving loop's monitor *decides* handovers.

        A decision never executes inline — it is committed ``commit_lag``
        later by :meth:`_commit_decision`, on this loop and (via
        ``decision_out`` → :meth:`adopt_decision`) on every other shard,
        all at the same simulation time.  The single loop follows the
        identical timeline so a sharded run is bit-identical.
        """
        config = self.config
        min_stay = max(config.min_stay_s, self._interruption)
        now = self._sim.now
        watched = config.ues or sorted(self.topology.ue_specs)
        for ue_id in watched:
            entry = self._attached.get(ue_id)
            if entry is None:
                continue
            if ue_id in self._pending_commits:
                continue
            if now - self._last_ho.get(ue_id, 0.0) < min_stay:
                continue
            attach_index, current_cell, _gnb, ctx = entry
            if ctx.channel.sample(now).snr_db >= config.snr_threshold_db:
                continue
            cells = self.topology.cells_order
            target = cells[(cells.index(current_cell) + 1) % len(cells)]
            if target == current_cell:
                continue
            decision = HandoverDecision(
                ue_id=ue_id, from_cell=current_cell, to_cell=target,
                decided_at=now, commit_at=now + self._commit_lag,
                attach_index=attach_index + 1)
            self._decide(decision)

    def _decide(self, decision: HandoverDecision) -> None:
        self._pending_commits.add(decision.ue_id)
        self._adopted.add((decision.ue_id, decision.commit_at))
        self._merge_record(decision.transition(),
                           {"decided_at": decision.decided_at})
        self._sim.schedule_at(decision.commit_at, self._commit_decision,
                              decision)
        if self._decision_out is not None:
            self._decision_out(decision)

    def _commit_decision(self, decision: HandoverDecision) -> None:
        """Phase two: the barrier-synchronized commit of a decision."""
        self._pending_commits.discard(decision.ue_id)
        self._execute_transition(decision.transition())

    def adopt_decision(self, decision: HandoverDecision) -> None:
        """Adopt a decision broadcast by another shard's monitor.

        Deduplicates (a barrier can replay a broadcast to a shard that
        already decided it) and schedules the local commit halves at the
        decision's commit time; shards with no local half only track the
        UE's handover time for their own monitor's min-stay damping.
        """
        key = (decision.ue_id, decision.commit_at)
        if key in self._adopted:
            return
        self._adopted.add(key)
        if self._is_local(decision.from_cell) or self._is_local(decision.to_cell):
            self._pending_commits.add(decision.ue_id)
            self._sim.schedule_at(decision.commit_at, self._commit_decision,
                                  decision)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def _merge_record(self, tr: Transition, fields: dict) -> None:
        key = (tr.ue_id, tr.time)
        record = self._records.get(key)
        if record is None:
            record = {"ue_id": tr.ue_id, "time": tr.time,
                      "from_cell": tr.from_cell, "to_cell": tr.to_cell,
                      "attach_index": tr.attach_index}
            self._records[key] = record
        record.update(fields)

    @property
    def records(self) -> list[dict]:
        """One dict per (locally observed) handover, in (time, ue) order."""
        return [self._records[key]
                for key in sorted(self._records, key=lambda k: (k[1], k[0]))]

    def boundary_idle(self) -> bool:
        """True when this shard provably cannot emit boundary traffic.

        No visiting UE is attached here, and every context a past visitor
        used has drained its in-flight uplink packets (a drained channel is
        what lets the adaptive synchronizer widen its windows).
        """
        if self._visiting_now:
            return False
        self._visitor_ctxs = [ctx for ctx in self._visitor_ctxs
                              if ctx.inflight_uplinks > 0]
        return not self._visitor_ctxs


def merge_handover_records(parts) -> list[dict]:
    """Recombine per-shard handover record fragments into the single-loop list.

    The source shard of a cross-shard handover reports the departure half
    (flush/forward counts), the target shard the arrival half
    (``completed_at``); the union keyed by ``(ue_id, time)`` is exactly the
    record the single loop produces.
    """
    merged: dict[tuple[int, float], dict] = {}
    for records in parts:
        for record in records:
            key = (record["ue_id"], record["time"])
            if key in merged:
                merged[key].update(record)
            else:
                merged[key] = dict(record)
    return [merged[key] for key in sorted(merged, key=lambda k: (k[1], k[0]))]
