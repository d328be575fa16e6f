"""MAC scheduler: slot-by-slot allocation of cell resources to UEs.

Every slot (0.5 ms for the paper's 30 kHz numerology) the scheduler looks at
which UEs have backlogged RLC data, samples each one's channel, and divides
the cell's PRBs among them:

* **round robin (RR)** -- equal PRB shares for every backlogged UE;
* **proportional fair (PF)** -- shares proportional to
  ``instantaneous_rate / average_throughput``, which trades some short-term
  fairness for multi-user diversity gain.

The allocated PRBs are converted to transport-block bytes using the UE's
spectral efficiency and handed to the DU's per-UE ``pull`` callback, which
drains the RLC queues.  The paper's Fig. 10 evaluates L4Span under both
policies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Optional

from repro.channel.base import ChannelModel
from repro.ran.cell import CellConfig
from repro.ran.identifiers import UeId
from repro.registry import SCHEDULERS
from repro.sim.engine import Simulator


class SchedulerPolicy(enum.Enum):
    """Supported MAC scheduling policies."""

    ROUND_ROBIN = "rr"
    PROPORTIONAL_FAIR = "pf"


SCHEDULERS.add("rr", SchedulerPolicy.ROUND_ROBIN, "round_robin")
SCHEDULERS.add("pf", SchedulerPolicy.PROPORTIONAL_FAIR, "proportional_fair")


def resolve_scheduler(name) -> SchedulerPolicy:
    """Map a policy name (or a policy member) onto :class:`SchedulerPolicy`."""
    if isinstance(name, SchedulerPolicy):
        return name
    return SCHEDULERS.get(name)


@dataclass(slots=True)
class _UeSchedulingState:
    """Book-keeping the scheduler maintains for each attached UE."""

    ue_id: UeId
    channel: ChannelModel
    backlog_bytes: Callable[[], int]
    pull: Callable[[int], int]
    average_throughput: float = 1.0  # bytes/s, seeded > 0 to avoid div-by-zero
    served_bytes_total: int = 0
    scheduled_slots: int = 0
    #: Bytes served in the slot being processed (scratch for the EWMA pass).
    slot_served: int = 0


#: Sort key of the round-robin claimant order.
_BY_UE_ID = attrgetter("ue_id")


class MacScheduler:
    """The cell's downlink scheduler.

    Args:
        sim: simulator.
        cell: static cell configuration.
        policy: RR or PF.
        pf_time_constant: averaging horizon (seconds) of the PF throughput
            EWMA.
        start: when to start the slot clock (defaults to time zero).

    Every scheduler ticks on the simulator's timer wheel
    (:meth:`_run_slot_batch`).  A cell with no backlog and no background
    population parks its timer (:class:`~repro.sim.timers.SlotTimer`); while
    parked, :attr:`slots`, :attr:`null_ticks` and ``average_throughput`` lag
    by ``timer.skipped`` ticks, so a mid-run reader calls :meth:`wake` first
    (:meth:`stop` does).
    """

    def __init__(self, sim: Simulator, cell: CellConfig,
                 policy: SchedulerPolicy = SchedulerPolicy.ROUND_ROBIN,
                 pf_time_constant: float = 0.1,
                 start: Optional[float] = None) -> None:
        self._sim = sim
        self.cell = cell
        self.policy = policy
        self.pf_time_constant = pf_time_constant
        self._ues: dict[UeId, _UeSchedulingState] = {}
        #: Registration-ordered view of the states; the slot loop iterates
        #: this list instead of allocating a ``dict.values()`` view per slot.
        self._ue_states: list[_UeSchedulingState] = []
        #: Whether ``_ue_states`` is in ue_id order (a handover appends
        #: out of order), so the round-robin claimant order is the
        #: backlogged subset as scanned, without a per-slot sort.
        self._in_id_order = True
        #: Aggregated background population sharing the cell, or None.
        self._background = None
        self._rr_offset = 0
        self.slots = 0
        self.busy_slots = 0
        #: Slots the run loop took as null ticks (a diagnostic, not a result).
        self.null_ticks = 0
        # Per-slot constants hoisted off the hot loop.
        self._decay = cell.slot_duration / pf_time_constant
        self._inv_slot_duration = 1.0 / cell.slot_duration
        self._round_robin = policy == SchedulerPolicy.ROUND_ROBIN
        self._timer = sim.add_slot_timer(
            cell.slot_duration, self._run_slot_batch,
            start_at=start if start is not None else sim.now)

    # ------------------------------------------------------------------ #
    # Attachment
    # ------------------------------------------------------------------ #
    def register_ue(self, ue_id: UeId, channel: ChannelModel,
                    backlog_bytes: Callable[[], int],
                    pull: Callable[[int], int]) -> None:
        """Attach a UE: the DU provides backlog and pull callbacks; whatever
        makes ``backlog_bytes()`` grow calls :meth:`wake` (``RlcEntity`` does).
        """
        self.wake()
        state = _UeSchedulingState(
            ue_id=ue_id, channel=channel, backlog_bytes=backlog_bytes,
            pull=pull)
        previous = self._ues.get(ue_id)
        if previous is not None:
            self._ue_states[self._ue_states.index(previous)] = state
        else:
            self._ue_states.append(state)
        self._ues[ue_id] = state
        self._note_order()

    def unregister_ue(self, ue_id: UeId) -> None:
        """Stop scheduling a UE (it detached or handed over away)."""
        self.wake()
        state = self._ues.pop(ue_id, None)
        if state is not None:
            self._ue_states.remove(state)
            self._note_order()

    def _note_order(self) -> None:
        """Refresh :attr:`_in_id_order` after (un)registration."""
        ids = [state.ue_id for state in self._ue_states]
        self._in_id_order = ids == sorted(ids)

    def _by_ue_id(self, active: list) -> list:
        """``active`` (a subset of ``_ue_states``) in ue_id order."""
        return active if self._in_id_order else sorted(active, key=_BY_UE_ID)

    def attach_background(self, population) -> None:
        """Attach the cell's aggregated background population.

        The population (see :class:`repro.ran.background.BackgroundPopulation`)
        enters every slot as ``population.demand_count`` extra round-robin
        claimants; the PRBs not granted to foreground UEs are accumulated via
        ``population.on_slot`` and served by its next batched kernel step.
        """
        self.wake()
        self._background = population

    def stop(self) -> None:
        """Stop the slot clock (end of scenario)."""
        self.wake()
        self._timer.stop()

    def wake(self) -> None:
        """Unpark the slot clock and replay the ticks the run loop took.

        Exact because an idle slot's only effects are ``slots += 1`` and one
        clamped EWMA decay per UE, which nothing reads or writes in between.
        Called before anything an idle slot would have seen differently:
        backlog growth, a UE or population (de)registering, :meth:`stop`.
        """
        timer = self._timer
        timer.parked = False
        count = timer.skipped
        if count:
            timer.skipped = 0
            self.slots += count
            self.null_ticks += count
            self._decay_idle(count)

    def _decay_idle(self, count: int) -> None:
        """``count`` idle slots of PF-EWMA decay, as sequential multiplies
        (``keep * average + 0.0 == keep * average`` bit-exactly, matching
        both per-slot forms in :meth:`_on_slot`)."""
        keep = 1.0 - self._decay
        for state in self._ue_states:
            average = state.average_throughput
            for _ in range(count):
                average = keep * average
                if average <= 1.0:
                    average = 1.0  # keep < 1: stays clamped from here on
                    break
            state.average_throughput = average

    # ------------------------------------------------------------------ #
    # Slot processing
    # ------------------------------------------------------------------ #
    def _run_slot_batch(self, barrier_time: float, barrier_seq) -> None:
        """Timer-wheel callback: run consecutive slot ticks up to a barrier.

        Mirrors a self-rescheduling heap callback (the tests' reference
        clock) exactly -- the slot body runs first, then the re-arm
        consumes one tie-break sequence number -- so events a slot
        schedules at precisely the next tick time still fire before that
        tick.  The batch ends when the next tick's ``(time, seq)`` key
        would not be the globally next event: another wheel timer (a
        sampler or probe too, via ``Simulator.every``; the ``barrier_*``
        arguments), the heap head (a cancelled head conservatively ends
        the batch too; the engine loop discards it and re-enters), the run
        window, or a ``stop()`` -- or the slot just run parked the clock.
        """
        sim = self._sim
        queue = sim.events
        heap = queue.heap
        timer = self._timer
        slot = timer.period
        # A predicted run of zero-service ticks (see
        # :meth:`_quiet_run_length`) is executed wholesale by
        # :meth:`_quiet_bulk`; everything else goes through the exact
        # per-slot path, handed the backlog scan the prediction made.  The
        # prediction is recomputed at batch start, after every serving slot
        # and after each population kernel-step boundary; heap events fire
        # only between batches, so any state they change (RLC enqueues,
        # attach/detach) naturally invalidates it.
        predictable = self._background is not None
        states = self._ue_states
        while True:
            if predictable:
                active = [state for state in states
                          if state.backlog_bytes() > 0]
                quiet = self._quiet_run_length(len(active))
                if quiet > 0:
                    if self._quiet_bulk(quiet, len(active), barrier_time,
                                        barrier_seq):
                        return
                    continue
                self._on_slot(active)
            else:
                self._on_slot()
            # Each tick counts as one processed event, keeping event totals
            # identical to the heap-driven clock.
            sim._processed += 1
            seq = queue._next_seq
            queue._next_seq = seq + 1
            nxt = sim.now + slot
            timer.time = nxt
            timer.seq = seq
            if timer.stopped or timer.parked or not sim._running:
                return
            if nxt > barrier_time or (nxt == barrier_time
                                      and seq > barrier_seq):
                return
            if heap:
                head = heap[0]
                if head[0] < nxt or (head[0] == nxt and head[1] < seq):
                    return
            sim.now = nxt

    def _quiet_run_length(self, n_active: int) -> int:
        """Upcoming ticks guaranteed to grant zero foreground service.

        Inside a slot batch no heap events fire, so foreground backlogs can
        only change through the scheduler's own pulls -- a slot that grants
        nothing leaves the next slot's inputs untouched.  Under round robin
        with an oversubscribed background population (``base == 0``), which
        UEs receive the remainder PRBs is pure modular arithmetic over the
        rotation offset, so the run of grantless slots ahead is computable
        without executing them.  :meth:`_quiet_bulk` then replays only the
        bookkeeping those slots would have done, in one pass.

        The run is capped at the population's next kernel-step boundary
        (``demand_count`` may change there) and is zero whenever any
        foreground UE would be granted or under proportional fair with
        backlogged UEs.  ``n_active`` counts the backlogged foreground UEs.
        Only called with a background population attached (without one
        every slot takes the per-slot path).
        """
        background = self._background
        boundary = (background._slots_per_step
                    - background._slot_count % background._slots_per_step)
        if n_active == 0:
            # The idle-foreground branch of _on_slot is policy-independent
            # and constant until the boundary refreshes demand_count.
            return boundary
        bg_demand = background.demand_count
        if not bg_demand or not self._round_robin:
            return 0
        total = n_active + bg_demand
        num_prb = self.cell.num_prb
        if num_prb // total > 0:
            return 0  # every backlogged UE gets PRBs every slot
        remainder = num_prb  # base == 0
        offset = self._rr_offset
        quiet = boundary
        for i in range(n_active):
            pos = (i + offset) % total
            if pos < remainder:
                return 0  # the very next slot grants this UE
            until_grant = total - pos  # wraps to 0, which is < remainder
            if until_grant < quiet:
                quiet = until_grant
        return quiet

    def _quiet_bulk(self, quiet: int, n_active: int, barrier_time: float,
                    barrier_seq) -> bool:
        """Run up to ``quiet`` predicted zero-service ticks in one pass.

        Per-tick this replicates exactly the bookkeeping :meth:`_on_slot`
        performs on a slot whose grants are all zero -- slot/busy counters,
        the round-robin rotation, the background PRB hand-off (whole cell:
        foreground got nothing) and the PF throughput-EWMA decay -- and the
        batching collapses are all bit-exact:

        * the tick count that fits before the barrier/heap head is decided
          up front (quiet ticks push nothing onto the heap, so the head key
          is fixed for the whole run);
        * rotating the offset by ``count`` equals ``count`` single steps
          (modular arithmetic; ``demand_count`` is constant up to the
          kernel-step boundary the run is capped at);
        * the background PRB accumulator adds ``prbs * count`` -- all
          integer-valued floats, so repeated ``+= prbs`` sums identically;
        * the EWMA is :meth:`_decay_idle`.

        Returns ``True`` when the slot batch is over (the tick after the
        last one processed crosses the barrier, the heap head, or the
        timer was stopped).
        """
        sim = self._sim
        queue = sim.events
        heap = queue.heap
        timer = self._timer
        slot = timer.period
        if heap:
            head = heap[0]
            head_time = head[0]
            head_seq = head[1]
        else:
            head_time = None
            head_seq = 0
        seq0 = queue._next_seq
        t = sim.now
        count = 1  # the tick at sim.now is due unconditionally
        over = False
        while count < quiet:
            # Re-arm check of tick ``count``: would tick ``count + 1`` at
            # ``nxt`` with sequence ``seq`` still be the globally next
            # event?  Identical comparisons to the per-tick loop.
            nxt = t + slot
            seq = seq0 + count - 1
            if nxt > barrier_time or (nxt == barrier_time
                                      and seq > barrier_seq):
                over = True
                break
            if head_time is not None and (
                    head_time < nxt or (head_time == nxt and head_seq < seq)):
                over = True
                break
            t = nxt
            count += 1
        background = self._background
        bg_demand = background.demand_count
        self.slots += count
        if n_active:
            self.busy_slots += count
            total = n_active + bg_demand
            self._rr_offset = (self._rr_offset + count) % total
            prbs = self.cell.num_prb
        elif bg_demand:
            self.busy_slots += count
            prbs = self.cell.num_prb
        else:
            prbs = 0
        if prbs:
            background._pending_prb_slots += prbs * count
        background._slot_count += count
        if background._slot_count % background._slots_per_step == 0:
            # ``quiet <= boundary`` caps the run, so the only possible
            # kernel step is at the final tick, whose time is ``t``.
            background._step(t)
        self._decay_idle(count)
        sim.now = t
        sim._processed += count
        queue._next_seq = seq0 + count
        seq = seq0 + count - 1
        nxt = t + slot
        timer.time = nxt
        timer.seq = seq
        if over or timer.stopped or not sim._running:
            return True
        if nxt > barrier_time or (nxt == barrier_time and seq > barrier_seq):
            return True
        if heap:
            head = heap[0]
            if head[0] < nxt or (head[0] == nxt and head[1] < seq):
                return True
        sim.now = nxt
        return False

    def _on_slot(self, active: Optional[list] = None) -> None:
        """One TTI: sample channels, allocate PRBs, drain RLC queues.

        This fires at the slot rate (2 kHz for 30 kHz SCS) for every cell, so
        the loop avoids per-slot dict building where it can: the common
        single-backlogged-UE case takes a direct path, and the PF throughput
        EWMA reads a scratch field instead of a per-slot ``served`` dict.
        ``active`` is the backlogged subset of the registered UEs, in
        registration order, when the caller has just scanned it.
        """
        self.slots += 1
        now = self._sim.now
        states = self._ue_states
        if active is None:
            active = [state for state in states if state.backlog_bytes() > 0]
        decay = self._decay
        keep = 1.0 - decay
        background = self._background
        bg_demand = background.demand_count if background is not None else 0
        bg_prbs = 0
        if not active:
            if background is None:
                # Nothing to do until something calls wake().
                self._timer.parked = True
            elif bg_demand:
                # The background aggregate owns the whole cell this slot.
                self.busy_slots += 1
                bg_prbs = self.cell.num_prb
            for state in states:
                average = state.average_throughput * keep
                state.average_throughput = average if average > 1.0 else 1.0
        else:
            self.busy_slots += 1
            cell = self.cell
            if bg_demand:
                bg_prbs = self._serve_with_background(active, bg_demand, now)
            elif len(active) == 1:
                # Fast path: one backlogged UE owns the whole cell this slot.
                # Mirrors the generic policies exactly: RR (and PF's
                # zero-weight fallback to RR) resets the rotation offset,
                # ``(x + 1) % 1 == 0``.
                state = active[0]
                grant = cell.slot_capacity_bytes(state.channel.efficiency(now))
                if self._round_robin or grant <= 0:
                    self._rr_offset = 0
                used = state.pull(grant) if grant > 0 else 0
                state.served_bytes_total += used
                state.scheduled_slots += 1
                state.slot_served = used
            else:
                efficiencies = {s.ue_id: s.channel.efficiency(now)
                                for s in active}
                allocations = self._allocate_prbs(active, efficiencies)
                for state in active:
                    prbs = allocations.get(state.ue_id, 0)
                    if prbs <= 0:
                        continue
                    grant = cell.slot_capacity_bytes(
                        efficiencies[state.ue_id], num_prb=prbs)
                    used = state.pull(grant) if grant > 0 else 0
                    state.served_bytes_total += used
                    state.scheduled_slots += 1
                    state.slot_served = used
            inv_slot = self._inv_slot_duration
            for state in states:
                average = (keep * state.average_throughput
                           + decay * (state.slot_served * inv_slot))
                state.average_throughput = average if average > 1.0 else 1.0
                state.slot_served = 0
        if background is not None:
            # The background PRB hand-off (``BackgroundPopulation.on_slot``)
            # inline, as in :meth:`_quiet_bulk`: every slot, idle ones
            # included, ticks the kernel's batch clock.
            if bg_prbs:
                background._pending_prb_slots += bg_prbs
            background._slot_count += 1
            if background._slot_count % background._slots_per_step == 0:
                background._step(now)

    def _serve_with_background(self, active: list[_UeSchedulingState],
                               bg_demand: int, now: float) -> int:
        """Split the slot between foreground UEs and the background aggregate.

        Round robin treats the population as ``bg_demand`` extra equal-share
        claimants rotating through the same remainder offset as the
        foreground UEs.  Proportional fair first carves out the background's
        equal aggregate share, then runs PF over the remaining budget.
        Returns the PRBs left to the background aggregate.
        """
        cell = self.cell
        num_prb = cell.num_prb
        total_claimants = len(active) + bg_demand
        if self._round_robin:
            base = num_prb // total_claimants
            remainder = num_prb - base * total_claimants
            offset = self._rr_offset
            fg_prbs = 0
            for index, state in enumerate(self._by_ue_id(active)):
                extra = 1 if ((index + offset) % total_claimants
                              < remainder) else 0
                prbs = base + extra
                if prbs <= 0:
                    continue
                fg_prbs += prbs
                grant = cell.slot_capacity_bytes(
                    state.channel.efficiency(now), num_prb=prbs)
                used = state.pull(grant) if grant > 0 else 0
                state.served_bytes_total += used
                state.scheduled_slots += 1
                state.slot_served = used
            self._rr_offset = (offset + 1) % total_claimants
            return num_prb - fg_prbs
        bg_prbs = (num_prb * bg_demand) // total_claimants
        fg_budget = num_prb - bg_prbs
        efficiencies = {s.ue_id: s.channel.efficiency(now) for s in active}
        allocations = self._allocate_proportional_fair(
            active, efficiencies, total_prb=fg_budget)
        for state in active:
            prbs = allocations.get(state.ue_id, 0)
            if prbs <= 0:
                continue
            grant = cell.slot_capacity_bytes(
                efficiencies[state.ue_id], num_prb=prbs)
            used = state.pull(grant) if grant > 0 else 0
            state.served_bytes_total += used
            state.scheduled_slots += 1
            state.slot_served = used
        return bg_prbs

    # ------------------------------------------------------------------ #
    # PRB allocation policies
    # ------------------------------------------------------------------ #
    def _allocate_prbs(self, active: list[_UeSchedulingState],
                       efficiencies: dict[UeId, float]) -> dict[UeId, int]:
        if self.policy == SchedulerPolicy.ROUND_ROBIN:
            return self._allocate_round_robin(active)
        return self._allocate_proportional_fair(active, efficiencies)

    def _allocate_round_robin(
            self, active: list[_UeSchedulingState],
            total_prb: Optional[int] = None) -> dict[UeId, int]:
        total = self.cell.num_prb if total_prb is None else total_prb
        n = len(active)
        base = total // n
        remainder = total - base * n
        allocations: dict[UeId, int] = {}
        for index, state in enumerate(self._by_ue_id(active)):
            extra = 1 if (index + self._rr_offset) % n < remainder else 0
            allocations[state.ue_id] = base + extra
        self._rr_offset = (self._rr_offset + 1) % max(1, n)
        return allocations

    def _allocate_proportional_fair(
            self, active: list[_UeSchedulingState],
            efficiencies: dict[UeId, float],
            total_prb: Optional[int] = None) -> dict[UeId, int]:
        budget = self.cell.num_prb if total_prb is None else total_prb
        weights: dict[UeId, float] = {}
        for state in active:
            instantaneous = self.cell.slot_capacity_bytes(
                efficiencies[state.ue_id]) / self.cell.slot_duration
            weights[state.ue_id] = instantaneous / state.average_throughput
        total_weight = sum(weights.values())
        if total_weight <= 0:
            return self._allocate_round_robin(active, total_prb=total_prb)
        allocations: dict[UeId, int] = {}
        assigned = 0
        ordered = sorted(active, key=lambda s: -weights[s.ue_id])
        for state in ordered:
            share = int(round(budget * weights[state.ue_id]
                              / total_weight))
            share = min(share, budget - assigned)
            allocations[state.ue_id] = share
            assigned += share
        leftover = budget - assigned
        if leftover > 0 and ordered:
            allocations[ordered[0].ue_id] += leftover
        return allocations

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def throughput_report(self) -> dict[UeId, float]:
        """Average served rate (bytes/s) per UE since the start of the run."""
        elapsed = max(self._sim.now, self.cell.slot_duration)
        return {ue_id: state.served_bytes_total / elapsed
                for ue_id, state in self._ues.items()}
