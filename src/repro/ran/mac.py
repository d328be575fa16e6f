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

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Optional

from repro.channel.base import ChannelModel
from repro.ran.cell import CellConfig
from repro.ran.identifiers import UeId
from repro.ran.scheduling import SchedulerPolicy
from repro.sim.engine import Simulator


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

    def attach_background(self, population) -> None:
        """Attach the cell's aggregated background population.

        The population (see :class:`repro.ran.background.BackgroundPopulation`)
        enters every slot of :meth:`_grant` as ``population.demand_count``
        extra claimants; the PRBs left to it go to ``population.on_slots``
        and are served by its next batched kernel step.
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
        the serving slot's form in :meth:`_on_slot`)."""
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
        heap = sim.heap
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
            seq = sim._next_seq
            sim._next_seq = seq + 1
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
        if n_active == 0:
            # The idle-foreground branch of _on_slot is policy-independent
            # and constant until the boundary refreshes demand_count.
            return background.slots_to_step()
        bg_demand = background.demand_count
        if not bg_demand or not self._round_robin:
            return 0
        total = n_active + bg_demand
        num_prb = self.cell.num_prb
        if num_prb // total > 0:
            return 0  # every backlogged UE gets PRBs every slot
        remainder = num_prb  # base == 0
        offset = self._rr_offset
        quiet = total
        for i in range(n_active):
            pos = (i + offset) % total
            if pos < remainder:
                return 0  # the very next slot grants this UE
            until_grant = total - pos  # wraps to 0, which is < remainder
            if until_grant < quiet:
                quiet = until_grant
        return min(quiet, background.slots_to_step())

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
        heap = sim.heap
        timer = self._timer
        slot = timer.period
        if heap:
            head = heap[0]
            head_time = head[0]
            head_seq = head[1]
        else:
            head_time = None
            head_seq = 0
        seq0 = sim._next_seq
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
        if bg_demand:  # a quiet run with backlogged UEs implies bg_demand
            self.busy_slots += count
        if n_active:
            self._rr_offset = ((self._rr_offset + count)
                               % (n_active + bg_demand))
        # ``quiet <= boundary`` caps the run, so the only possible kernel
        # step is at the final tick, whose time is ``t``.
        background.on_slots(self.cell.num_prb if bg_demand else 0, count, t)
        self._decay_idle(count)
        sim.now = t
        sim._processed += count
        sim._next_seq = seq0 + count
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

        ``active`` is the backlogged subset of the registered UEs, in
        registration order, when the caller has just scanned it.  The PF
        throughput EWMA reads each UE's ``slot_served`` scratch field.
        """
        self.slots += 1
        now = self._sim.now
        states = self._ue_states
        if active is None:
            active = [state for state in states if state.backlog_bytes() > 0]
        background = self._background
        bg_demand = background.demand_count if background is not None else 0
        if active:
            self.busy_slots += 1
            bg_prbs = self._grant(active, bg_demand, now)
            decay = self._decay
            keep = 1.0 - decay
            inv_slot = self._inv_slot_duration
            for state in states:
                average = (keep * state.average_throughput
                           + decay * (state.slot_served * inv_slot))
                state.average_throughput = average if average > 1.0 else 1.0
                state.slot_served = 0
        else:
            if background is None:
                # Nothing to do until something calls wake().
                self._timer.parked = True
            elif bg_demand:
                # The background aggregate owns the whole cell this slot.
                self.busy_slots += 1
            bg_prbs = self.cell.num_prb if bg_demand else 0
            self._decay_idle(1)
        if background is not None:
            background.on_slots(bg_prbs, 1, now)

    def _grant(self, active: list[_UeSchedulingState], bg_demand: int,
               now: float) -> int:
        """Split one slot among the backlogged UEs and ``bg_demand``
        background claimants; return the PRBs left to the background.

        Round robin gives every claimant ``num_prb // claimants`` PRBs and
        rotates the remainder by :attr:`_rr_offset` over the foreground in
        ue_id order; a UE's channel is sampled only when its share is
        non-zero (a fading channel draws on every new sample).  Proportional
        fair first carves out the background's aggregate share, samples
        every channel, then splits the rest by ``instantaneous_rate /
        average_throughput`` (highest weight takes the rounding leftover),
        or equally with the rotation when no UE can carry a byte.
        """
        num_prb = self.cell.num_prb
        claimants = len(active) + bg_demand
        serve = self._serve
        if self._round_robin:
            base = num_prb // claimants
            remainder = num_prb - base * claimants
            offset = self._rr_offset
            self._rr_offset = (offset + 1) % claimants
            left = num_prb
            for index, state in enumerate(
                    active if self._in_id_order
                    else sorted(active, key=_BY_UE_ID)):
                prbs = (base + 1 if (index + offset) % claimants < remainder
                        else base)
                if prbs > 0:
                    left -= prbs
                    serve(state, state.channel.efficiency(now), prbs)
            return left
        cell = self.cell
        n = len(active)
        bg_prbs = num_prb * bg_demand // claimants
        budget = num_prb - bg_prbs
        efficiencies = [state.channel.efficiency(now) for state in active]
        weights = [cell.slot_capacity_bytes(efficiency) / cell.slot_duration
                   / state.average_throughput
                   for state, efficiency in zip(active, efficiencies)]
        total_weight = sum(weights)
        shares = [0] * n
        if total_weight <= 0:
            # No UE can carry a byte: split the budget equally, rotating
            # over the UEs in ue_id order as round robin does.
            base = budget // n
            remainder = budget - base * n
            offset = self._rr_offset
            self._rr_offset = (offset + 1) % n
            by_id = sorted(range(n), key=lambda i: active[i].ue_id)
            for index, i in enumerate(by_id):
                shares[i] = (base + 1 if (index + offset) % n < remainder
                             else base)
        else:
            ranked = sorted(range(n), key=lambda i: -weights[i])
            assigned = 0
            for i in ranked:
                share = min(int(round(budget * weights[i] / total_weight)),
                            budget - assigned)
                shares[i] = share
                assigned += share
            shares[ranked[0]] += budget - assigned
        for state, efficiency, prbs in zip(active, efficiencies, shares):
            if prbs > 0:
                serve(state, efficiency, prbs)
        return bg_prbs

    def _serve(self, state: _UeSchedulingState, efficiency: float,
               prbs: int) -> None:
        """Grant ``prbs`` PRBs at ``efficiency`` and drain that many bytes
        (``cell.slot_capacity_bytes(efficiency, num_prb=prbs)``, less one
        call on the slot path)."""
        grant = int(prbs * self.cell.bytes_per_prb(efficiency))
        used = state.pull(grant) if grant > 0 else 0
        state.served_bytes_total += used
        state.scheduled_slots += 1
        state.slot_served = used

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def throughput_report(self) -> dict[UeId, float]:
        """Average served rate (bytes/s) per UE since the start of the run."""
        elapsed = max(self._sim.now, self.cell.slot_duration)
        return {ue_id: state.served_bytes_total / elapsed
                for ue_id, state in self._ues.items()}
