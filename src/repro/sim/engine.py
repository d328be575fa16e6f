"""The simulation engine: a clock, an event heap and a timer wheel.

Every component in the library receives a :class:`Simulator` and schedules
work on it.  One-shot callbacks go through the heap (:meth:`Simulator.schedule`);
every recurring timer -- the MAC slot clocks, the dominant recurring events
of every RAN scenario, and the samplers, AQM updaters, feedback clocks and
monitors started with :meth:`Simulator.every` -- lives off-heap on the timer
wheel (:class:`SlotTimer`) and is merged with the heap by one run loop in
exact ``(time, sequence)`` order.

A heap entry *is* the event: the list ``[time, seq, callback, args]``,
built and pushed in the scheduling call's own frame and returned as the
handle.  The heap orders entries by ``(time, seq)`` -- ``seq`` comes from
one counter shared with the wheel and is unique, so the comparison never
reaches the callback and two events at the same instant fire in the order
they were scheduled.  :meth:`Simulator.cancel` clears the callback slot;
the entry stays queued and is discarded lazily when it reaches the head.
The engine is deliberately small -- the interesting behaviour lives in the
network, RAN and congestion-control components.
"""

from __future__ import annotations

from bisect import insort as _insort
from heapq import heappop as _heappop
from heapq import heappush as _heappush
from operator import attrgetter
from typing import Callable, Optional

from repro.sim.randomness import RandomStreams
from repro.sim.timers import SlotTimer


class SimulationError(RuntimeError):
    """Raised when the engine is used inconsistently (e.g. scheduling in the past)."""


#: The wheel's sort key.
_timer_key = attrgetter("time", "seq")


class Simulator:
    """Discrete-event simulator with a float-seconds clock.

    Args:
        seed: master seed for all random streams drawn via :attr:`random`.

    Example::

        sim = Simulator(seed=1)
        fired = []
        sim.schedule(0.5, lambda: fired.append(sim.now))
        sim.run(until=1.0)
        assert fired == [0.5]
    """

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        #: The event heap of ``[time, seq, callback, args]`` entries, and
        #: the tie-break counter it shares with the wheel.
        self.heap: list[list] = []
        self._next_seq = 0
        self.random = RandomStreams(seed)
        self._running = False
        self._processed = 0
        #: Recurring timers living off-heap (see :class:`SlotTimer`): one
        #: slot clock per cell in a RAN scenario.  Ordered by ``(time,
        #: seq)``: the head fires next, the second entry is its barrier.
        self._wheel: list[SlotTimer] = []
        #: Bumped by ``add_slot_timer`` and ``stop``; tells the run loop its
        #: cached head-timer key may be stale or its time is up.
        self._epoch = 0

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def schedule(self, delay: float, callback: Callable[..., None],
                 *args) -> list:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now.

        Returns the heap entry, the handle :meth:`cancel` takes.
        """
        if not delay >= 0.0:  # NaN fails the comparison too
            raise SimulationError(f"cannot schedule {delay} s in the past")
        seq = self._next_seq
        self._next_seq = seq + 1
        entry = [self.now + delay, seq, callback, args]
        _heappush(self.heap, entry)
        return entry

    def schedule_at(self, time: float, callback: Callable[..., None],
                    *args) -> list:
        """Schedule ``callback(*args)`` at an absolute simulation time."""
        if not time >= self.now:  # NaN fails the comparison too
            raise SimulationError(
                f"cannot schedule at {time:.6f} s, current time is {self.now:.6f} s")
        seq = self._next_seq
        self._next_seq = seq + 1
        entry = [time, seq, callback, args]
        _heappush(self.heap, entry)
        return entry

    def call_soon(self, callback: Callable[..., None], *args) -> list:
        """Schedule a callback for the current instant (after pending same-time events)."""
        seq = self._next_seq
        self._next_seq = seq + 1
        entry = [self.now, seq, callback, args]
        _heappush(self.heap, entry)
        return entry

    def cancel(self, handle: list) -> None:
        """Cancel a scheduled event; a no-op once it has fired.

        The entry stays on the heap with no callback: the run loop and
        :meth:`peek_time` discard it when it reaches the head.
        """
        handle[2] = None

    def add_slot_timer(self, period: float, callback,
                       start_at: Optional[float] = None) -> SlotTimer:
        """Install a recurring off-heap timer (see :class:`SlotTimer`).

        ``callback(barrier_time, barrier_seq)`` fires at ``start_at``
        (default: now) and then every ``period`` seconds, interleaved with
        heap events in exact ``(time, sequence)`` order by :meth:`run`.
        """
        if not 0.0 < period < float("inf"):  # NaN fails both comparisons
            raise SimulationError(
                f"timer period must be finite and positive, got {period!r}")
        first = self.now if start_at is None else max(start_at, self.now)
        # Consume the tie-break sequence number exactly where a
        # self-rescheduling heap callback would push its first tick.
        seq = self._next_seq
        self._next_seq = seq + 1
        timer = SlotTimer(first, seq, period, callback)
        self._wheel.append(timer)
        self._wheel.sort(key=_timer_key)
        self._epoch += 1
        return timer

    def every(self, period: float, callback: Callable[[], None],
              start_at: Optional[float] = None) -> SlotTimer:
        """Call ``callback()`` every ``period`` seconds until the returned
        timer is stopped; the first call is at ``start_at`` (default: one
        period from now).

        Each call is one processed event, and the re-arm after it consumes
        one sequence number -- unless the callback stopped the timer, as a
        self-rescheduling heap callback would not re-schedule then.
        """
        def fire(barrier_time: float, barrier_seq) -> None:
            callback()
            self._processed += 1
            if not timer.stopped:
                timer.advance(self)

        timer = self.add_slot_timer(
            period, fire, self.now + period if start_at is None else start_at)
        return timer

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #
    def run(self, until: Optional[float] = None) -> int:
        """Run until nothing is left or ``until`` is reached.

        Returns the number of events processed by this call (a wheel tick
        counts as one event, like the heap event it stands for).

        Events fire in exact ``(time, sequence)`` order across the heap and
        the wheel -- the key the heap itself orders by -- so firing order is
        bit-identical to scheduling every tick through the heap.  This is
        the hottest code in the library: every simulated packet, timer and
        channel update funnels through the inner drain, whose per-event
        work is one key comparison of the heap head against a cached stop
        key (the head timer, capped by ``until``), one pop, one
        cancellation check (a cancelled entry is popped, neither fired nor
        counted) and one staleness check.  A cancelled entry past the stop
        key stays queued until it is reached; as a head it merely ends a
        slot batch early.  The wheel is kept ordered, so a timer *firing*
        reads the head and hands its callback the second entry's key
        (capped by ``until``) as the barrier it may batch ticks up to; a
        parked head's ticks are taken by the loop itself (null ticks, see
        :class:`SlotTimer`).  Either way only the head's key moved, and one
        rule re-seats it: if its new key passed the second entry's, it is
        taken out and insorted into the (still ordered) rest.  The cached
        keys can only go stale through :meth:`add_slot_timer` (a new timer
        may be earlier) or :meth:`stop`, both of which bump ``_epoch`` and
        end the drain -- mid-firing, the wheel is then sorted whole; a
        timer *stopped* by a heap callback is simply not fired, and a
        stopped second entry merely leaves the barrier conservative.
        """
        self._running = True
        processed_before = self._processed
        try:
            self._run_merged(until)
        finally:
            self._running = False
        return self._processed - processed_before

    def _run_merged(self, until: Optional[float]) -> None:
        """The loop of :meth:`run` (documented there)."""
        heap = self.heap
        wheel = self._wheel
        heappop = _heappop
        insort = _insort
        timer_key = _timer_key
        inf = float("inf")
        limit = inf if until is None else until
        while self._running:
            while wheel and wheel[0].stopped:
                del wheel[0]
            # Events and ticks exactly at ``until`` still fire, hence the
            # +inf sequence of the window's end key.
            if wheel and wheel[0].time <= limit:
                timer = wheel[0]
                stop_time = timer.time
                stop_seq = timer.seq
            else:
                timer = None
                stop_time = limit
                stop_seq = inf
            epoch = self._epoch
            # Heap events ahead of the stop key.
            while heap:
                head = heap[0]
                head_time = head[0]
                if head_time >= stop_time and (head_time > stop_time
                                               or head[1] > stop_seq):
                    break
                heappop(heap)
                callback = head[2]
                if callback is None:  # cancelled
                    continue
                self.now = head_time
                callback(*head[3])
                # Per-event update keeps processed_events live for callbacks
                # (watchdog patterns read it mid-run).
                self._processed += 1
                if self._epoch != epoch:
                    break
            if self._epoch != epoch:
                continue
            if timer is None:
                while heap and heap[0][2] is None:
                    heappop(heap)
                if heap or wheel:
                    self.now = until  # work remains, all of it past the window
                return
            if timer.stopped:
                continue
            count = len(wheel)
            if not timer.parked:
                if count > 1 and wheel[1].time <= limit:
                    barrier_time = wheel[1].time
                    barrier_seq = wheel[1].seq
                else:
                    barrier_time = limit
                    barrier_seq = inf
                self.now = stop_time
                timer.callback(barrier_time, barrier_seq)
                if self._epoch != epoch:
                    # A timer added mid-firing may precede the fired one.
                    wheel.sort(key=timer_key)
                elif len(wheel) > 1:
                    other = wheel[1]
                    time = timer.time
                    if time > other.time or (time == other.time
                                             and timer.seq > other.seq):
                        del wheel[0]
                        insort(wheel, timer, key=timer_key)
                continue
            # Null ticks (see SlotTimer), for as long as the next head is
            # parked too and neither a heap entry (a cancelled one counts,
            # as it does for a slot batch) nor the window's end precedes its
            # key.  Nothing else runs in here, so ``now``, the event total
            # and the sequence counter are written back once.
            processed = self._processed
            next_seq = self._next_seq
            while True:
                now = timer.time
                seq = next_seq
                next_seq += 1
                time = now + timer.period
                timer.time = time
                timer.seq = seq
                timer.skipped += 1
                processed += 1
                if count > 1:
                    other = wheel[1]
                    if time > other.time or (time == other.time
                                             and seq > other.seq):
                        del wheel[0]
                        insort(wheel, timer, key=timer_key)
                        timer = wheel[0]
                        time = timer.time
                        seq = timer.seq
                        if not timer.parked or timer.stopped:
                            break
                if time > limit:
                    break
                if heap:
                    head = heap[0]
                    if head[0] < time or (head[0] == time and head[1] < seq):
                        break
            self.now = now
            self._processed = processed
            self._next_seq = next_seq

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._running = False
        self._epoch += 1

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def peek_time(self) -> Optional[float]:
        """Firing time of the earliest live event, or ``None`` when idle.

        Lets windowed callers (``run(until=t)`` invoked repeatedly) observe
        how far ahead this loop could safely run and whether it has work
        left at all.  The sharded runtime's barrier reads it from every
        shard to place the next window (``experiments/sharded.py``).

        Live wheel timers count as work: a shard whose only future activity
        is its slot clock must not look idle to the barrier synchronizer.
        """
        heap = self.heap
        while heap and heap[0][2] is None:
            _heappop(heap)
        heap_time = heap[0][0] if heap else None
        wheel = self._wheel
        while wheel and wheel[0].stopped:
            del wheel[0]
        if wheel and (heap_time is None or wheel[0].time < heap_time):
            return wheel[0].time
        return heap_time

    @property
    def events(self) -> "Simulator":
        """The simulator itself, which owns the heap and its counter.

        ``benchmarks/ledger/drivers.py`` (pinned) still hands
        ``sim.events`` to :meth:`SlotTimer.advance`.
        """
        return self

    @property
    def pending_events(self) -> int:
        """Number of heap entries still queued (including cancelled ones)."""
        return len(self.heap)

    @property
    def processed_events(self) -> int:
        """Total number of events processed since construction."""
        return self._processed
