"""One recurring timer on the engine's timer wheel (the wheel itself, an
ordered list merged with the heap by one run loop, is in
:mod:`repro.sim.engine`)."""

from __future__ import annotations


class SlotTimer:
    """A recurring timer on the simulator's timer wheel.

    Every periodic process rides the wheel.  It was built for the *dominant*
    one -- the MAC slot clock, which fires every 0.5 ms for every cell and
    would otherwise account for the majority of heap pushes/pops in
    slot-bound scenarios -- and the slower ones (``Simulator.every``)
    share it.  A wheel timer never touches the heap: the run loop compares
    its ``(time, seq)`` key directly against the heap head.

    Determinism contract: a wheel timer consumes sequence numbers from the
    same :class:`~repro.sim.events.EventQueue` counter a heap push would, at
    the same logical points -- one at creation (where a self-rescheduling
    heap callback pushes its first tick) and one after each firing (where
    it re-schedules itself).  Same-instant ordering against heap events is
    therefore bit-identical to scheduling every tick through the heap.

    The callback is invoked as ``callback(barrier_time, barrier_seq)`` with
    ``sim.now == timer.time``.  It must fire at least the current tick and
    call :meth:`advance` after every tick it processes; it *may* process
    further ticks (batching) while its next ``(time, seq)`` key stays below
    both the barrier key and the heap head.

    A *parked* timer's owner (an idle cell's MAC, ``MacScheduler.wake``) has
    nothing to do until some heap event says otherwise.  Its ticks are still
    taken, at their own ``(time, seq)`` keys, but by the run loop: a *null
    tick* sets the clock, consumes the sequence number, advances ``time`` by
    ``period`` and counts one processed event and one ``skipped`` tick -- no
    callback.  The owner alone sets and clears ``parked`` and replays the
    ``skipped`` ticks when it wakes.  Exact because (1) only a heap event
    can end the owner's idleness, and heap events fire only between ticks;
    (2) a null tick does to the queue's counter, the clock and the event
    total exactly what the idle callback's re-arm does, so every tick, run
    or null, keeps its key and every heap event its sequence number; (3) the
    replay commutes with whatever ran in between, because an idle tick
    touches nothing but its owner's private counters.
    """

    __slots__ = ("time", "seq", "period", "callback", "stopped", "parked",
                 "skipped")

    def __init__(self, time: float, seq: int, period: float,
                 callback) -> None:
        self.time = time
        self.seq = seq
        self.period = period
        self.callback = callback
        self.stopped = False
        self.parked = False
        self.skipped = 0

    def advance(self, queue) -> None:
        """Move to the next tick, consuming one tie-break sequence number."""
        seq = queue._next_seq
        queue._next_seq = seq + 1
        self.seq = seq
        self.time += self.period

    def stop(self) -> None:
        """Stop firing; the run loop drops stopped timers lazily."""
        self.stopped = True
