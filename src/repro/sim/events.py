"""Event objects and the pending-event queue.

The queue is a binary heap of plain ``(time, sequence, event)`` tuples.  The
sequence number breaks ties deterministically so two events scheduled for the
same instant always fire in the order they were scheduled, which keeps
simulations reproducible across runs and platforms.

Heap entries are tuples rather than the :class:`Event` objects themselves so
that heap sifting compares machine floats/ints instead of dispatching to a
dataclass ``__lt__`` -- the single hottest comparison in the simulator.  The
:class:`Event` is a plain slotted class (no dataclass machinery) for the same
reason: it is allocated once per scheduled callback, millions of times per
run.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional


class Event:
    """A single scheduled callback.

    Attributes:
        time: absolute simulation time, in seconds, at which to fire.
        sequence: tie-breaking counter assigned by the queue.
        callback: callable invoked as ``callback(*args)``; not part of the
            ordering key.
        args: positional arguments for the callback.
        cancelled: events are cancelled lazily -- the queue skips them when
            they reach the head of the heap.
    """

    __slots__ = ("time", "sequence", "callback", "args", "cancelled")

    def __init__(self, time: float, sequence: int,
                 callback: Callable[..., None], args: tuple = ()) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark this event so the engine skips it when it pops."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return (f"Event(time={self.time!r}, sequence={self.sequence}"
                f"{state})")


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects.

    The internal heap holds ``(time, sequence, event)`` tuples; ``heap`` is
    exposed (read-only by convention) so :meth:`Simulator.run` can inline the
    pop loop without method-call overhead.
    """

    __slots__ = ("heap", "_next_seq")

    def __init__(self) -> None:
        self.heap: list[tuple[float, int, Event]] = []
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self.heap)

    def push(self, time: float, callback: Callable[..., None],
             args: tuple = ()) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time`` and return the event."""
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time, seq, callback, args)
        heapq.heappush(self.heap, (time, seq, event))
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest non-cancelled event, or ``None``."""
        heap = self.heap
        while heap:
            event = heapq.heappop(heap)[2]
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the earliest live event, or ``None``."""
        heap = self.heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0][0]
