"""Periodic processes built on top of the event queue.

Metric samplers, the SNR monitor and receiver feedback timers run as
:class:`PeriodicProcess` instances.  (The MAC slot clock does not: it lives
off-heap on the engine's timer wheel, see
:class:`repro.sim.engine.SlotTimer`.)
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import Simulator
from repro.sim.events import Event


class PeriodicProcess:
    """Invoke a callback every ``period`` seconds until stopped.

    Args:
        sim: the simulator to schedule on.
        period: seconds between invocations; must be positive.
        callback: called with no arguments at every tick.
        start_at: absolute time of the first tick; defaults to ``sim.now + period``.
        jitter: optional uniform jitter (fraction of the period) added to each
            tick to avoid artificial phase locking between processes.
    """

    def __init__(self, sim: Simulator, period: float,
                 callback: Callable[[], None],
                 start_at: Optional[float] = None,
                 jitter: float = 0.0,
                 name: str = "periodic") -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self._sim = sim
        self._period = period
        self._callback = callback
        self._jitter = max(0.0, jitter)
        self._name = name
        self._stopped = False
        self._pending: Optional[Event] = None
        self.ticks = 0
        first = start_at if start_at is not None else sim.now + period
        self._pending = sim.schedule_at(max(first, sim.now), self._tick)

    @property
    def period(self) -> float:
        """Seconds between ticks."""
        return self._period

    def _tick(self) -> None:
        if self._stopped:
            return
        self.ticks += 1
        self._callback()
        if self._stopped:
            return
        delay = self._period
        if self._jitter:
            delay += self._period * self._jitter * self._sim.random.uniform(
                f"{self._name}-jitter")
        self._pending = self._sim.schedule(delay, self._tick)

    def stop(self) -> None:
        """Cancel future ticks.  Safe to call more than once."""
        self._stopped = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
