"""Trace-driven channels: replay a recorded sequence of SNR or CQI values.

Used by tests (deterministic channel shapes such as a step change at a known
instant, mirroring the bottleneck shift in Fig. 2) and by the Fig. 18 harness,
which feeds synthetic "commercial cell" MCS traces through the same stability
analysis the paper applies to NR-Scope captures.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Sequence

from repro.channel.base import ChannelModel, ChannelSample


class TraceChannel(ChannelModel):
    """Piecewise-constant SNR defined by ``(time, snr_db)`` breakpoints.

    The SNR holds its value between breakpoints and the last value persists
    forever.  Optionally the trace loops with period ``loop_period``.
    """

    def __init__(self, breakpoints: Iterable[tuple[float, float]],
                 loop_period: float | None = None) -> None:
        points = sorted(breakpoints)
        if not points:
            raise ValueError("trace must contain at least one breakpoint")
        self._times: Sequence[float] = [p[0] for p in points]
        self._values: Sequence[float] = [p[1] for p in points]
        self._loop = loop_period
        self.coherence_time = (min((self._times[i + 1] - self._times[i]
                                    for i in range(len(self._times) - 1)),
                                   default=float("inf")))

    def sample(self, now: float) -> ChannelSample:
        t = now
        if self._loop:
            t = now % self._loop
        index = bisect_right(self._times, t) - 1
        index = max(0, index)
        return ChannelSample.from_snr(now, self._values[index])
