"""Egress-rate estimation from F1-U transmit reports (paper Eq. 3 and 4).

Whenever the RLC reports new transmissions, the estimator computes the
*instantaneous* egress rate over the trailing ``tau_c``-long window ending at
the newest transmit timestamp (Eq. 3), then smooths it by averaging the
instantaneous samples inside another ``tau_c`` window (Eq. 4).  Every byte
contributing to the smoothed estimate was therefore transmitted within
``2 * tau_c`` -- one channel coherence time -- during which the channel is
considered stable.  The standard deviation of the instantaneous samples in
the window is the error estimate ``e_hat`` used by the L4S marking rule.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, NamedTuple, Optional

from repro.core.profile_table import ProfileEntry


class WindowedMeanVariance:
    """Streaming mean/variance over a sliding window (Welford add/remove).

    Maintains the running mean and the centred sum of squares ``M2`` under
    both insertion and removal, so the smoothing pass over the
    instantaneous-rate window costs O(1) per update instead of the two
    O(window) ``sum()`` scans it replaces -- at feedback rates the scans
    were the estimator's dominant cost.  Welford's centred recurrences are
    used (rather than a raw sum-of-squares) for numerical robustness at
    rate magnitudes around 1e7 bytes/s.
    """

    __slots__ = ("count", "mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        """Insert ``value`` into the window."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    def remove(self, value: float) -> None:
        """Remove a ``value`` previously inserted (inverse Welford step)."""
        if self.count <= 1:
            self.count = 0
            self.mean = 0.0
            self._m2 = 0.0
            return
        old_mean = self.mean
        self.count -= 1
        self.mean = old_mean + (old_mean - value) / self.count
        self._m2 -= (value - old_mean) * (value - self.mean)

    def variance(self) -> float:
        """Population variance of the window (0 for fewer than two values)."""
        if self.count < 2:
            return 0.0
        # Removal can leave M2 a hair below zero through float cancellation.
        return max(self._m2, 0.0) / self.count

    def std(self) -> float:
        """Population standard deviation of the window."""
        return math.sqrt(self.variance())


class RateEstimate(NamedTuple):
    """The output of one estimator update (immutable, one per report)."""

    timestamp: float
    smoothed_rate: float       # r_hat_e, bytes per second
    instantaneous_rate: float  # r^T_k, bytes per second
    error_std: float           # e_hat, bytes per second
    samples_in_window: int


class EgressRateEstimator:
    """Sliding-window dequeue-rate estimator for one bearer.

    Args:
        window: the estimation window ``tau_c / 2`` is *not* applied here --
            the window passed in should already be the paper's
            ``tau_c``-long averaging window (the layer passes
            ``config.estimation_window``... see note) .

    Note:
        The paper uses a window of half the pre-set coherence time for the
        instantaneous rate (Eq. 3) and a second window of the same length for
        smoothing (Eq. 4); the constructor takes that single length.
    """

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._transmissions: deque[tuple[float, int]] = deque()
        #: Running byte total of ``_transmissions`` -- sizes are integers, so
        #: the sum is exact and the per-update window re-scan the estimator
        #: used to do (its dominant cost at feedback rates) is unnecessary.
        self._window_bytes = 0
        # Instantaneous-rate history with a running Welford accumulator, so
        # the smoothed mean and error std are O(1) per update instead of a
        # full-window ``sum()`` pass for each.
        self._inst_times: deque[float] = deque()
        self._inst_rates: deque[float] = deque()
        self._inst_stats = WindowedMeanVariance()
        self._last_estimate: Optional[RateEstimate] = None

    # ------------------------------------------------------------------ #
    def observe_transmissions(self, entries: Iterable[ProfileEntry]
                              ) -> Optional[RateEstimate]:
        """Feed newly transmitted profile entries; returns the new estimate.

        Returns None when the update carried no new transmissions.
        """
        newest_time: Optional[float] = None
        transmissions = self._transmissions
        for entry in entries:
            if entry.transmitted_time is None:
                continue
            transmissions.append((entry.transmitted_time, entry.size))
            self._window_bytes += entry.size
            newest_time = entry.transmitted_time
        if newest_time is None:
            return self._last_estimate
        return self._update(newest_time)

    def _update(self, now: float) -> RateEstimate:
        self._expire(now)
        instantaneous = self._window_bytes / self.window
        inst_times = self._inst_times
        inst_rates = self._inst_rates
        stats = self._inst_stats
        inst_times.append(now)
        inst_rates.append(instantaneous)
        stats.add(instantaneous)
        cutoff = now - self.window
        while inst_times[0] <= cutoff:
            inst_times.popleft()
            stats.remove(inst_rates.popleft())
        estimate = RateEstimate(now, stats.mean, instantaneous, stats.std(),
                                stats.count)
        self._last_estimate = estimate
        return estimate

    def _expire(self, now: float) -> None:
        """Drop transmissions outside the trailing window (exact running sum)."""
        cutoff = now - self.window
        transmissions = self._transmissions
        while transmissions and transmissions[0][0] <= cutoff:
            self._window_bytes -= transmissions.popleft()[1]

    # ------------------------------------------------------------------ #
    @property
    def last_estimate(self) -> Optional[RateEstimate]:
        """The most recent estimate, or None before any transmission."""
        return self._last_estimate

    def rate_or_default(self, default: float = 0.0) -> float:
        """Smoothed rate of the last estimate, or ``default``."""
        if self._last_estimate is None:
            return default
        return self._last_estimate.smoothed_rate

    def error_std_or_default(self, default: float = 0.0) -> float:
        """Error standard deviation of the last estimate, or ``default``."""
        if self._last_estimate is None:
            return default
        return self._last_estimate.error_std
