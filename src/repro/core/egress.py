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

from collections import deque
from math import sqrt
from typing import Iterable, NamedTuple, Optional

from repro.core.profile_table import ProfileEntry


#: Builds a record without the named tuple's Python-level ``__new__``.
_tuple_new = tuple.__new__


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
        # Instantaneous-rate history with a running Welford accumulator
        # (count, mean and the centred sum of squares M2, updated under both
        # insertion and removal), so the smoothed mean and error std are
        # O(1) per update instead of a full-window ``sum()`` pass for each.
        # The centred recurrences (rather than a raw sum of squares) keep
        # the variance robust at rate magnitudes around 1e7 bytes/s.
        self._inst_times: deque[float] = deque()
        self._inst_rates: deque[float] = deque()
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._last_estimate: Optional[RateEstimate] = None

    # ------------------------------------------------------------------ #
    def observe_transmissions(self, entries: Iterable[ProfileEntry]
                              ) -> Optional[RateEstimate]:
        """Feed newly transmitted profile entries; returns the new estimate.

        Returns the previous estimate (None before the first) when the
        update carried no new transmissions.
        """
        now: Optional[float] = None
        transmissions = self._transmissions
        window_bytes = self._window_bytes
        for entry in entries:
            if entry.transmitted_time is None:
                continue
            transmissions.append((entry.transmitted_time, entry.size))
            window_bytes += entry.size
            now = entry.transmitted_time
        if now is None:
            return self._last_estimate
        window = self.window
        cutoff = now - window
        # Eq. 3: bytes transmitted in the trailing window ending at ``now``.
        while transmissions and transmissions[0][0] <= cutoff:
            window_bytes -= transmissions.popleft()[1]
        self._window_bytes = window_bytes
        instantaneous = window_bytes / window
        # Eq. 4: add the sample to the smoothing window (Welford step) ...
        inst_times = self._inst_times
        inst_rates = self._inst_rates
        inst_times.append(now)
        inst_rates.append(instantaneous)
        count = self._count + 1
        mean = self._mean
        delta = instantaneous - mean
        mean += delta / count
        m2 = self._m2 + delta * (instantaneous - mean)
        # ... and remove the samples that left it (inverse Welford step).
        while inst_times[0] <= cutoff:
            inst_times.popleft()
            value = inst_rates.popleft()
            if count <= 1:
                count = 0
                mean = 0.0
                m2 = 0.0
                continue
            old_mean = mean
            count -= 1
            mean = old_mean + (old_mean - value) / count
            m2 -= (value - old_mean) * (value - mean)
        self._count = count
        self._mean = mean
        self._m2 = m2
        # Population std of the window; removal can leave M2 a hair below
        # zero through float cancellation.
        error_std = sqrt(max(m2, 0.0) / count) if count >= 2 else 0.0
        estimate = _tuple_new(RateEstimate, (now, mean, instantaneous,
                                             error_std, count))
        self._last_estimate = estimate
        return estimate

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
