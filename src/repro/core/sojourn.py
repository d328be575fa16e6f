"""Sojourn-time prediction for the standing RLC queue (paper Eq. 5).

Given the smoothed egress-rate estimate and the bytes currently standing in
the queue, the predicted sojourn time of a packet entering now is simply
``N_queue / r_hat``.  The module also provides the cost model of estimation
errors discussed around Fig. 6: the extra RTT caused by over-estimating the
egress rate and the throughput lost by under-estimating it, both of which the
error-aware marking rule is designed to balance.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.core.egress import RateEstimate

#: Builds a prediction without the named tuple's Python-level ``__new__``.
_tuple_new = tuple.__new__


class SojournPrediction(NamedTuple):
    """A sojourn-time prediction together with the inputs that produced it."""

    sojourn: float
    queued_bytes: int
    rate: float
    error_std: float

    @property
    def is_confident(self) -> bool:
        """True when the rate estimate had little variance."""
        return self.rate > 0 and self.error_std < 0.1 * self.rate


class SojournPredictor:
    """Turns (queued bytes, rate estimate) into a sojourn-time prediction."""

    #: Sojourn reported when the rate estimate is still zero but data is queued.
    UNKNOWN_RATE_SOJOURN = 1.0

    def predict(self, queued_bytes: int,
                estimate: Optional[RateEstimate]) -> SojournPrediction:
        """Predict the sojourn time of the current standing queue."""
        if queued_bytes <= 0:
            rate = estimate.smoothed_rate if estimate is not None else 0.0
            err = estimate.error_std if estimate is not None else 0.0
            return _tuple_new(SojournPrediction, (0.0, 0, rate, err))
        if estimate is None or estimate.smoothed_rate <= 0:
            return _tuple_new(SojournPrediction, (
                self.UNKNOWN_RATE_SOJOURN, queued_bytes, 0.0, 0.0))
        rate = estimate.smoothed_rate
        return _tuple_new(SojournPrediction, (
            queued_bytes / rate, queued_bytes, rate, estimate.error_std))


def rtt_cost_of_overestimate(rt_prop: float, true_rate: float,
                             estimated_rate: float) -> float:
    """Extra RTT incurred when the egress rate is over-estimated (Fig. 6).

    ``RT_p * (r_hat - r_e) / r_e`` for ``r_hat > r_e``, zero otherwise.
    """
    if true_rate <= 0 or estimated_rate <= true_rate:
        return 0.0
    return rt_prop * (estimated_rate - true_rate) / true_rate


def throughput_cost_of_underestimate(rt_prop: float, sojourn_target: float,
                                     true_rate: float,
                                     estimated_rate: float) -> float:
    """Throughput lost when the egress rate is under-estimated (Fig. 6).

    ``(RT_p + tau_s) * (r_e - r_hat) / RT_p`` for ``r_hat < r_e``, zero
    otherwise.  Units: bytes per second.
    """
    if rt_prop <= 0 or estimated_rate >= true_rate:
        return 0.0
    return (rt_prop + sojourn_target) * (true_rate - estimated_rate) / rt_prop
