"""The three marking probabilities of L4Span (paper §4.2).

* **L4S-only DRB** (Eq. 1): mark with the probability that the *actual* egress
  rate fails the sojourn-time target, modelling the rate-estimation error as a
  zero-mean Gaussian whose width adapts to the channel volatility.  With zero
  error the rule collapses to DualPi2's step threshold.
* **Classic-only DRB** (Eq. 2): mark with the probability that makes the
  steady-state TCP throughput model match the bearer's egress rate, so the
  classic sender neither bloats the buffer nor starves it.
* **Shared DRB** (§4.2.3): keep the classic probability and couple the L4S
  probability as ``p_L4S = alpha * sqrt(p_classic)`` with ``alpha`` chosen so
  both flows obtain the same throughput at equal RTT (``alpha = 2 / K``).
"""

from __future__ import annotations

import math


def _standard_normal_cdf(x: float) -> float:
    """CDF of the standard normal distribution."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def l4s_mark_probability(queued_bytes: float, rate_estimate: float,
                         rate_error_std: float,
                         sojourn_threshold: float) -> float:
    """Eq. 1: probability of marking an L4S packet.

    Args:
        queued_bytes: bytes standing in the bearer's RLC queue (N_queue).
        rate_estimate: smoothed egress-rate estimate r_hat (bytes/s).
        rate_error_std: standard deviation of the estimate e_hat (bytes/s).
        sojourn_threshold: the target sojourn time tau_s (seconds).

    Returns:
        The marking probability in [0, 1].  With a vanishing error estimate
        the rule degenerates to a step at ``predicted sojourn == tau_s``
        (DualPi2's behaviour); a larger error softens the edge so a volatile
        channel is not over- or under-marked.
    """
    if queued_bytes <= 0:
        return 0.0
    if sojourn_threshold <= 0:
        return 1.0
    required_rate = queued_bytes / sojourn_threshold
    if rate_estimate <= 0:
        return 1.0
    if rate_error_std <= 0:
        return 1.0 if required_rate >= rate_estimate else 0.0
    return _standard_normal_cdf((required_rate - rate_estimate) / rate_error_std)


def tcp_model_constant(beta: float = 0.5) -> float:
    """The constant K of the classic TCP throughput model.

    ``K = (1 + beta) / 2 * sqrt(2 / (1 - beta^2))`` which evaluates to the
    familiar ``sqrt(3/2) ~= 1.22`` for Reno's ``beta = 0.5``.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must be in (0, 1)")
    return (1.0 + beta) / 2.0 * math.sqrt(2.0 / (1.0 - beta * beta))


def classic_mark_probability(mss: float, rtt: float, rate_estimate: float,
                             beta: float = 0.5) -> float:
    """Eq. 2: marking probability that rate-matches a classic TCP sender.

    Args:
        mss: maximum segment size in bytes.
        rtt: the RTT estimate; the layer passes the handshake RTT plus the
            sojourn target tau_s, the RTT once the queue is held there.
        rate_estimate: predicted bearer egress rate (bytes/s).
        beta: multiplicative-decrease factor of the classic sender.
    """
    if rate_estimate <= 0 or rtt <= 0:
        return 0.0
    k = tcp_model_constant(beta)
    probability = (mss * k / (rtt * rate_estimate)) ** 2
    return min(1.0, max(0.0, probability))


def coupled_l4s_probability(p_classic: float, beta: float = 0.5) -> float:
    """§4.2.3: the L4S probability coupled to the classic one on a shared DRB.

    Balancing ``r_L4S = 2 MSS / (RTT p_L4S)`` against
    ``r_classic = MSS K / (RTT sqrt(p_classic))`` at equal RTT gives
    ``p_L4S = (2 / K) * sqrt(p_classic)``.
    """
    if p_classic <= 0:
        return 0.0
    alpha = 2.0 / tcp_model_constant(beta)
    return min(1.0, alpha * math.sqrt(p_classic))
