"""Configuration of the L4Span layer."""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import ms, non_negative, positive, unit_interval


@dataclass
class L4SpanConfig:
    """Tunable parameters of :class:`~repro.core.l4span.L4SpanLayer`.

    Attributes:
        sojourn_threshold: the queuing-delay target tau_s for L4S flows.  The
            paper selects 10 ms (Fig. 19) because the 5G MAC needs an
            adequately filled buffer for resource scheduling.
        coherence_time: the pre-set channel coherence time (24.9 ms, measured
            at 3.5 GHz and 70 km/h by Wang et al.); the estimation window is
            half of it.
        enable_shortcircuit: rewrite uplink TCP ACK feedback at the gNB
            instead of waiting for the marked packet to cross the radio link.
        classic_beta: multiplicative-decrease factor assumed by the classic
            throughput model (0.5 for Reno; CUBIC's 0.7 gives a slightly
            different constant K).
        mark_udp_downlink: mark the IP ECN field of UDP/QUIC packets
            (the fallback when feedback cannot be short-circuited).
        drop_non_ecn: emulate dropping for Not-ECT flows instead of marking
            (disabled by default; the evaluation uses ECN-capable senders).
        measure_processing: record wall-clock processing time of each handler
            invocation (used by the Fig. 21 / Table 1 harnesses).
    """

    sojourn_threshold: float = non_negative(ms(10))
    coherence_time: float = positive(ms(24.9))
    enable_shortcircuit: bool = True
    classic_beta: float = unit_interval(0.5, low_open=True, high_open=True)
    mark_udp_downlink: bool = True
    drop_non_ecn: bool = False
    measure_processing: bool = False

    @property
    def estimation_window(self) -> float:
        """The egress-rate estimation window: half the coherence time."""
        return self.coherence_time / 2.0
