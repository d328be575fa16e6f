"""BBRv2: BBR with DCTCP/L4S-style reaction to ECN marks.

BBRv2 keeps BBR's bandwidth/RTT model but bounds the data in flight by
``inflight_hi``, which it reduces multiplicatively when the per-round CE-mark
fraction exceeds a small threshold.  The sender negotiates AccECN and sets
ECT(1), so L4Span treats its flows as L4S (paper §6.1).
"""

from __future__ import annotations

from typing import Optional

from repro.cc.bbr import BbrSender
from repro.net.ecn import ECN
from repro.registry import CC_SENDERS


@CC_SENDERS.register("bbr2", is_l4s=True)
class Bbr2Sender(BbrSender):
    """BBRv2 with ECN-triggered in-flight bounding."""

    name = "bbr2"
    ect_codepoint = ECN.ECT1
    uses_accecn = True

    #: CE fraction above which the round is treated as congested.
    ECN_THRESHOLD = 0.05
    #: Multiplicative back-off applied to ``inflight_hi`` on a congested round.
    BETA_ECN = 0.3
    ALPHA_GAIN = 1.0 / 16.0

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.alpha = 0.0
        self.inflight_hi: Optional[float] = None
        self._round_acked = 0
        self._round_ce = 0

    # ------------------------------------------------------------------ #
    def _window_limit(self) -> float:
        limit = super()._window_limit()
        if self.inflight_hi is not None:
            limit = min(limit, self.inflight_hi)
        return max(limit, self.MIN_CWND_SEGMENTS * self.mss)

    def on_ack(self, newly_acked: int, ce_bytes: int, ce_seen: bool,
               rtt_sample: Optional[float]) -> None:
        self._round_acked += newly_acked
        self._round_ce += ce_bytes
        super().on_ack(newly_acked, ce_bytes, ce_seen, rtt_sample)

    def on_round_end(self) -> None:
        acked = max(self._round_acked, 1)
        fraction = min(1.0, self._round_ce / acked)
        self.alpha = ((1.0 - self.ALPHA_GAIN) * self.alpha
                      + self.ALPHA_GAIN * fraction)
        if fraction > self.ECN_THRESHOLD:
            self.stats.congestion_events += 1
            reference = self.inflight_hi if self.inflight_hi is not None \
                else max(self.inflight, self.cwnd)
            reduction = max(self.BETA_ECN * self.alpha, 0.02)
            self.inflight_hi = max(reference * (1.0 - reduction),
                                   self.MIN_CWND_SEGMENTS * self.mss)
        elif self.inflight_hi is not None:
            # Probe upwards again when marks subside.
            self.inflight_hi *= 1.02
        self._round_acked = 0
        self._round_ce = 0

    def on_loss(self) -> None:
        reference = self.inflight_hi if self.inflight_hi is not None \
            else self.inflight
        self.inflight_hi = max(reference * 0.7,
                               self.MIN_CWND_SEGMENTS * self.mss)
