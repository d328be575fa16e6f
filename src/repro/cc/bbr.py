"""BBR (v1): model-based congestion control that probes bandwidth and RTT.

The model keeps windowed estimates of the bottleneck bandwidth (maximum
recent delivery rate) and the minimum RTT, paces at ``pacing_gain * btl_bw``
and caps the data in flight at ``cwnd_gain * BDP``.  BBR v1 ignores both ECN
marks and isolated losses, which is why the paper's appendix finds its median
behaviour largely unchanged under L4Span.
"""

from __future__ import annotations

from typing import Optional

from repro.cc.base import WindowSender
from repro.net.ecn import ECN
from repro.registry import CC_SENDERS
from repro.units import ms


@CC_SENDERS.register("bbr")
class BbrSender(WindowSender):
    """Simplified BBR: bandwidth/RTT probing with an in-flight cap.

    The implementation reuses the ACK-clocked machinery of
    :class:`WindowSender`; pacing is approximated by capping the in-flight
    data at ``cwnd_gain * BDP`` where the BDP is recomputed from the model on
    every ACK, and by cycling ``pacing_gain`` through the standard
    ``[1.25, 0.75, 1, 1, 1, 1, 1, 1]`` schedule once per estimated RTT.
    """

    name = "bbr"
    ect_codepoint = ECN.ECT0
    uses_accecn = False

    PACING_GAIN_CYCLE = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    CWND_GAIN = 2.0
    STARTUP_GAIN = 2.885
    BW_WINDOW_ROUNDS = 10
    MIN_RTT_WINDOW_S = 10.0

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._delivered_bytes = 0
        self._delivery_samples: list[tuple[float, float]] = []
        self._bw_samples: list[float] = []
        self.btl_bw = 0.0
        self.min_rtt: Optional[float] = None
        self._min_rtt_stamp = 0.0
        self._cycle_index = 0
        self._cycle_stamp = 0.0
        self._in_startup = True
        self._full_bw = 0.0
        self._full_bw_rounds = 0

    # ------------------------------------------------------------------ #
    def _window_limit(self) -> float:
        if self.btl_bw <= 0 or self.min_rtt is None:
            return self.cwnd
        bdp = self.btl_bw * self.min_rtt
        gain = self.STARTUP_GAIN if self._in_startup else self.CWND_GAIN
        return max(self.MIN_CWND_SEGMENTS * self.mss, gain * bdp)

    @property
    def pacing_gain(self) -> float:
        """The current gain in the probe-bandwidth cycle."""
        if self._in_startup:
            return self.STARTUP_GAIN
        return self.PACING_GAIN_CYCLE[self._cycle_index]

    def _pacing_rate(self):
        if self.btl_bw > 0:
            return max(self.pacing_gain * self.btl_bw, 2.0 * self.mss / 0.05)
        return super()._pacing_rate()

    # ------------------------------------------------------------------ #
    def on_ack(self, newly_acked: int, ce_bytes: int, ce_seen: bool,
               rtt_sample: Optional[float]) -> None:
        now = self._sim.now
        if newly_acked > 0:
            self._delivered_bytes += newly_acked
            self._update_bandwidth_model(now)
        if rtt_sample is not None:
            if (self.min_rtt is None or rtt_sample < self.min_rtt
                    or now - self._min_rtt_stamp > self.MIN_RTT_WINDOW_S):
                self.min_rtt = rtt_sample
                self._min_rtt_stamp = now
        self._advance_cycle(now)
        # Keep the nominal cwnd pointing at the model's window so that the
        # generic machinery (stats, RTO scaling) sees a sensible value.
        self.cwnd = self._window_limit()

    def _update_bandwidth_model(self, now: float) -> None:
        self._delivery_samples.append((now, self._delivered_bytes))
        window = max(self.min_rtt or 0.1, 0.05)
        window_start = now - window
        while (len(self._delivery_samples) > 2
               and self._delivery_samples[0][0] < window_start):
            self._delivery_samples.pop(0)
        t0, d0 = self._delivery_samples[0]
        elapsed = now - t0
        if elapsed < 0.5 * window:
            # Not enough observation time for a trustworthy rate sample;
            # a couple of closely-spaced ACKs would wildly over-estimate.
            return
        sample_bw = (self._delivered_bytes - d0) / elapsed
        self._bw_samples.append(sample_bw)
        if len(self._bw_samples) > 30:
            self._bw_samples.pop(0)
        self.btl_bw = max(self._bw_samples)
        if self._in_startup:
            if self.btl_bw > self._full_bw * 1.25:
                self._full_bw = self.btl_bw
                self._full_bw_rounds = 0
            else:
                self._full_bw_rounds += 1
                if self._full_bw_rounds >= 3:
                    self._in_startup = False

    def _advance_cycle(self, now: float) -> None:
        rtt = self.min_rtt if self.min_rtt is not None else ms(50)
        if now - self._cycle_stamp >= rtt:
            self._cycle_stamp = now
            self._cycle_index = (self._cycle_index + 1) % len(
                self.PACING_GAIN_CYCLE)

    def on_loss(self) -> None:
        """BBR v1 does not reduce its model on isolated losses."""

    def on_timeout(self) -> None:
        self._bw_samples.clear()
        self.btl_bw *= 0.5
