"""Common machinery for congestion-control senders.

Two families of senders exist:

* :class:`WindowSender` -- ACK-clocked, a congestion window in bytes, classic
  or AccECN feedback, duplicate-ACK fast retransmit and an RTO backstop.  The
  TCP algorithms (Prague, CUBIC, Reno, BBRv2's window cap) derive from it and
  customise the window-update hooks.
* :class:`RateSender` -- paced transmission at an explicit rate, used by the
  interactive/video algorithms (SCReAM, UDP Prague) and by BBR's
  bandwidth-probing model.

Both share :class:`Sender`, which owns flow identity, the forward path and
the statistics every experiment reads out.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Optional

from repro.metrics.collectors import SampleReservoir
from repro.net.addresses import FiveTuple
from repro.net.base import PacketSink
from repro.net.ecn import ECN
from repro.net.packet import DEFAULT_MSS, HEADER_BYTES, Packet, make_data_packet
from repro.sim.engine import Simulator
from repro.units import ms

#: Reservoir capacities for the per-flow sample streams.  RTT samples feed
#: experiment medians/boxes, so their cap is generous enough that every
#: CI-scale run stays below it (bit-identical to unbounded); cwnd/rate traces
#: are debugging aids and get a tighter bound.  One sample arrives per ACK,
#: so an unbounded list grows without limit in long-lived runs.
RTT_SAMPLE_CAP = 1 << 18
TRACE_SAMPLE_CAP = 1 << 16


@dataclass
class FlowStats:
    """Counters and samples accumulated by a sender over its lifetime.

    The sample streams are :class:`~repro.metrics.collectors.SampleReservoir`
    lists: bounded, uniformly representative, and exactly equal to the raw
    stream until their capacity is reached.
    """

    sent_packets: int = 0
    sent_bytes: int = 0
    retransmitted_packets: int = 0
    acked_bytes: int = 0
    ce_feedback_bytes: int = 0
    congestion_events: int = 0
    loss_events: int = 0
    timeouts: int = 0
    start_time: float = 0.0
    completion_time: Optional[float] = None
    rtt_samples: list[float] = field(
        default_factory=lambda: SampleReservoir(RTT_SAMPLE_CAP))
    cwnd_samples: list[tuple[float, float]] = field(
        default_factory=lambda: SampleReservoir(TRACE_SAMPLE_CAP))
    rate_samples: list[tuple[float, float]] = field(
        default_factory=lambda: SampleReservoir(TRACE_SAMPLE_CAP))


class Sender(abc.ABC):
    """Base class for every content-server sender.

    Args:
        sim: simulator.
        flow_id: unique flow identifier.
        five_tuple: downlink five-tuple of the flow.
        path: first hop of the forward (downlink) path.
        mss: maximum segment payload size in bytes.
        flow_bytes: total bytes to transfer, or None for an unlimited
            (long-lived) flow.
    """

    #: The ECN codepoint this sender sets on its data packets.
    ect_codepoint: ECN = ECN.NOT_ECT
    #: True when the sender negotiates AccECN feedback.
    uses_accecn: bool = False
    #: Human-readable algorithm name (overridden by subclasses).
    name: str = "base"

    # Senders sit on the per-ACK hot path; slots keep their core state out
    # of instance dicts.  Algorithm subclasses stay dict-backed (their extra
    # state is small and tests monkeypatch methods on instances).
    __slots__ = ("_sim", "flow_id", "five_tuple", "path", "mss", "flow_bytes",
                 "stats", "running")

    def __init__(self, sim: Simulator, flow_id: int, five_tuple: FiveTuple,
                 path: PacketSink, mss: int = DEFAULT_MSS,
                 flow_bytes: Optional[int] = None) -> None:
        self._sim = sim
        self.flow_id = flow_id
        self.five_tuple = five_tuple
        self.path = path
        self.mss = mss
        self.flow_bytes = flow_bytes
        self.stats = FlowStats()
        self.running = False

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def start(self) -> None:
        """Begin transmitting."""

    @abc.abstractmethod
    def receive(self, packet: Packet) -> None:
        """Handle a feedback packet (ACK) arriving over the return path."""

    def stop(self) -> None:
        """Stop transmitting (the flow may be restarted only by a new sender)."""
        self.running = False

    # ------------------------------------------------------------------ #
    @property
    def completed(self) -> bool:
        """True once a finite flow has delivered all of its bytes."""
        return self.stats.completion_time is not None

    def _record_rtt(self, sample: float) -> None:
        if sample > 0:
            self.stats.rtt_samples.append(sample)


class WindowSender(Sender):
    """ACK-clocked sender with a congestion window, fast retransmit and RTO."""

    INITIAL_WINDOW_SEGMENTS = 10
    MIN_CWND_SEGMENTS = 2
    DUPACK_THRESHOLD = 3
    #: Exit slow start when the RTT rises noticeably above its floor
    #: (HyStart delay-increase detection, on by default in Linux CUBIC).
    ENABLE_HYSTART = False
    HYSTART_MIN_DELAY_INCREASE = 0.004

    __slots__ = ("cwnd", "ssthresh", "snd_una", "snd_nxt", "srtt", "rttvar",
                 "rto", "_dupacks", "_last_ack_seq", "_rto_event",
                 "_rto_deadline", "_rto_event_time", "_cwr_pending",
                 "_ce_in_round",
                 "_round_end_seq", "_last_accecn_ce_bytes",
                 "_last_accecn_ce_packets", "_recovery_until",
                 "_in_fast_recovery", "_pacing_timer", "_next_send_time",
                 "_min_rtt_seen", "_round_min_rtt")

    def __init__(self, sim: Simulator, flow_id: int, five_tuple: FiveTuple,
                 path: PacketSink, mss: int = DEFAULT_MSS,
                 flow_bytes: Optional[int] = None) -> None:
        super().__init__(sim, flow_id, five_tuple, path, mss, flow_bytes)
        self.cwnd = float(self.INITIAL_WINDOW_SEGMENTS * mss)
        self.ssthresh = float("inf")
        self.snd_una = 0
        self.snd_nxt = 0
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = 1.0
        self._dupacks = 0
        self._last_ack_seq = -1
        self._rto_event: Optional[list] = None
        self._rto_deadline: Optional[float] = None
        self._rto_event_time = 0.0
        self._cwr_pending = False
        self._ce_in_round = False
        self._round_end_seq = 0
        self._last_accecn_ce_bytes = 0
        self._last_accecn_ce_packets = 0
        self._recovery_until = 0
        self._in_fast_recovery = False
        self._pacing_timer: Optional[list] = None
        self._next_send_time = 0.0
        self._min_rtt_seen: Optional[float] = None
        self._round_min_rtt: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        self.running = True
        self.stats.start_time = self._sim.now
        self._round_end_seq = 0
        self._try_send()
        self._arm_rto()

    def stop(self) -> None:
        super().stop()
        self._rto_deadline = None
        if self._rto_event is not None:
            self._sim.cancel(self._rto_event)
            self._rto_event = None
        if self._pacing_timer is not None:
            self._sim.cancel(self._pacing_timer)
            self._pacing_timer = None

    # ------------------------------------------------------------------ #
    # Sending
    # ------------------------------------------------------------------ #
    @property
    def inflight(self) -> int:
        """Bytes sent but not yet cumulatively acknowledged."""
        return self.snd_nxt - self.snd_una

    def _bytes_remaining(self) -> Optional[int]:
        if self.flow_bytes is None:
            return None
        return max(0, self.flow_bytes - self.snd_nxt)

    def _window_limit(self) -> float:
        """The effective window; subclasses may cap it further."""
        return self.cwnd

    def _pacing_rate(self) -> Optional[float]:
        """Pacing rate in bytes/s, or None to send unpaced.

        Modern senders (Prague in particular, per the Prague requirements)
        pace their segments across the RTT instead of bursting a whole
        window; the default policy mirrors Linux: twice the cwnd-rate in slow
        start, 1.2x in congestion avoidance.  Subclasses (BBR) override this
        with their model-based pacing rate.
        """
        if self.srtt is None or self.srtt <= 0 or self.cwnd <= 0:
            return None
        gain = 2.0 if self.cwnd < self.ssthresh else 1.2
        return gain * self.cwnd / self.srtt

    def _try_send(self) -> None:
        if not self.running or self._pacing_timer is not None:
            return
        self._send_loop()

    def _send_loop(self) -> None:
        self._pacing_timer = None
        if not self.running:
            return
        now = self._sim.now
        mss = self.mss
        flow_bytes = self.flow_bytes
        sent = False
        while True:
            if flow_bytes is not None and flow_bytes - self.snd_nxt <= 0:
                break
            if self.snd_nxt - self.snd_una + mss > self._window_limit():
                break
            rate = self._pacing_rate()
            if rate is not None and rate > 0 and self._next_send_time > now + 1e-9:
                self._pacing_timer = self._sim.schedule(
                    self._next_send_time - now, self._send_loop)
                break
            payload = mss
            if flow_bytes is not None:
                remaining = flow_bytes - self.snd_nxt
                if remaining < payload:
                    payload = remaining
            self._send_segment(self.snd_nxt, payload)
            self.snd_nxt += payload
            sent = True
            if rate is not None and rate > 0:
                self._next_send_time = max(self._next_send_time, now) \
                    + payload / rate
        if sent and self._rto_deadline is None:
            # A pacing-deferred burst fired after the pipe was empty (no
            # deadline was armed when the ACK drained it): the new in-flight
            # data must still be covered by a retransmission timer.
            self._arm_rto()

    def _send_segment(self, seq: int, payload: int,
                      retransmission: bool = False) -> None:
        packet = make_data_packet(self.flow_id, self.five_tuple, seq, payload,
                                  self.ect_codepoint, self._sim.now,
                                  retransmission=retransmission)
        if self._cwr_pending and not retransmission:
            packet.cwr = True
            self._cwr_pending = False
        self.stats.sent_packets += 1
        self.stats.sent_bytes += packet.size
        if retransmission:
            self.stats.retransmitted_packets += 1
        self.path.receive(packet)

    # ------------------------------------------------------------------ #
    # ACK processing
    # ------------------------------------------------------------------ #
    def receive(self, packet: Packet) -> None:
        """Per-ACK processing shared by every windowed algorithm.

        This runs once per delivered data packet -- the single hottest
        congestion-control callback -- so the feedback extraction is inlined
        and the RTO timer is refreshed lazily (deadline bump, no per-ACK
        event churn) instead of cancel+reschedule.
        """
        if not packet.is_ack or not self.running:
            return
        now = self._sim.now
        stats = self.stats
        rtt_sample = packet.payload_info.get("data_sent_time")
        if rtt_sample is not None:
            rtt_sample = now - rtt_sample
            if rtt_sample > 0:
                stats.rtt_samples.append(rtt_sample)
            self._update_rto(rtt_sample)
            self._hystart_check(rtt_sample)
        ack_seq = packet.ack_seq
        newly_acked = ack_seq - self.snd_una
        ce_bytes_delta, ce_seen = self._extract_ecn_feedback(packet)
        if newly_acked > 0:
            self.snd_una = ack_seq
            stats.acked_bytes += newly_acked
            self._dupacks = 0
            if self._in_fast_recovery and ack_seq >= self._recovery_until:
                self._in_fast_recovery = False
        else:
            newly_acked = 0
            self._count_dupack(packet)
        if ce_seen:
            self._ce_in_round = True
            if ce_bytes_delta > 0:
                stats.ce_feedback_bytes += ce_bytes_delta
        self.on_ack(newly_acked, ce_bytes_delta, ce_seen, rtt_sample)
        if self.snd_una >= self._round_end_seq:
            self._hystart_round_check()
            self.on_round_end()
            self._ce_in_round = False
            self._round_end_seq = self.snd_nxt
        stats.cwnd_samples.append((now, self.cwnd))
        self._check_completion()
        # Send before arming: if this ACK emptied the pipe, the deadline must
        # cover the burst _try_send is about to transmit, not be cleared for
        # an idle window (which would leave lost fresh data with no timer).
        self._try_send()
        self._arm_rto()

    def _extract_ecn_feedback(self, packet: Packet) -> tuple[int, bool]:
        """Return (newly CE-marked bytes, any congestion signal seen)."""
        if self.uses_accecn and packet.accecn is not None:
            accecn = packet.accecn
            delta_bytes = accecn.ce_bytes - self._last_accecn_ce_bytes
            delta_packets = accecn.ce_packets - self._last_accecn_ce_packets
            if delta_bytes > 0:
                self._last_accecn_ce_bytes = accecn.ce_bytes
            if delta_packets > 0:
                self._last_accecn_ce_packets = accecn.ce_packets
            return max(0, delta_bytes), delta_packets > 0 or delta_bytes > 0
        if packet.ece:
            return self.mss, True
        return 0, False

    def _hystart_check(self, rtt_sample: float) -> None:
        """Track the RTT floor and the current round's minimum for HyStart."""
        if self._min_rtt_seen is None or rtt_sample < self._min_rtt_seen:
            self._min_rtt_seen = rtt_sample
        if self._round_min_rtt is None or rtt_sample < self._round_min_rtt:
            self._round_min_rtt = rtt_sample

    def _hystart_round_check(self) -> None:
        """HyStart: exit slow start once a whole round ran above the RTT floor.

        The per-round *minimum* is compared against the flow's floor so that
        isolated HARQ retransmissions or uplink-grant jitter (common on a 5G
        link even without queueing) do not trigger a premature exit.
        """
        if (not self.ENABLE_HYSTART or self.cwnd >= self.ssthresh
                or self._round_min_rtt is None or self._min_rtt_seen is None):
            self._round_min_rtt = None
            return
        threshold = self._min_rtt_seen + max(self.HYSTART_MIN_DELAY_INCREASE,
                                             self._min_rtt_seen / 8.0)
        if self._round_min_rtt > threshold:
            self.ssthresh = self.cwnd
        self._round_min_rtt = None

    def _count_dupack(self, packet: Packet) -> None:
        if packet.ack_seq != self._last_ack_seq:
            self._last_ack_seq = packet.ack_seq
            self._dupacks = 1
            return
        self._dupacks += 1
        if self._dupacks == self.DUPACK_THRESHOLD and not self._in_fast_recovery:
            self._fast_retransmit()

    def _fast_retransmit(self) -> None:
        self._in_fast_recovery = True
        self._recovery_until = self.snd_nxt
        self.stats.loss_events += 1
        self.on_loss()
        payload = self.mss
        remaining = (self.flow_bytes - self.snd_una
                     if self.flow_bytes is not None else None)
        if remaining is not None:
            payload = min(payload, max(1, remaining))
        self._send_segment(self.snd_una, payload, retransmission=True)

    # ------------------------------------------------------------------ #
    # Retransmission timeout
    # ------------------------------------------------------------------ #
    def _update_rto(self, rtt_sample: float) -> None:
        if self.srtt is None:
            self.srtt = rtt_sample
            self.rttvar = rtt_sample / 2
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - rtt_sample)
            self.srtt = 0.875 * self.srtt + 0.125 * rtt_sample
        self.rto = max(ms(200), self.srtt + 4 * self.rttvar)

    def _arm_rto(self) -> None:
        """Refresh the retransmission deadline.

        Called on every ACK, so in the common case it must not touch the
        event heap: the deadline is just a float, and a single standing timer
        event checks it when it fires, rescheduling itself if ACKs have
        pushed the deadline out in the meantime (the classic lazy-timer
        pattern).  Only when the deadline moves *earlier* than the standing
        event's horizon (the RTO estimate shrank, e.g. the first real RTT
        sample or recovery after exponential backoff) is the event
        rescheduled, so the timeout always fires at the true deadline.
        """
        if not self.running or self.inflight <= 0:
            self._rto_deadline = None
            return
        rto = self.rto
        if rto < 0.2:
            rto = 0.2
        deadline = self._sim.now + rto
        self._rto_deadline = deadline
        if self._rto_event is None:
            self._rto_event = self._sim.schedule(rto, self._rto_timer)
            self._rto_event_time = deadline
        elif deadline < self._rto_event_time:
            self._sim.cancel(self._rto_event)
            self._rto_event = self._sim.schedule(rto, self._rto_timer)
            self._rto_event_time = deadline

    def _rto_timer(self) -> None:
        self._rto_event = None
        deadline = self._rto_deadline
        if deadline is None or not self.running or self.inflight <= 0:
            return
        now = self._sim.now
        if now < deadline:
            # ACKs moved the deadline since this event was scheduled.
            self._rto_event = self._sim.schedule(deadline - now,
                                                 self._rto_timer)
            self._rto_event_time = deadline
            return
        self._on_rto()

    def _on_rto(self) -> None:
        if not self.running or self.inflight <= 0:
            return
        self.stats.timeouts += 1
        self.ssthresh = max(self.inflight / 2.0,
                            self.MIN_CWND_SEGMENTS * self.mss)
        self.cwnd = float(self.mss)
        self.snd_nxt = self.snd_una
        self._in_fast_recovery = False
        self.on_timeout()
        self.rto = min(self.rto * 2, 10.0)
        self._send_segment(self.snd_una,
                           min(self.mss, self._bytes_remaining() or self.mss),
                           retransmission=True)
        self.snd_nxt = self.snd_una + min(
            self.mss, self._bytes_remaining() or self.mss)
        self._arm_rto()

    # ------------------------------------------------------------------ #
    # Completion
    # ------------------------------------------------------------------ #
    def _check_completion(self) -> None:
        if (self.flow_bytes is not None
                and self.stats.completion_time is None
                and self.snd_una >= self.flow_bytes):
            self.stats.completion_time = self._sim.now
            self.running = False
            self._rto_deadline = None
            if self._rto_event is not None:
                self._sim.cancel(self._rto_event)
                self._rto_event = None

    # ------------------------------------------------------------------ #
    # Hooks for algorithm subclasses
    # ------------------------------------------------------------------ #
    def on_ack(self, newly_acked: int, ce_bytes: int, ce_seen: bool,
               rtt_sample: Optional[float]) -> None:
        """Per-ACK window update."""

    def on_round_end(self) -> None:
        """Called once per round-trip (when ``snd_una`` passes the round marker)."""

    def on_loss(self) -> None:
        """Called on a fast-retransmit loss event."""

    def on_timeout(self) -> None:
        """Called on a retransmission timeout (after the generic state reset)."""

    # ------------------------------------------------------------------ #
    # Helpers shared by classic-ECN algorithms
    # ------------------------------------------------------------------ #
    def signal_cwr(self) -> None:
        """Arrange for the next data packet to carry the CWR flag."""
        self._cwr_pending = True


class RateSender(Sender):
    """Paced sender transmitting at an explicit rate (bytes per second)."""

    __slots__ = ("rate", "min_rate", "max_rate", "protocol", "next_seq",
                 "_send_event")

    def __init__(self, sim: Simulator, flow_id: int, five_tuple: FiveTuple,
                 path: PacketSink, mss: int = DEFAULT_MSS,
                 flow_bytes: Optional[int] = None,
                 initial_rate: float = 125_000.0,
                 min_rate: float = 12_500.0,
                 max_rate: float = 12_500_000.0,
                 protocol: str = "udp") -> None:
        super().__init__(sim, flow_id, five_tuple, path, mss, flow_bytes)
        self.rate = initial_rate
        self.min_rate = min_rate
        self.max_rate = max_rate
        self.protocol = protocol
        self.next_seq = 0
        self._send_event: Optional[list] = None

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        self.running = True
        self.stats.start_time = self._sim.now
        self._schedule_next_send(0.0)

    def stop(self) -> None:
        super().stop()
        if self._send_event is not None:
            self._sim.cancel(self._send_event)
            self._send_event = None

    def set_rate(self, rate: float) -> None:
        """Clamp and apply a new sending rate."""
        self.rate = min(self.max_rate, max(self.min_rate, rate))
        self.stats.rate_samples.append((self._sim.now, self.rate))

    # ------------------------------------------------------------------ #
    def _schedule_next_send(self, delay: float) -> None:
        if not self.running:
            return
        self._send_event = self._sim.schedule(delay, self._send_next)

    def _send_next(self) -> None:
        if not self.running:
            return
        remaining = (None if self.flow_bytes is None
                     else max(0, self.flow_bytes - self.next_seq))
        if remaining is not None and remaining <= 0:
            if self.stats.completion_time is None:
                self.stats.completion_time = self._sim.now
            self.running = False
            return
        payload = self.mss if remaining is None else min(self.mss, remaining)
        packet = make_data_packet(self.flow_id, self.five_tuple, self.next_seq,
                                  payload, self.ect_codepoint, self._sim.now,
                                  protocol=self.protocol)
        self._decorate_packet(packet)
        self.next_seq += payload
        self.stats.sent_packets += 1
        self.stats.sent_bytes += packet.size
        self.path.receive(packet)
        interval = (payload + HEADER_BYTES) / max(self.rate, 1.0)
        self._schedule_next_send(interval)

    def _decorate_packet(self, packet: Packet) -> None:
        """Subclasses may add application payload metadata to data packets."""

    # ------------------------------------------------------------------ #
    def receive(self, packet: Packet) -> None:
        """Rate senders interpret feedback in subclasses."""
