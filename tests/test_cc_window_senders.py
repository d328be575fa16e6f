"""Tests for the window-based congestion-control senders.

Each sender is exercised against a simple in-memory path: data packets go to
a TCP receiver after a fixed one-way delay, ACKs come back after the same
delay.  The bottleneck is emulated with a serialising Link so that queueing
and marking behaviour can be controlled precisely.
"""

from __future__ import annotations

import pytest

from repro.aqm.step import StepMarker
from repro.cc.bbr import BbrSender
from repro.cc.bbrv2 import Bbr2Sender
from repro.cc.cubic import CubicSender
from repro.cc.factory import make_receiver, make_sender
from repro.cc.prague import PragueSender
from repro.cc.receiver import TcpReceiver
from repro.cc.reno import RenoSender
from repro.net.ecn import ECN
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.pipe import DelayPipe
from repro.registry import CC_SENDERS
from repro.units import mbps, ms


class LoopbackPath:
    """Server -> (link with optional AQM) -> delay -> receiver -> delay -> server."""

    def __init__(self, sim, sender_cls, rtt=0.04, rate_mbps=20.0, aqm=None,
                 flow_bytes=None, five_tuple=None, queue_packets=None):
        from repro.net.addresses import FiveTuple
        self.sim = sim
        five_tuple = five_tuple or FiveTuple("10.0.0.1", 443, "10.1.0.2",
                                             50_000, "tcp")
        self.link = Link(sim, rate=mbps(rate_mbps), aqm=aqm,
                         queue_packets=queue_packets, name="bottleneck")
        forward_delay = DelayPipe(sim, rtt / 2)
        self.sender = sender_cls(sim, 0, five_tuple, path=self.link,
                                 flow_bytes=flow_bytes)
        reverse = DelayPipe(sim, rtt / 2, sink=_Call(self.sender.receive))
        self.receiver = TcpReceiver(sim, 0, send_feedback=reverse.receive,
                                    accecn=self.sender.uses_accecn)
        forward_delay.sink = _Call(self.receiver.receive)
        self.link.sink = forward_delay

    def run(self, duration):
        self.sim.schedule_at(0.0, self.sender.start)
        self.sim.run(until=duration)
        return self.sender


class _Call:
    def __init__(self, fn):
        self._fn = fn

    def receive(self, packet: Packet) -> None:
        self._fn(packet)


class _BlackholePath:
    """A sink that delivers nothing: every segment vanishes in flight."""

    def receive(self, packet: Packet) -> None:
        pass


class TestRtoTimer:
    def test_rto_fires_when_acks_stop(self, sim):
        from repro.net.addresses import FiveTuple
        sender = RenoSender(sim, 0, FiveTuple("10.0.0.1", 443, "10.1.0.2",
                                              50_000, "tcp"),
                            path=_BlackholePath())
        sender.start()
        sim.run(until=5.0)
        assert sender.stats.timeouts >= 2  # initial 1 s RTO, then backoff

    def test_shrunk_rto_reschedules_standing_timer(self, sim):
        """When the measured RTO drops below the armed horizon (initial 1 s
        estimate, or after exponential backoff), the timeout must fire at the
        new, earlier deadline -- not at the stale event's."""
        from repro.net.addresses import FiveTuple
        from repro.net.packet import make_ack_packet, make_data_packet
        five_tuple = FiveTuple("10.0.0.1", 443, "10.1.0.2", 50_000, "tcp")
        sender = RenoSender(sim, 0, five_tuple, path=_BlackholePath())
        sender.start()  # arms the timer with the initial rto = 1.0 s

        def ack_first_segment():
            data = make_data_packet(0, five_tuple, 0, sender.mss, ECN.ECT0,
                                    now=0.0)
            sender.receive(make_ack_packet(data, ack_seq=sender.mss,
                                           now=sim.now))

        # One ACK with a 10 ms RTT at t=10ms drops rto to its 200 ms floor;
        # afterwards the path stays black-holed.
        sim.schedule_at(0.010, ack_first_segment)
        sim.run(until=0.3)
        # The timeout fired at ~0.21 s (ACK time + 200 ms floor), well before
        # the stale 1.0 s horizon, and backoff then doubled the 0.2 s rto.
        assert sender.stats.timeouts == 1
        assert sender.rto == pytest.approx(0.4)

    def test_pacing_deferred_burst_after_idle_arms_rto(self, sim):
        """An ACK that empties the pipe while pacing defers the next burst
        leaves no deadline armed; the deferred send itself must re-arm the
        RTO or a lost burst would stall the flow forever."""
        from repro.net.addresses import FiveTuple
        from repro.net.packet import make_ack_packet, make_data_packet
        five_tuple = FiveTuple("10.0.0.1", 443, "10.1.0.2", 50_000, "tcp")
        sender = RenoSender(sim, 0, five_tuple, path=_BlackholePath())
        sender.start()
        sender.srtt = 0.05  # enable pacing
        sender._next_send_time = sim.now + 0.01  # defer the next burst
        data = make_data_packet(0, five_tuple, 0, sender.mss, ECN.ECT0, 0.0)
        sender.receive(make_ack_packet(data, ack_seq=sender.snd_nxt,
                                       now=sim.now))
        assert sender.inflight == 0
        assert sender._rto_deadline is None
        assert sender._pacing_timer is not None
        sim.run(until=0.02)  # pacing timer fires and transmits
        assert sender.inflight > 0
        assert sender._rto_deadline is not None


class TestGenericWindowMachinery:
    def test_sender_fills_the_pipe(self, sim):
        sender = LoopbackPath(sim, PragueSender, rate_mbps=10).run(3.0)
        goodput_mbps = sender.stats.acked_bytes * 8 / 1e6 / 3.0
        assert goodput_mbps > 7.0

    def test_finite_flow_completes(self, sim):
        path = LoopbackPath(sim, CubicSender, rate_mbps=20,
                            flow_bytes=200_000)
        sender = path.run(5.0)
        assert sender.completed
        assert sender.stats.completion_time < 2.0

    def test_rtt_estimate_close_to_configured(self, sim):
        # A small finite flow stays application-limited, so the measured RTT
        # is the configured propagation RTT rather than self-induced queueing.
        path = LoopbackPath(sim, RenoSender, rtt=0.05, rate_mbps=50,
                            flow_bytes=60_000)
        sender = path.run(2.0)
        assert sender.srtt == pytest.approx(0.05, abs=0.02)

    def test_stop_halts_transmission(self, sim):
        path = LoopbackPath(sim, PragueSender, rate_mbps=10)
        sim.schedule_at(1.0, path.sender.stop)
        path.run(3.0)
        sent_at_stop = path.sender.stats.sent_packets
        sim.run(until=3.5)
        assert path.sender.stats.sent_packets == sent_at_stop

    def test_inflight_never_exceeds_window_plus_one_segment(self, sim):
        path = LoopbackPath(sim, RenoSender, rate_mbps=5)
        violations = []
        original = path.sender._send_segment

        def checked(seq, payload, retransmission=False):
            if path.sender.inflight > path.sender._window_limit() + path.sender.mss:
                violations.append(path.sender.inflight)
            original(seq, payload, retransmission)

        path.sender._send_segment = checked
        path.run(2.0)
        assert not violations


class TestFastRetransmit:
    """A few-packet drop-tail queue overflows in slow start; three dupACKs
    then trigger each sender's ``on_loss`` reaction."""

    @pytest.mark.parametrize("sender_cls, beta, queue_packets", [
        (RenoSender, RenoSender.BETA, 8),
        (CubicSender, CubicSender.BETA, 8),
        # BBR v1 keeps its model on isolated losses; the shorter queue also
        # drops once the model is built.
        (BbrSender, None, 6),
    ])
    def test_loss_reaction(self, sim, sender_cls, beta, queue_packets):
        path = LoopbackPath(sim, sender_cls, rate_mbps=10,
                            queue_packets=queue_packets)
        sender = path.sender
        reactions = []
        react = sender.on_loss

        def state():
            return sender.cwnd, sender.ssthresh, getattr(sender, "btl_bw", None)

        def recording_on_loss():
            before = state()
            react()
            reactions.append((before, state()))

        sender.on_loss = recording_on_loss
        path.run(2.0)
        assert path.link.queue.dropped_packets > 0
        assert reactions and len(reactions) == sender.stats.loss_events
        for before, after in reactions:
            if beta is None:
                assert after == before
            else:
                cut = max(before[0] * beta, sender.MIN_CWND_SEGMENTS * sender.mss)
                assert after[:2] == (pytest.approx(cut), pytest.approx(cut))
        if beta is None:
            assert any(btl_bw > 0 for (_, _, btl_bw), _ in reactions)
        assert sender.stats.congestion_events == (
            0 if beta is None else len(reactions))


class TestEcnResponses:
    def _run_with_marking(self, sim, sender_cls, threshold_ms=1.0):
        aqm = StepMarker(threshold=ms(threshold_ms))
        path = LoopbackPath(sim, sender_cls, rate_mbps=10, aqm=aqm)
        sender = path.run(4.0)
        return sender, aqm

    def test_prague_reacts_to_marks_with_low_queue(self, sim):
        sender, aqm = self._run_with_marking(sim, PragueSender)
        assert aqm.marked > 0
        assert sender.stats.congestion_events > 0
        # Prague holds cwnd near the BDP instead of filling the buffer.
        bdp = mbps(10) * 0.04
        assert sender.cwnd < 4 * bdp

    def test_prague_alpha_tracks_marking(self, sim):
        sender, _ = self._run_with_marking(sim, PragueSender)
        assert 0.0 < sender.alpha <= 1.0

    def test_cubic_cuts_on_classic_ecn_echo(self, sim):
        sender, aqm = self._run_with_marking(sim, CubicSender)
        assert sender.stats.congestion_events > 0

    def test_cubic_sets_cwr_after_reduction(self, sim):
        path = LoopbackPath(sim, CubicSender, rate_mbps=10,
                            aqm=StepMarker(threshold=ms(1)))
        original = path.sender._send_segment

        def spy(seq, payload, retransmission=False):
            original(seq, payload, retransmission)

        path.sender._send_segment = spy
        sender = path.run(4.0)
        # The receiver stops echoing ECE only after it sees CWR, so if CWR
        # were never sent the sender would keep reducing forever and starve.
        assert sender.stats.acked_bytes * 8 / 4.0 / 1e6 > 2.0

    def test_reno_halves_on_ecn(self, sim):
        sender, _ = self._run_with_marking(sim, RenoSender)
        assert sender.stats.congestion_events > 0

    def test_bbr_ignores_marks(self, sim):
        sender, aqm = self._run_with_marking(sim, BbrSender)
        assert aqm.marked > 0
        assert sender.stats.congestion_events == 0

    def test_bbr2_caps_inflight_on_marks(self, sim):
        sender, _ = self._run_with_marking(sim, Bbr2Sender)
        assert sender.stats.congestion_events > 0
        assert sender.inflight_hi is not None


class TestEcnCodepoints:
    def test_l4s_senders_use_ect1(self):
        assert PragueSender.ect_codepoint == ECN.ECT1
        assert Bbr2Sender.ect_codepoint == ECN.ECT1

    def test_classic_senders_use_ect0(self):
        assert CubicSender.ect_codepoint == ECN.ECT0
        assert RenoSender.ect_codepoint == ECN.ECT0
        assert BbrSender.ect_codepoint == ECN.ECT0


class TestFactory:
    def test_registry_contains_all_paper_algorithms(self):
        for name in ("prague", "cubic", "reno", "bbr", "bbr2", "scream",
                     "udp_prague"):
            assert name in CC_SENDERS

    def test_unknown_name_raises(self, sim, five_tuple):
        with pytest.raises(KeyError):
            make_sender("vegas", sim, 0, five_tuple, path=None)
        with pytest.raises(KeyError):
            make_receiver("vegas", sim, 0, send_feedback=lambda p: None)

    def test_make_receiver_matches_accecn_capability(self, sim):
        prague_rx = make_receiver("prague", sim, 0, send_feedback=lambda p: None)
        cubic_rx = make_receiver("cubic", sim, 0, send_feedback=lambda p: None)
        assert prague_rx.accecn_enabled
        assert not cubic_rx.accecn_enabled
