"""Tests for the AQM algorithms (CoDel, DualPi2 core, step marker)."""

from __future__ import annotations

import pytest

from repro.aqm.base import PassthroughAQM, sojourn_time
from repro.aqm.codel import CoDel, EcnCoDel
from repro.aqm.dualpi2 import DualPi2Core, DualPi2Router
from repro.aqm.step import StepMarker
from repro.net.base import CollectorSink
from repro.net.ecn import ECN
from repro.net.link import Link
from repro.net.packet import make_data_packet
from repro.net.queueing import DropTailQueue
from repro.sim.engine import Simulator
from repro.units import mbps, ms


def _packet(five_tuple, ecn=ECN.ECT1, enqueue_time=None, payload=1000):
    packet = make_data_packet(0, five_tuple, 0, payload, ecn, 0.0)
    if enqueue_time is not None:
        packet.timestamps["link_enqueue"] = enqueue_time
    return packet


class TestSojournHelpers:
    def test_sojourn_time_from_stamp(self, five_tuple):
        packet = _packet(five_tuple, enqueue_time=1.0)
        assert sojourn_time(packet, 1.3) == pytest.approx(0.3)

    def test_missing_stamp_gives_zero(self, five_tuple):
        assert sojourn_time(_packet(five_tuple), 5.0) == 0.0

    def test_passthrough_counts(self, five_tuple):
        aqm = PassthroughAQM()
        queue = DropTailQueue()
        aqm.on_enqueue(_packet(five_tuple), queue, 0.0)
        aqm.on_dequeue(_packet(five_tuple), queue, 0.0)
        assert aqm.enqueued == 1 and aqm.dequeued == 1


class TestStepMarker:
    def test_marks_above_threshold(self, five_tuple):
        marker = StepMarker(threshold=ms(1))
        queue = DropTailQueue()
        packet = _packet(five_tuple, enqueue_time=0.0)
        marker.on_dequeue(packet, queue, now=0.005)
        assert packet.ecn == ECN.CE

    def test_no_mark_below_threshold(self, five_tuple):
        marker = StepMarker(threshold=ms(10))
        packet = _packet(five_tuple, enqueue_time=0.0)
        marker.on_dequeue(packet, DropTailQueue(), now=0.005)
        assert packet.ecn == ECN.ECT1

    def test_probability_is_step(self):
        marker = StepMarker(threshold=ms(10))
        assert marker.mark_probability(0.005) == 0.0
        assert marker.mark_probability(0.015) == 1.0


class TestCoDel:
    def _run_persistent_queue(self, aqm, five_tuple, sojourn=0.05,
                              packets=60, spacing=0.01):
        """Dequeue a long series of packets that all waited ``sojourn``."""
        queue = DropTailQueue()
        for _ in range(5):
            queue.enqueue(_packet(five_tuple))
        outcomes = []
        for i in range(packets):
            now = i * spacing
            packet = _packet(five_tuple, enqueue_time=now - sojourn)
            outcomes.append((packet, aqm.on_dequeue(packet, queue, now)))
        return outcomes

    def test_persistent_delay_triggers_drops(self, five_tuple):
        codel = CoDel(target=ms(5), interval=ms(100))
        outcomes = self._run_persistent_queue(codel, five_tuple)
        assert codel.dropped > 0
        assert any(keep is False for _, keep in outcomes)

    def test_ecn_variant_marks_instead_of_dropping(self, five_tuple):
        codel = EcnCoDel(target=ms(5), interval=ms(100))
        outcomes = self._run_persistent_queue(codel, five_tuple)
        assert codel.marked > 0
        assert codel.dropped == 0
        assert all(keep is not False for _, keep in outcomes)
        assert any(packet.ecn == ECN.CE for packet, _ in outcomes)

    def test_short_delays_never_act(self, five_tuple):
        codel = CoDel(target=ms(5), interval=ms(100))
        outcomes = self._run_persistent_queue(codel, five_tuple,
                                              sojourn=0.001)
        assert codel.dropped == 0
        assert all(keep is not False for _, keep in outcomes)

    def test_link_runs_both_hooks(self, sim, five_tuple):
        """As a link's AQM, ECN-CoDel admits every packet and marks the
        ones that waited behind a standing queue."""
        sink = CollectorSink()
        codel = EcnCoDel(target=ms(5), interval=ms(100))
        link = Link(sim, rate=20_000, sink=sink, aqm=codel)  # 50 ms/packet
        for _ in range(20):
            link.receive(_packet(five_tuple))
        sim.run()
        assert len(sink.received) == 20
        assert codel.marked > 0 and codel.dropped == 0

    def test_marking_rate_increases_over_time(self, five_tuple):
        codel = EcnCoDel(target=ms(5), interval=ms(100))
        self._run_persistent_queue(codel, five_tuple, packets=200)
        assert codel.count > 2


class TestDualPi2Core:
    def test_probability_rises_with_persistent_delay(self):
        core = DualPi2Core(target=ms(15))
        for _ in range(50):
            core.update(classic_delay=0.05)
        assert core.p_prime > 0
        assert core.p_classic <= core.p_prime  # p^2 <= p for p in [0, 1]

    def test_probability_decays_when_delay_clears(self):
        core = DualPi2Core(target=ms(15))
        for _ in range(50):
            core.update(classic_delay=0.05)
        high = core.p_prime
        for _ in range(200):
            core.update(classic_delay=0.0)
        assert core.p_prime < high

    def test_coupled_probability_scales_with_coupling(self):
        core = DualPi2Core(coupling=2.0)
        core.p_prime = 0.1
        assert core.p_coupled == 0.2

    def test_l4s_step_dominates_when_queue_deep(self):
        core = DualPi2Core(l4s_threshold=ms(1))
        assert core.l4s_mark_probability(0.002) == 1.0
        assert core.l4s_mark_probability(0.0005) == core.p_coupled


class TestDualPi2Router:
    def test_l4s_and_classic_go_to_separate_queues(self, five_tuple):
        sim = Simulator(seed=1)
        router = DualPi2Router(sim, rate=mbps(10), sink=CollectorSink())
        router.receive(_packet(five_tuple, ecn=ECN.ECT1))
        router.receive(_packet(five_tuple, ecn=ECN.ECT0))
        # One of them is already being serialised; the other waits in its queue.
        assert router.l_queue.enqueued_packets == 1
        assert router.c_queue.enqueued_packets == 1
        router.stop()

    def test_all_packets_eventually_forwarded(self, five_tuple):
        sim = Simulator(seed=1)
        sink = CollectorSink()
        router = DualPi2Router(sim, rate=mbps(10), sink=sink)
        for i in range(20):
            ecn = ECN.ECT1 if i % 2 else ECN.ECT0
            router.receive(_packet(five_tuple, ecn=ecn))
        sim.run(until=2.0)
        router.stop()
        assert len(sink) == 20

    def test_sustained_overload_marks_l4s_packets(self, five_tuple):
        sim = Simulator(seed=1)
        sink = CollectorSink()
        router = DualPi2Router(sim, rate=mbps(2), sink=sink)

        def offer(i=0):
            router.receive(_packet(five_tuple, ecn=ECN.ECT1, payload=1200))
            if sim.now < 1.5:
                sim.schedule(0.002, offer)  # ~5 Mbit/s offered into 2 Mbit/s

        offer()
        sim.run(until=2.0)
        router.stop()
        assert router.marked_l4s > 0
