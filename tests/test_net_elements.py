"""Tests for queues, links, pipes and the bottleneck router."""

from __future__ import annotations

import pytest

from repro.net.base import CollectorSink, NullSink, Tap
from repro.net.ecn import ECN
from repro.net.link import Link
from repro.net.packet import make_data_packet
from repro.net.pipe import DelayPipe
from repro.net.queueing import DropTailQueue
from repro.net.router import BottleneckRouter
from repro.units import mbps


def _packet(five_tuple, seq=0, payload=1000):
    return make_data_packet(0, five_tuple, seq, payload, ECN.ECT1, 0.0)


class TestDropTailQueue:
    def test_fifo_order(self, five_tuple):
        queue = DropTailQueue()
        first, second = _packet(five_tuple, 0), _packet(five_tuple, 1000)
        queue.enqueue(first)
        queue.enqueue(second)
        assert queue.dequeue() is first
        assert queue.dequeue() is second
        assert queue.dequeue() is None

    def test_packet_limit_drops_excess(self, five_tuple):
        queue = DropTailQueue(max_packets=2)
        assert queue.enqueue(_packet(five_tuple))
        assert queue.enqueue(_packet(five_tuple))
        assert not queue.enqueue(_packet(five_tuple))
        assert queue.dropped_packets == 1

    def test_byte_limit_drops_excess(self, five_tuple):
        queue = DropTailQueue(max_bytes=1500)
        assert queue.enqueue(_packet(five_tuple, payload=1000))
        assert not queue.enqueue(_packet(five_tuple, payload=1000))

    def test_byte_accounting(self, five_tuple):
        queue = DropTailQueue()
        packet = _packet(five_tuple, payload=1000)
        queue.enqueue(packet)
        assert queue.bytes == packet.size
        queue.dequeue()
        assert queue.bytes == 0

    def test_clear(self, five_tuple):
        queue = DropTailQueue()
        queue.enqueue(_packet(five_tuple))
        queue.clear()
        assert queue.empty and queue.bytes == 0


class TestDelayPipe:
    def test_delivers_after_fixed_delay(self, sim, five_tuple):
        sink = CollectorSink()
        pipe = DelayPipe(sim, 0.25, sink=sink)
        pipe.receive(_packet(five_tuple))
        sim.run(until=0.2)
        assert len(sink) == 0
        sim.run(until=0.3)
        assert len(sink) == 1

    def test_zero_delay_delivers_immediately(self, sim, five_tuple):
        sink = CollectorSink()
        DelayPipe(sim, 0.0, sink=sink).receive(_packet(five_tuple))
        assert len(sink) == 1

    def test_sinkless_pipe_raises_naming_the_pipe(self, sim, five_tuple):
        pipe = DelayPipe(sim, 0.25, name="wan-dl-3")
        with pytest.raises(RuntimeError, match="wan-dl-3"):
            pipe.receive(_packet(five_tuple))
        assert pipe.forwarded_packets == 0
        assert sim.run() == 0

    def test_sink_assigned_before_traffic_receives_it(self, sim, five_tuple):
        pipe = DelayPipe(sim, 0.25)
        sink = CollectorSink()
        pipe.sink = sink
        pipe.receive(_packet(five_tuple))
        sim.run()
        assert len(sink) == 1
        assert pipe.forwarded_packets == 1


class TestLink:
    def test_serialization_delay_matches_rate(self, sim, five_tuple):
        sink = CollectorSink()
        link = Link(sim, rate=10_000, sink=sink)  # 10 kB/s
        link.receive(_packet(five_tuple, payload=960))  # 1000 B total
        sim.run()
        assert len(sink) == 1
        assert abs(sim.now - 0.1) < 1e-9

    def test_back_to_back_packets_queue(self, sim, five_tuple):
        sink = CollectorSink()
        link = Link(sim, rate=10_000, sink=sink)
        link.receive(_packet(five_tuple, 0, payload=960))
        link.receive(_packet(five_tuple, 1000, payload=960))
        sim.run(until=0.15)
        assert len(sink) == 1
        sim.run(until=0.25)
        assert len(sink) == 2

    def test_propagation_delay_added_after_serialization(self, sim, five_tuple):
        sink = CollectorSink()
        link = Link(sim, rate=10_000, delay=1.0, sink=sink)
        link.receive(_packet(five_tuple, payload=960))
        sim.run(until=1.05)
        assert len(sink) == 0
        sim.run(until=1.2)
        assert len(sink) == 1

    def test_queue_limit_drops(self, sim, five_tuple):
        link = Link(sim, rate=1_000, sink=NullSink(), queue_packets=1)
        for i in range(5):
            link.receive(_packet(five_tuple, i * 1000))
        assert link.queue.dropped_packets >= 2


class TestBottleneckRouter:
    def test_throttling_builds_queue(self, sim, five_tuple):
        sink = NullSink()
        router = BottleneckRouter(sim, rate=mbps(100), sink=sink)
        router.set_rate(mbps(0.1))
        for i in range(20):
            router.receive(_packet(five_tuple, i * 1000))
        sim.run(until=0.1)
        assert router.queued_bytes > 0

    def test_tap_observes_packets(self, sim, five_tuple):
        seen = []
        sink = CollectorSink()
        tap = Tap(seen.append, sink=sink)
        tap.receive(_packet(five_tuple))
        assert len(seen) == 1 and len(sink) == 1
