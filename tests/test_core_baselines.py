"""Tests for the TC-RAN and in-RAN DualPi2 baseline markers."""

from __future__ import annotations

from repro.core.factory import make_marker, marker_names
from repro.core.l4span import L4SpanLayer
from repro.core.ran_dualpi2 import RanDualPi2Marker
from repro.core.tcran import TcRanMarker
from repro.net.ecn import ECN
from repro.net.packet import make_data_packet
from repro.ran.f1u import DeliveryStatus
from repro.ran.marker import NoopMarker
from repro.sim.engine import Simulator
from repro.units import ms
import pytest


def drive_marker(marker, five_tuple, packets=200, interval=0.001,
                 transmit_lag=80, ecn=ECN.ECT1):
    """Push packets through a marker with the RLC lagging ``transmit_lag`` behind."""
    marked = 0
    for i in range(packets):
        now = i * interval
        packet = make_data_packet(0, five_tuple, i * 1440, 1400, ecn, now)
        marker.on_downlink_packet(packet, 0, 1, now)
        if i >= transmit_lag:
            marker.on_ran_feedback(DeliveryStatus(0, 1, i - transmit_lag, None,
                                                  now), now)
        marked += packet.ecn == ECN.CE
    return marked


class TestTcRan:
    def test_persistent_sojourn_triggers_marking(self, sim, five_tuple):
        marker = TcRanMarker(sim, target=ms(5), interval=ms(20))
        marked = drive_marker(marker, five_tuple, transmit_lag=80)
        assert marker.marked_packets > 0
        assert marked == marker.marked_packets

    def test_low_sojourn_never_marks(self, sim, five_tuple):
        marker = TcRanMarker(sim, target=ms(5), interval=ms(20))
        marked = drive_marker(marker, five_tuple, transmit_lag=1)
        assert marked == 0

    def test_not_ect_packets_never_marked(self, sim, five_tuple):
        marker = TcRanMarker(sim, target=ms(5), interval=ms(20))
        marked = drive_marker(marker, five_tuple, transmit_lag=80,
                              ecn=ECN.NOT_ECT)
        assert marked == 0

    def test_marking_stops_when_queue_drains(self, sim, five_tuple):
        marker = TcRanMarker(sim, target=ms(5), interval=ms(20))
        drive_marker(marker, five_tuple, transmit_lag=80)
        state = marker._drbs[next(iter(marker._drbs))]
        # Simulate the queue having drained: the measured sojourn collapses and
        # the next (duplicate) report carries no newly-transmitted packets.
        state.recent_sojourn = 0.0
        already_reported = state.profile.highest_txed_sn
        marker.on_ran_feedback(DeliveryStatus(0, 1, already_reported, None,
                                              1.0), 1.0)
        assert not state.marking


class TestRanDualPi2:
    def test_deep_queue_marks_l4s_packets(self, sim, five_tuple):
        marker = RanDualPi2Marker(sim, l4s_threshold=ms(1))
        marked = drive_marker(marker, five_tuple, transmit_lag=80)
        assert marked > 0

    def test_threshold_10ms_marks_less_than_1ms(self, five_tuple):
        marked_1ms = drive_marker(RanDualPi2Marker(Simulator(seed=1),
                                                   l4s_threshold=ms(1)),
                                  five_tuple, transmit_lag=20)
        marked_10ms = drive_marker(RanDualPi2Marker(Simulator(seed=1),
                                                    l4s_threshold=ms(10)),
                                   five_tuple, transmit_lag=20)
        assert marked_10ms <= marked_1ms

    def test_classic_marking_driven_by_pi_controller(self, sim, five_tuple):
        marker = RanDualPi2Marker(sim, l4s_threshold=ms(1))
        marked = drive_marker(marker, five_tuple, packets=2000,
                              transmit_lag=800, ecn=ECN.ECT0)
        state = marker._drbs[next(iter(marker._drbs))]
        # The PI controller must have reacted to the persistent sojourn, and
        # with a long enough run its squared probability produces marks.
        assert state.core.p_prime > 0
        assert marked > 0


class TestMarkerFactory:
    def test_all_names_construct(self, sim):
        for name in marker_names():
            marker = make_marker(name, sim)
            assert hasattr(marker, "on_downlink_packet")

    def test_none_gives_noop(self, sim):
        assert isinstance(make_marker("none", sim), NoopMarker)

    def test_l4span_gives_layer(self, sim):
        assert isinstance(make_marker("l4span", sim), L4SpanLayer)

    def test_unknown_rejected(self, sim):
        with pytest.raises(KeyError):
            make_marker("magic", sim)
