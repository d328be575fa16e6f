"""Tests for the assembled gNB, UE context and 5G core routing."""

from __future__ import annotations

import pytest

from repro.channel.static import StaticChannel
from repro.net.base import CollectorSink
from repro.net.ecn import ECN
from repro.net.packet import make_ack_packet, make_data_packet
from repro.ran.core import FiveGCore
from repro.ran.gnb import GNodeB
from repro.ran.marker import NoopMarker
from repro.ran.ue import UeConfig, UeContext


def _attach_ue(sim, gnb, ue_id=0, separate_drbs=True):
    ue = UeContext(sim, UeConfig(ue_id=ue_id, separate_drbs=separate_drbs),
                   StaticChannel(snr_db=22))
    gnb.attach_ue(ue)
    return ue


class TestGnbDataPath:
    def test_downlink_packet_reaches_ue_receiver(self, sim, five_tuple):
        gnb = GNodeB(sim)
        ue = _attach_ue(sim, gnb)
        sink = CollectorSink()
        ue.register_receiver(0, sink)
        packet = make_data_packet(0, five_tuple, 0, 1400, ECN.ECT1, 0.0)
        gnb.receive_downlink(packet, ue_id=0)
        sim.run(until=0.2)
        gnb.stop()
        assert len(sink) == 1
        assert "ue_delivered" in sink.received[0].timestamps

    def test_l4s_and_classic_use_separate_drbs(self, sim, five_tuple):
        gnb = GNodeB(sim)
        ue = _attach_ue(sim, gnb)
        ue.set_default_receiver(CollectorSink())
        l4s = make_data_packet(0, five_tuple, 0, 1400, ECN.ECT1, 0.0)
        classic = make_data_packet(1, five_tuple, 0, 1400, ECN.ECT0, 0.0)
        gnb.receive_downlink(l4s, 0)
        gnb.receive_downlink(classic, 0)
        sim.run(until=0.005)
        lengths = gnb.rlc_queue_lengths()
        gnb.stop()
        assert set(lengths) == {"ue0/drb1", "ue0/drb2"}

    def test_shared_drb_configuration(self, sim, five_tuple):
        gnb = GNodeB(sim)
        ue = _attach_ue(sim, gnb, separate_drbs=False)
        ue.set_default_receiver(CollectorSink())
        packet = make_data_packet(0, five_tuple, 0, 1400, ECN.ECT0, 0.0)
        gnb.receive_downlink(packet, 0)
        assert list(gnb.rlc_queue_lengths()) == ["ue0/drb1"]
        gnb.stop()

    def test_marker_sees_all_three_events(self, sim, five_tuple):
        gnb = GNodeB(sim)
        marker = NoopMarker()
        gnb.set_marker(marker)
        ue = _attach_ue(sim, gnb)
        sink = CollectorSink()
        ue.register_receiver(0, sink)
        gnb.cu.uplink_sink = CollectorSink().receive
        data = make_data_packet(0, five_tuple, 0, 1400, ECN.ECT1, 0.0)
        gnb.receive_downlink(data, 0)
        sim.run(until=0.2)
        ack = make_ack_packet(data, 1400, sim.now)
        ue.send_uplink(ack)
        sim.run(until=0.4)
        gnb.stop()
        assert marker.downlink_packets == 1
        assert marker.feedback_messages >= 1
        assert marker.uplink_packets == 1

    def test_unknown_ue_rejected(self, sim, five_tuple):
        gnb = GNodeB(sim)
        packet = make_data_packet(0, five_tuple, 0, 1400, ECN.ECT1, 0.0)
        with pytest.raises(KeyError):
            gnb.receive_downlink(packet, ue_id=99)
        gnb.stop()

    def test_duplicate_attach_rejected(self, sim):
        gnb = GNodeB(sim)
        _attach_ue(sim, gnb, ue_id=1)
        with pytest.raises(ValueError):
            _attach_ue(sim, gnb, ue_id=1)
        gnb.stop()


class TestUeContext:
    def test_uplink_requires_attachment(self, sim, five_tuple):
        ue = UeContext(sim, UeConfig(ue_id=0), StaticChannel())
        data = make_data_packet(0, five_tuple, 0, 100, ECN.ECT1, 0.0)
        with pytest.raises(RuntimeError):
            ue.send_uplink(make_ack_packet(data, 100, 0.0))

    def test_uplink_delay_is_positive_and_load_dependent(self, sim,
                                                         five_tuple):
        def uplink_delays(cell_ues):
            gnb = GNodeB(sim, name=f"gnb{cell_ues}")
            ue = _attach_ue(sim, gnb)
            for ue_id in range(1, cell_ues):
                _attach_ue(sim, gnb, ue_id=ue_id)
            arrivals = []
            ue.uplink_sink = lambda packet, ue_id: arrivals.append(sim.now)
            data = make_data_packet(0, five_tuple, 0, 100, ECN.ECT1, 0.0)
            start = sim.now
            for _ in range(100):
                ue.send_uplink(make_ack_packet(data, 100, start))
            sim.run(until=start + 1.0)
            gnb.stop()
            return [arrival - start for arrival in arrivals]

        single = uplink_delays(1)
        loaded = uplink_delays(64)
        assert len(single) == len(loaded) == 100
        assert all(d >= 0.004 for d in single)
        assert (sum(loaded) / len(loaded)) > (sum(single) / len(single))

    def test_unregistered_flow_goes_to_default_receiver(self, sim, five_tuple):
        gnb = GNodeB(sim)
        ue = _attach_ue(sim, gnb)
        default = CollectorSink()
        ue.set_default_receiver(default)
        packet = make_data_packet(42, five_tuple, 0, 1400, ECN.ECT1, 0.0)
        gnb.receive_downlink(packet, 0)
        sim.run(until=0.2)
        gnb.stop()
        assert len(default) == 1


class TestFiveGCore:
    def test_downlink_routing_by_destination_ip(self, sim, five_tuple):
        gnb = GNodeB(sim)
        ue = _attach_ue(sim, gnb)
        sink = CollectorSink()
        ue.register_receiver(0, sink)
        core = FiveGCore(sim)
        core.register_ue_address(five_tuple.dst_ip, gnb, 0)
        core.receive(make_data_packet(0, five_tuple, 0, 1400, ECN.ECT1, 0.0))
        sim.run(until=0.2)
        gnb.stop()
        assert len(sink) == 1

    def test_unknown_destination_raises(self, sim, five_tuple):
        core = FiveGCore(sim)
        with pytest.raises(KeyError):
            core.receive(make_data_packet(0, five_tuple, 0, 100, ECN.ECT1, 0.0))

    def test_uplink_routed_per_flow(self, sim, five_tuple):
        core = FiveGCore(sim)
        flow_sink, default_sink = CollectorSink(), CollectorSink()
        core.register_uplink_route(7, flow_sink)
        core.set_default_uplink(default_sink)
        data = make_data_packet(7, five_tuple, 0, 100, ECN.ECT1, 0.0)
        core.receive_uplink(make_ack_packet(data, 100, 0.0))
        other = make_data_packet(8, five_tuple, 0, 100, ECN.ECT1, 0.0)
        core.receive_uplink(make_ack_packet(other, 100, 0.0))
        sim.run()
        assert len(flow_sink) == 1
        assert len(default_sink) == 1
