"""Tests for the packet model and ECN classification."""

from __future__ import annotations

import copy
import dataclasses
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addresses import (UE_ADDRESS_SPACE, FiveTuple, make_flow_tuple,
                                 ue_ip_address)
from repro.net.ecn import ECN, FlowClass, classify_ecn, is_ecn_capable
from repro.net.packet import (AccEcnCounters, HEADER_BYTES, Packet,
                              make_ack_packet, make_data_packet)


class TestEcnClassification:
    def test_ect1_is_l4s(self):
        assert classify_ecn(ECN.ECT1) == FlowClass.L4S

    def test_ce_is_treated_as_l4s(self):
        assert classify_ecn(ECN.CE) == FlowClass.L4S

    def test_ect0_is_classic(self):
        assert classify_ecn(ECN.ECT0) == FlowClass.CLASSIC

    def test_not_ect_is_non_ecn(self):
        assert classify_ecn(ECN.NOT_ECT) == FlowClass.NON_ECN

    def test_only_not_ect_is_not_capable(self):
        assert not is_ecn_capable(ECN.NOT_ECT)
        assert all(is_ecn_capable(cp) for cp in (ECN.ECT0, ECN.ECT1, ECN.CE))


class TestFiveTuple:
    def test_reversed_swaps_endpoints(self):
        tuple_ = FiveTuple("a", 1, "b", 2, "tcp")
        rev = tuple_.reversed()
        assert rev == FiveTuple("b", 2, "a", 1, "tcp")
        assert rev.reversed() == tuple_

    def test_hashable_and_equal_by_value(self):
        a = FiveTuple("a", 1, "b", 2, "tcp")
        b = FiveTuple("a", 1, "b", 2, "tcp")
        assert a == b
        assert len({a, b}) == 1

    def test_make_flow_tuple_unique_per_flow(self):
        tuples = {make_flow_tuple(i) for i in range(50)}
        assert len(tuples) == 50
        assert make_flow_tuple(0) == FiveTuple("10.0.0.1", 443, "10.45.0.2",
                                               50_000, "tcp")

    def test_ue_addresses_are_one_per_ue(self):
        """Ids below 250 keep ``10.45.0.{id+2}``; past that the next /24
        takes over, so no two UEs in the address space share an address."""
        assert all(ue_ip_address(i) == f"10.45.0.{i + 2}" for i in range(250))
        assert ue_ip_address(250) == "10.45.1.2"
        assert UE_ADDRESS_SPACE == 64_000
        assert len({ue_ip_address(i) for i in range(64_000)}) == 64_000


class TestPacket:
    def test_data_packet_sizes(self, five_tuple):
        packet = make_data_packet(0, five_tuple, 0, 1400, ECN.ECT1, 0.0)
        assert packet.size == 1400 + HEADER_BYTES
        assert packet.payload_bytes == 1400
        assert packet.end_seq == 1400

    def test_packet_ids_are_unique(self, five_tuple):
        a = make_data_packet(0, five_tuple, 0, 100, ECN.ECT1, 0.0)
        b = make_data_packet(0, five_tuple, 100, 100, ECN.ECT1, 0.0)
        assert a.packet_id != b.packet_id

    def test_mark_ce_on_capable_packet(self, five_tuple):
        packet = make_data_packet(0, five_tuple, 0, 100, ECN.ECT1, 0.0)
        assert packet.mark_ce(by="test")
        assert packet.ecn == ECN.CE
        assert packet.marked_by == "test"

    def test_mark_ce_on_not_ect_fails(self, five_tuple):
        packet = make_data_packet(0, five_tuple, 0, 100, ECN.NOT_ECT, 0.0)
        assert not packet.mark_ce(by="test")
        assert packet.ecn == ECN.NOT_ECT

    def test_elapsed_between_stamps(self, five_tuple):
        packet = make_data_packet(0, five_tuple, 0, 100, ECN.ECT1, 0.0)
        packet.timestamps["a"] = 1.0
        packet.timestamps["b"] = 1.5
        assert packet.elapsed("a", "b") == 0.5
        assert packet.elapsed("a", "missing") is None

    def test_ack_packet_reverses_tuple_and_copies_counters(self, five_tuple):
        data = make_data_packet(3, five_tuple, 0, 1400, ECN.ECT1, 1.0)
        counters = AccEcnCounters(ce_packets=2, ce_bytes=2880)
        ack = make_ack_packet(data, ack_seq=1400, now=1.05, accecn=counters)
        assert ack.is_ack
        assert ack.five_tuple == five_tuple.reversed()
        assert ack.ack_seq == 1400
        assert ack.accecn.ce_bytes == 2880
        assert ack.accecn is not counters  # must be an independent copy
        assert ack.payload_info["data_sent_time"] == 1.0


_times = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)
_stamps = st.dictionaries(
    st.sampled_from(["router_ingress", "link_enqueue", "core_ingress",
                     "rlc_enqueue", "rlc_head", "ue_delivered"]), _times)
_tuples = st.builds(FiveTuple, src_ip=st.just("10.0.0.1"),
                    src_port=st.integers(1, 65535),
                    dst_ip=st.sampled_from(["10.45.0.2", "10.45.0.251"]),
                    dst_port=st.integers(1, 65535),
                    protocol=st.sampled_from(["tcp", "udp"]))


@st.composite
def _packets(draw):
    """Data packets and ACKs as the shard boundary sees them: stamped,
    possibly CE-marked, retransmitted, carrying AccECN counters."""
    data = make_data_packet(
        flow_id=draw(st.integers(0, 500)), five_tuple=draw(_tuples),
        seq=draw(st.integers(0, 2**40)), payload=draw(st.integers(0, 1400)),
        ecn=draw(st.sampled_from(list(ECN))), now=draw(_times),
        retransmission=draw(st.booleans()))
    if draw(st.booleans()):
        data.payload_info["app"] = {"frame": draw(st.integers(0, 99))}
    if draw(st.booleans()):
        packet = make_ack_packet(
            data, ack_seq=data.end_seq, now=draw(_times),
            ece=draw(st.booleans()),
            accecn=draw(st.none() | st.builds(
                AccEcnCounters, *[st.integers(0, 2**32)] * 4)))
    else:
        packet = data
        packet.cwr = draw(st.booleans())
        if draw(st.booleans()):
            packet.mark_ce(by="l4span")
    packet.timestamps.update(draw(_stamps))
    return packet


class TestWireFormat:
    """``Packet.__reduce__``: what crosses a shard pipe, and ``copy.copy``."""

    FIELDS = [f.name for f in dataclasses.fields(Packet)]

    def test_reduce_lists_every_field_in_dataclass_order(self, five_tuple):
        packet = make_data_packet(0, five_tuple, 0, 100, ECN.ECT1, 0.5)
        cls, args = packet.__reduce__()
        assert cls is Packet and len(args) == len(self.FIELDS) == 18
        assert list(args) == [getattr(packet, name) for name in self.FIELDS]

    @settings(max_examples=60, deadline=None)
    @given(packet=_packets(),
           protocol=st.integers(2, pickle.HIGHEST_PROTOCOL))
    def test_pickle_round_trip_field_by_field(self, packet, protocol):
        clone = pickle.loads(pickle.dumps(packet, protocol))
        assert clone is not packet and clone == packet
        for name in self.FIELDS:
            assert getattr(clone, name) == getattr(packet, name), name
            assert type(getattr(clone, name)) is type(getattr(packet, name))
        assert clone.timestamps is not packet.timestamps
        assert clone.accecn is None or clone.accecn is not packet.accecn

    @settings(max_examples=30, deadline=None)
    @given(packet=_packets())
    def test_copy_is_equal_and_as_shallow_as_it_always_was(self, packet):
        """``copy.copy`` of a slotted dataclass copies the slots and shares
        what they reference; going through ``__reduce__`` keeps both."""
        clone = copy.copy(packet)
        assert clone is not packet and clone == packet
        assert clone.timestamps is packet.timestamps
        assert clone.payload_info is packet.payload_info
        assert clone.accecn is packet.accecn
        clone.ecn = ECN.NOT_ECT if packet.ecn != ECN.NOT_ECT else ECN.CE
        assert clone.ecn != packet.ecn

    def test_ten_packet_proceed_message_fits_a_kilobyte(self, five_tuple):
        """The barrier's ``("proceed", (inbound, window_end))`` pipe message
        with ten ``mbx_in`` items: 805 bytes; this very message took 1,382
        under the default slotted-dataclass reduce."""
        inbound = [(0.11 + 1e-4 * i,
                    make_data_packet(i % 4, five_tuple, 1400 * i, 1400,
                                     ECN.ECT1, 0.1 + 1e-4 * i),
                    "mbx_in", 0) for i in range(10)]
        message = ("proceed", (inbound, 0.123))
        wire = pickle.dumps(message)
        assert len(wire) <= 1000
        assert pickle.loads(wire) == message


class TestAccEcnCounters:
    def test_add_packet_splits_by_codepoint(self):
        counters = AccEcnCounters()
        counters.add_packet(100, ECN.CE)
        counters.add_packet(200, ECN.ECT1)
        counters.add_packet(300, ECN.ECT0)
        counters.add_packet(400, ECN.NOT_ECT)
        assert counters.ce_packets == 1
        assert counters.ce_bytes == 100
        assert counters.ect1_bytes == 200
        assert counters.ect0_bytes == 300

    def test_copy_is_independent(self):
        counters = AccEcnCounters(ce_packets=1)
        clone = counters.copy()
        clone.ce_packets = 5
        assert counters.ce_packets == 1
