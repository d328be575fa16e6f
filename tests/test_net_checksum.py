"""Tests for the checksum helpers used by the marking datapath."""

from __future__ import annotations

import os
import struct
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.net.checksum as checksum_module
from repro.net.addresses import FiveTuple
from repro.net.checksum import (checksums_equal, checksums_valid,
                                incremental_checksum_update,
                                internet_checksum, ip_checksum_of,
                                ip_tos_word, mark_ce_with_checksum,
                                recompute_checksums, serialize_ip_header,
                                serialize_tcp_header, tcp_checksum_of,
                                tcp_rewrite_words,
                                update_checksums_after_ack_rewrite,
                                verify_checksum)
from repro.net.ecn import ECN
from repro.net.packet import (AccEcnCounters, Packet, make_ack_packet,
                              make_data_packet)


def test_internet_checksum_known_vector():
    # Classic RFC 1071 example: two words summing without carry.
    assert internet_checksum(b"\x00\x01\xf2\x03") == (~0xF204) & 0xFFFF


def test_checksum_detects_corruption():
    data = b"hello world!"
    checksum = internet_checksum(data)
    assert verify_checksum(data, checksum)
    assert not verify_checksum(b"hello worle!", checksum)


def test_odd_length_padding():
    assert internet_checksum(b"\xff") == internet_checksum(b"\xff\x00")


def test_ip_header_changes_with_ecn(five_tuple):
    packet = make_data_packet(0, five_tuple, 0, 100, ECN.ECT1, 0.0)
    before = serialize_ip_header(packet)
    packet.ecn = ECN.CE
    after = serialize_ip_header(packet)
    assert before != after


def test_mark_ce_with_checksum_keeps_headers_consistent(five_tuple):
    packet = make_data_packet(0, five_tuple, 0, 100, ECN.ECT1, 0.0)
    recompute_checksums(packet)
    assert checksums_valid(packet)
    assert mark_ce_with_checksum(packet, by="aqm")
    # the helper refreshed the IP checksum after rewriting the ECN field
    assert packet.payload_info["ip_checksum"] == ip_checksum_of(packet)


def test_stale_checksum_detected_after_manual_rewrite(five_tuple):
    packet = make_data_packet(0, five_tuple, 0, 100, ECN.ECT1, 0.0)
    recompute_checksums(packet)
    packet.ecn = ECN.CE  # rewrite without recomputing
    assert not checksums_valid(packet)


def test_tcp_checksum_covers_accecn_fields(five_tuple):
    data = make_data_packet(0, five_tuple, 0, 100, ECN.ECT1, 0.0)
    ack = make_ack_packet(data, 100, 0.1, accecn=AccEcnCounters())
    before = tcp_checksum_of(ack)
    ack.accecn.ce_bytes = 999
    assert tcp_checksum_of(ack) != before


def test_checksum_matches_reference_word_loop():
    """The memoryview fast path equals the classic per-word RFC 1071 loop."""
    import random

    def reference(data: bytes) -> int:
        if len(data) % 2:
            data += b"\x00"
        total = 0
        for (word,) in struct.iter_unpack("!H", data):
            total += word
            total = (total & 0xFFFF) + (total >> 16)
        return (~total) & 0xFFFF

    rng = random.Random(1624)
    for _ in range(500):
        data = bytes(rng.randrange(256)
                     for _ in range(rng.randrange(1, 80)))
        assert internet_checksum(data) == reference(data)


def test_checksum_negative_zero_representations_compare_equal():
    """RFC 1624 §3: 0x0000 and 0xFFFF both encode a zero sum.  Incremental
    updates and full recomputes may land on different representatives (only
    reachable for an all-zero header), so comparisons must absorb it."""
    from repro.net.checksum import checksums_equal, incremental_checksum_update

    # Rewrite a two-word header to all-zero: the full sum of zeros is
    # 0xFFFF, the incremental route lands on 0x0000.
    words = (0x0000, 0xE055)
    checksum = internet_checksum(struct.pack("!2H", *words))
    updated = incremental_checksum_update(checksum, words, (0, 0))
    full = internet_checksum(b"\x00\x00\x00\x00")
    assert {updated, full} == {0x0000, 0xFFFF}
    assert checksums_equal(updated, full)
    assert checksums_equal(0x1234, 0x1234)
    assert not checksums_equal(0x1234, 0x1235)
    assert not checksums_equal(0x0000, 0x0001)


def test_incremental_update_matches_full_recompute(five_tuple):
    """RFC 1624: updating changed words equals re-summing the header."""
    packet = make_data_packet(0, five_tuple, 0, 100, ECN.ECT1, 0.0)
    before = ip_checksum_of(packet)
    old_word = ip_tos_word(packet)
    packet.ecn = ECN.CE
    assert incremental_checksum_update(
        before, (old_word,), (ip_tos_word(packet),)) == ip_checksum_of(packet)


def test_mark_ce_incremental_path_equals_full(five_tuple):
    """Marking a packet with a stored checksum updates it incrementally
    to exactly the value a full recompute would produce."""
    packet = make_data_packet(0, five_tuple, 0, 100, ECN.ECT1, 0.0)
    recompute_checksums(packet)
    assert mark_ce_with_checksum(packet, by="aqm")
    assert packet.payload_info["ip_checksum"] == ip_checksum_of(packet)
    assert checksums_valid(packet)


def test_ack_rewrite_incremental_equals_full(five_tuple):
    """Short-circuit rewrite keeps checksums exact, with or without a
    previously stored value, for both AccECN and ECE rewrites."""
    for precompute in (False, True):
        data = make_data_packet(0, five_tuple, 0, 100, ECN.ECT1, 0.0)
        ack = make_ack_packet(data, 100, 0.1, accecn=AccEcnCounters())
        if precompute:
            recompute_checksums(ack)
        old_words = tcp_rewrite_words(ack)
        ack.accecn.ce_packets = 17
        ack.accecn.ce_bytes = 17 * 1448
        ip_sum, tcp_sum = update_checksums_after_ack_rewrite(ack, old_words)
        assert tcp_sum == tcp_checksum_of(ack)
        assert ip_sum == ip_checksum_of(ack)
        assert checksums_valid(ack)

        data = make_data_packet(0, five_tuple, 0, 100, ECN.ECT0, 0.0)
        ack = make_ack_packet(data, 100, 0.1)
        if precompute:
            recompute_checksums(ack)
        old_words = tcp_rewrite_words(ack)
        ack.ece = True
        _ip_sum, tcp_sum = update_checksums_after_ack_rewrite(ack, old_words)
        assert tcp_sum == tcp_checksum_of(ack)
        assert checksums_valid(ack)


def test_tcp_checksum_covers_ece_flag(five_tuple):
    data = make_data_packet(0, five_tuple, 0, 100, ECN.ECT0, 0.0)
    ack = make_ack_packet(data, 100, 0.1)
    before = tcp_checksum_of(ack)
    ack.ece = True
    assert tcp_checksum_of(ack) != before


# --------------------------------------------------------------------- #
# Header words: one definition, summed without bytes
def _pinned_packet(src="10.0.0.1", dst="10.45.0.2") -> Packet:
    return Packet(flow_id=0, five_tuple=FiveTuple(src, 443, dst, 50_000),
                  size=1440, ecn=ECN.ECT1, seq=2**32 + 5, ack_seq=77,
                  accecn=AccEcnCounters(1, 1440, 2880, 0), packet_id=7)


def test_header_checksums_are_pinned_constants():
    """A header is a function of the packet alone: dotted quads encode as
    their 32 bits, any other address string through CRC-32, so these values
    hold in every interpreter (``hash(str)`` made them per-process)."""
    packet = _pinned_packet()
    assert serialize_ip_header(packet).hex() == (
        "450105a0000700004006" "0000" "0a000001" "0a2d0002")
    assert (ip_checksum_of(packet), tcp_checksum_of(packet)) == (0x6121,
                                                                 0xD9B0)
    named = _pinned_packet(src="a", dst="b")
    assert serialize_ip_header(named)[12:].hex() == "e8b7be43" "71beeff9"
    assert ip_checksum_of(named) == 0x6C9D


def test_header_checksums_do_not_depend_on_the_hash_seed():
    """Two interpreters with different string-hash salts agree (a stored
    checksum must verify in a spawn-started shard worker)."""
    script = ("from test_net_checksum import _pinned_packet\n"
              "from repro.net.checksum import ip_checksum_of, tcp_checksum_of\n"
              "for p in (_pinned_packet(), _pinned_packet('a', 'b')):\n"
              "    print(ip_checksum_of(p), tcp_checksum_of(p))\n")
    here = os.path.dirname(os.path.abspath(__file__))
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       [here] + [path for path in sys.path if path]))
        outputs.append(subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True, timeout=120).stdout)
    assert outputs[0] == outputs[1]
    packet, named = _pinned_packet(), _pinned_packet("a", "b")
    assert outputs[0].split() == [
        str(value) for p in (packet, named)
        for value in (ip_checksum_of(p), tcp_checksum_of(p))]


_ADDRESSES = st.one_of(
    st.tuples(*[st.integers(0, 255)] * 4).map(
        lambda quad: ".".join(map(str, quad))),
    st.text(min_size=0, max_size=12))
_COUNTERS = st.one_of(st.none(), st.builds(
    AccEcnCounters, *[st.integers(0, 2**40)] * 4))


@st.composite
def _packets(draw) -> Packet:
    protocol = draw(st.sampled_from(["tcp", "udp"]))
    return Packet(
        flow_id=0, protocol=protocol,
        five_tuple=FiveTuple(draw(_ADDRESSES), draw(st.integers(0, 70_000)),
                             draw(_ADDRESSES), draw(st.integers(0, 70_000)),
                             protocol),
        size=draw(st.integers(0, 70_001)), ecn=draw(st.sampled_from(ECN)),
        seq=draw(st.integers(0, 2**40)), ack_seq=draw(st.integers(0, 2**40)),
        is_ack=draw(st.booleans()), ece=draw(st.booleans()),
        cwr=draw(st.booleans()), accecn=draw(_COUNTERS),
        packet_id=draw(st.integers(0, 2**20)))


@settings(max_examples=300, deadline=None)
@given(packet=_packets())
def test_word_sums_equal_the_checksum_of_the_serialised_header(packet):
    """The arithmetic sum over a header's words is exactly the RFC 1071
    checksum of the bytes those same words pack to."""
    ip_bytes = serialize_ip_header(packet)
    tcp_bytes = serialize_tcp_header(packet)
    assert len(ip_bytes) == 20
    assert len(tcp_bytes) == (20 if packet.accecn is None else 36)
    assert ip_checksum_of(packet) == internet_checksum(ip_bytes)
    assert tcp_checksum_of(packet) == internet_checksum(tcp_bytes)


@settings(max_examples=300, deadline=None)
@given(packet=_packets(), ece=st.booleans(), counters=_COUNTERS,
       precomputed=st.booleans())
def test_incremental_updates_equal_the_recompute_after_a_rewrite(
        packet, ece, counters, precomputed):
    """CE marking and an ACK rewrite leave stored checksums equal (modulo
    the one's-complement zero) to a recompute, stored beforehand or not."""
    packet.protocol = "tcp"
    if precomputed:
        recompute_checksums(packet)
    old_words = tcp_rewrite_words(packet)
    packet.ece = ece
    if packet.accecn is not None and counters is not None:
        packet.accecn = counters
    update_checksums_after_ack_rewrite(packet, old_words)
    mark_ce_with_checksum(packet, by="test")
    info = packet.payload_info
    assert checksums_equal(info["tcp_checksum"], tcp_checksum_of(packet))
    assert checksums_equal(info["ip_checksum"], ip_checksum_of(packet))
    assert checksums_valid(packet)


def test_packet_path_never_serialises_a_header(monkeypatch):
    """The per-packet path is byte-free: a Prague + L4Span run completes,
    short-circuiting ACKs, with every bytes-producing helper disabled."""
    from repro.experiments.scenario import run_scenario
    from repro.experiments.spec import ScenarioSpec

    def forbidden(*_args, **_kwargs):
        raise AssertionError("a header was serialised on the packet path")

    for name in ("serialize_ip_header", "serialize_tcp_header",
                 "internet_checksum"):
        monkeypatch.setattr(checksum_module, name, forbidden)
    result = run_scenario(ScenarioSpec(num_ues=1, duration_s=0.5,
                                       cc_name="prague", marker="l4span",
                                       seed=3))
    assert result.marker_summary["shortcircuited_acks"] > 0
