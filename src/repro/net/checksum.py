"""Internet checksum (RFC 1071) and lightweight header serialisation.

The real L4Span prototype must recompute the IP checksum after rewriting the
ECN field and the TCP checksum after rewriting ACK feedback (paper §5).  The
simulation does not need checksums for correctness, but we model the same
operations so the processing-cost benchmark (Fig. 21 / Table 1) exercises a
comparable amount of per-packet work, and so tests can verify that marking a
packet keeps its headers internally consistent.
"""

from __future__ import annotations

import struct
import sys
import zlib
from functools import lru_cache

from repro.net.ecn import ECN
from repro.net.packet import Packet

_LITTLE_ENDIAN = sys.byteorder == "little"


def _fold_complement(total: int) -> int:
    """Fold a sum of 16-bit words with end-around carry and complement it."""
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def internet_checksum(data: bytes) -> int:
    """Compute the 16-bit one's-complement checksum of ``data``.

    The one's-complement sum is invariant under a consistent byte swap of
    every word, so the words are summed in *native* order through a zero-copy
    ``memoryview`` cast (no per-word unpacking loop) and the folded result is
    swapped back to network order once at the end.  This is the checksum of
    arbitrary bytes; the per-packet path never serialises a header, it sums
    the header's words directly (:func:`ip_checksum_of`).
    """
    if len(data) % 2:
        data += b"\x00"
    checksum = _fold_complement(sum(memoryview(data).cast("H")))
    if _LITTLE_ENDIAN:
        checksum = ((checksum & 0xFF) << 8) | (checksum >> 8)
    return checksum


def incremental_checksum_update(checksum: int, old_words, new_words) -> int:
    """RFC 1624 (Eq. 3) incremental checksum update.

    Given the checksum of a header and the 16-bit words (network order) that
    changed, produce the checksum of the rewritten header without touching
    the unchanged bytes: ``HC' = ~(~HC + ~m + m')`` in one's-complement
    arithmetic.  This is exactly what L4Span's datapath does after rewriting
    the ECN field or short-circuiting ACK feedback -- a handful of adds
    instead of re-serializing and re-summing the whole header.

    Results agree with a full :func:`internet_checksum` recompute modulo
    the one's-complement ±0 representation: for an all-zero rewritten
    header (impossible for real IP/TCP headers, whose first word is never
    zero) this returns 0x0000 where the full sum returns 0xFFFF.  Compare
    checksums with :func:`checksums_equal` to absorb that edge.
    """
    total = (~checksum) & 0xFFFF
    for old, new in zip(old_words, new_words):
        total += ((~old) & 0xFFFF) + new
    return _fold_complement(total)


def checksums_equal(a: int, b: int) -> bool:
    """Equality modulo the one's-complement ±0 ambiguity (RFC 1624 §3).

    0x0000 and 0xFFFF both encode a zero sum; incremental updates and full
    recomputes may land on different representatives, so checksum
    comparisons must treat them as the same value.
    """
    return a == b or {a & 0xFFFF, b & 0xFFFF} == {0x0000, 0xFFFF}


def ip_tos_word(packet: Packet) -> int:
    """The first 16-bit word of the IP header (version/IHL and ToS/ECN).

    The only IP word a marker rewrite can change (CE lives in the two ECN
    bits of the ToS byte), so CE marking updates the checksum incrementally
    from this word alone.
    """
    return 0x4500 | (packet.ecn & 0x03)


def tcp_rewrite_words(packet: Packet) -> tuple:
    """The TCP header words an ACK short-circuit rewrite can change.

    Word 0 is the data-offset/flags word (ECE/CWR live here); when the flow
    negotiated AccECN the four 32-bit counters follow as eight 16-bit words.
    Capture before the rewrite, compare after: the pair feeds
    :func:`incremental_checksum_update`.
    """
    flags = (0x5010 | (0x40 if packet.ece else 0)  # data offset 5, ACK
             | (0x80 if packet.cwr else 0))
    accecn = packet.accecn
    if accecn is None:
        return (flags,)
    ce_packets = accecn.ce_packets & 0xFFFFFFFF
    ce_bytes = accecn.ce_bytes & 0xFFFFFFFF
    ect1_bytes = accecn.ect1_bytes & 0xFFFFFFFF
    ect0_bytes = accecn.ect0_bytes & 0xFFFFFFFF
    return (flags, ce_packets >> 16, ce_packets & 0xFFFF,
            ce_bytes >> 16, ce_bytes & 0xFFFF,
            ect1_bytes >> 16, ect1_bytes & 0xFFFF,
            ect0_bytes >> 16, ect0_bytes & 0xFFFF)


def verify_checksum(data: bytes, checksum: int) -> bool:
    """True when ``checksum`` is the valid internet checksum of ``data``."""
    return internet_checksum(data) == checksum


@lru_cache(maxsize=4096)
def _address_words(address: str) -> tuple:
    """The two header words of an address, computed once per address.

    A dotted quad is its 32 bits; any other string (tests use ``"a"``) goes
    through CRC-32 -- never ``hash(str)``, which is salted per interpreter.
    """
    try:
        quad = bytes(int(part) for part in address.split("."))
    except ValueError:
        quad = b""
    value = (int.from_bytes(quad, "big") if len(quad) == 4
             else zlib.crc32(address.encode()))
    return value >> 16, value & 0xFFFF


def _ip_header_words(packet: Packet) -> tuple:
    """The ten 16-bit words of the simplified IPv4 header, network order.

    The single definition of the layout: :func:`serialize_ip_header` packs
    these words and :func:`ip_checksum_of` sums them.  The checksum word is
    zero, as it is while a checksum is being computed.
    """
    five_tuple = packet.five_tuple
    return ((ip_tos_word(packet), packet.size & 0xFFFF,
             packet.packet_id & 0xFFFF, 0,
             (64 << 8) | (6 if packet.protocol == "tcp" else 17), 0)  # TTL
            + _address_words(five_tuple.src_ip)
            + _address_words(five_tuple.dst_ip))


def _tcp_header_words(packet: Packet) -> tuple:
    """The words of the simplified TCP header: ten, or eighteen with AccECN.

    The single definition of the layout, like :func:`_ip_header_words`; the
    flags word and the AccECN counters come from :func:`tcp_rewrite_words`.
    """
    five_tuple = packet.five_tuple
    seq = packet.seq & 0xFFFFFFFF
    ack_seq = packet.ack_seq & 0xFFFFFFFF
    rewritable = tcp_rewrite_words(packet)
    return (five_tuple.src_port & 0xFFFF, five_tuple.dst_port & 0xFFFF,
            seq >> 16, seq & 0xFFFF, ack_seq >> 16, ack_seq & 0xFFFF,
            rewritable[0], 0xFFFF, 0, 0) + rewritable[1:]


def serialize_ip_header(packet: Packet) -> bytes:
    """Produce a 20-byte IPv4-style header for checksum purposes.

    The encoding is simplified but sensitive to every field a marker may
    rewrite, and it is a function of the packet alone: the same packet
    serialises to the same bytes in every interpreter.
    """
    return struct.pack("!10H", *_ip_header_words(packet))


def serialize_tcp_header(packet: Packet) -> bytes:
    """Produce a TCP-style header (20 bytes, 36 with AccECN counters)."""
    words = _tcp_header_words(packet)
    return struct.pack(f"!{len(words)}H", *words)


def ip_checksum_of(packet: Packet) -> int:
    """Checksum of the (simplified) IP header of ``packet``."""
    return _fold_complement(sum(_ip_header_words(packet)))


def tcp_checksum_of(packet: Packet) -> int:
    """Checksum of the (simplified) TCP header of ``packet``."""
    return _fold_complement(sum(_tcp_header_words(packet)))


def recompute_checksums(packet: Packet) -> tuple[int, int]:
    """Recompute both checksums, mirroring what L4Span does after rewriting.

    Returns ``(ip_checksum, tcp_checksum)`` and stores them in
    ``packet.payload_info`` so later verification can detect a stale value.
    """
    ip_sum = ip_checksum_of(packet)
    tcp_sum = tcp_checksum_of(packet) if packet.protocol == "tcp" else 0
    packet.payload_info["ip_checksum"] = ip_sum
    packet.payload_info["tcp_checksum"] = tcp_sum
    return ip_sum, tcp_sum


def checksums_valid(packet: Packet) -> bool:
    """True when the stored checksums match the current header contents."""
    if "ip_checksum" not in packet.payload_info:
        return False
    if not checksums_equal(packet.payload_info["ip_checksum"],
                           ip_checksum_of(packet)):
        return False
    if packet.protocol == "tcp":
        stored = packet.payload_info.get("tcp_checksum")
        return stored is not None and checksums_equal(stored,
                                                      tcp_checksum_of(packet))
    return True


def mark_ce_with_checksum(packet: Packet, by: str) -> bool:
    """Mark CE and refresh the IP checksum, as the prototype's datapath does.

    A packet whose checksum is already known is updated incrementally per
    RFC 1624 from the one changed word; otherwise the header is summed once
    (there is no old checksum to update from).
    """
    stored = packet.payload_info.get("ip_checksum")
    old_word = ip_tos_word(packet)
    marked = packet.mark_ce(by)
    if marked:
        if stored is not None:
            packet.payload_info["ip_checksum"] = incremental_checksum_update(
                stored, (old_word,), (ip_tos_word(packet),))
        else:
            packet.payload_info["ip_checksum"] = ip_checksum_of(packet)
    return marked


def update_checksums_after_ack_rewrite(packet: Packet,
                                       old_words: tuple) -> tuple[int, int]:
    """Refresh stored checksums after a feedback short-circuit rewrite.

    ``old_words`` is :func:`tcp_rewrite_words` captured before the rewrite
    (not read, so it may be ``None``, when no TCP checksum is stored).
    The IP header is untouched by an ACK rewrite, so its checksum is never
    recomputed (only computed once if absent); the TCP checksum is updated
    incrementally per RFC 1624 when known, and summed once otherwise.
    Returns ``(ip_checksum, tcp_checksum)`` like :func:`recompute_checksums`.
    """
    info = packet.payload_info
    ip_sum = info.get("ip_checksum")
    if ip_sum is None:
        ip_sum = ip_checksum_of(packet)
        info["ip_checksum"] = ip_sum
    tcp_sum = info.get("tcp_checksum")
    if tcp_sum is not None:
        tcp_sum = incremental_checksum_update(tcp_sum, old_words,
                                              tcp_rewrite_words(packet))
    else:
        tcp_sum = tcp_checksum_of(packet)
    info["tcp_checksum"] = tcp_sum
    return ip_sum, tcp_sum


__all__ = [
    "internet_checksum",
    "incremental_checksum_update",
    "checksums_equal",
    "verify_checksum",
    "serialize_ip_header",
    "serialize_tcp_header",
    "ip_checksum_of",
    "ip_tos_word",
    "tcp_checksum_of",
    "tcp_rewrite_words",
    "recompute_checksums",
    "checksums_valid",
    "mark_ce_with_checksum",
    "update_checksums_after_ack_rewrite",
    "ECN",
]
