"""The packet object that flows through every component in the simulation.

A single :class:`Packet` class models both data segments and ACKs; transport
semantics live in boolean flags and optional fields rather than separate
classes so that network elements (queues, the RAN, L4Span) can treat all
traffic uniformly, exactly as a real middlebox sees opaque IP datagrams.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.net.addresses import FiveTuple
from repro.net.ecn import ECN, FlowClass, classify_ecn

#: Default maximum segment size used throughout the library (bytes of payload).
DEFAULT_MSS = 1400

#: Bytes of IP + TCP header accounted on top of the payload.
HEADER_BYTES = 40

_packet_ids = itertools.count(1)
_next_packet_id = _packet_ids.__next__


@dataclass(slots=True)
class AccEcnCounters:
    """Accurate-ECN feedback counters carried in an ACK (draft-ietf-tcpm-accurate-ecn).

    The receiver (or L4Span when short-circuiting) reports the running totals
    of CE-marked packets and CE / ECT(1) / ECT(0) bytes it has seen; the sender
    differences successive ACKs to recover the per-RTT mark fraction.
    """

    ce_packets: int = 0
    ce_bytes: int = 0
    ect1_bytes: int = 0
    ect0_bytes: int = 0

    def copy(self) -> "AccEcnCounters":
        """Return an independent copy of the counters."""
        return AccEcnCounters(self.ce_packets, self.ce_bytes,
                              self.ect1_bytes, self.ect0_bytes)

    def add_packet(self, size: int, ecn: ECN) -> None:
        """Account one received data packet of ``size`` bytes with ECN field ``ecn``."""
        if ecn == ECN.CE:
            self.ce_packets += 1
            self.ce_bytes += size
        elif ecn == ECN.ECT1:
            self.ect1_bytes += size
        elif ecn == ECN.ECT0:
            self.ect0_bytes += size


@dataclass(slots=True)
class Packet:
    """A simulated IP datagram.

    Attributes:
        packet_id: globally unique identifier (monotonic).
        flow_id: identifier of the transport flow the packet belongs to.
        five_tuple: addressing; ACKs carry the reverse tuple of their data flow.
        size: total size in bytes (payload + :data:`HEADER_BYTES`).
        ecn: the IP ECN codepoint; mutated in place by markers.
        protocol: ``"tcp"`` or ``"udp"``.
        seq: first payload byte carried (data packets).
        end_seq: one past the last payload byte carried.
        is_ack: True for pure acknowledgements travelling uplink.
        ack_seq: cumulative acknowledgement (next expected byte).
        ece / cwr: classic ECN TCP flags (RFC 3168 echo and reduced-window).
        accecn: AccECN counters when the flow negotiated accurate ECN.
        sent_time: transport-layer send timestamp at the server.
        timestamps: free-form measurement points stamped by components
            (``"core_ingress"``, ``"rlc_enqueue"``, ``"rlc_head"``,
            ``"rlc_dequeue"``, ``"ue_delivered"``, ...).  Components write
            the dict directly: ``setdefault`` where the first stamp of a
            name wins, item assignment where a later one overrides it.
        marked_by: name of the component that set CE, for accounting.
        retransmission: True when the transport re-sent these bytes.
    """

    flow_id: int
    five_tuple: FiveTuple
    size: int
    ecn: ECN = ECN.NOT_ECT
    protocol: str = "tcp"
    seq: int = 0
    end_seq: int = 0
    is_ack: bool = False
    ack_seq: int = 0
    ece: bool = False
    cwr: bool = False
    accecn: Optional[AccEcnCounters] = None
    sent_time: float = 0.0
    packet_id: int = field(default_factory=_next_packet_id)
    timestamps: dict = field(default_factory=dict)
    marked_by: Optional[str] = None
    retransmission: bool = False
    payload_info: dict = field(default_factory=dict)

    def __reduce__(self):
        # Positional, in field order: boundary packets cross a shard pipe at
        # about half the bytes and time of the default slotted-dataclass
        # reduce (no per-field state, no ``__setstate__`` pass).
        return (Packet, (
            self.flow_id, self.five_tuple, self.size, self.ecn, self.protocol,
            self.seq, self.end_seq, self.is_ack, self.ack_seq, self.ece,
            self.cwr, self.accecn, self.sent_time, self.packet_id,
            self.timestamps, self.marked_by, self.retransmission,
            self.payload_info))

    # ------------------------------------------------------------------ #
    # Convenience accessors
    # ------------------------------------------------------------------ #
    @property
    def payload_bytes(self) -> int:
        """Bytes of transport payload carried (never negative)."""
        return max(0, self.size - HEADER_BYTES)

    @property
    def flow_class(self) -> FlowClass:
        """Service class derived from the ECN codepoint."""
        return classify_ecn(self.ecn)

    def mark_ce(self, by: str = "") -> bool:
        """Set the CE codepoint if the packet is ECN-capable.

        Returns True if the mark was applied, False for a Not-ECT packet
        (which a real AQM would have to drop instead).
        """
        if self.ecn == ECN.NOT_ECT:
            return False
        if self.ecn != ECN.CE:
            self.ecn = ECN.CE
            self.marked_by = by or self.marked_by
        return True

    def elapsed(self, start: str, end: str) -> Optional[float]:
        """Seconds between two stamps, or None when either is missing."""
        if start not in self.timestamps or end not in self.timestamps:
            return None
        return self.timestamps[end] - self.timestamps[start]


def make_data_packet(flow_id: int, five_tuple: FiveTuple, seq: int,
                     payload: int, ecn: ECN, now: float,
                     protocol: str = "tcp",
                     retransmission: bool = False) -> Packet:
    """Create a downlink data segment carrying ``payload`` bytes starting at ``seq``."""
    # Positional, in field order (see Packet.__reduce__): no keyword
    # matching and no default factories on the per-packet path.
    return Packet(flow_id, five_tuple, payload + HEADER_BYTES, ecn, protocol,
                  seq, seq + payload, False, 0, False, False, None, now,
                  _next_packet_id(), {}, None, retransmission, {})


def make_ack_packet(data_packet: Packet, ack_seq: int, now: float,
                    ece: bool = False,
                    accecn: Optional[AccEcnCounters] = None,
                    ack_tuple: Optional[FiveTuple] = None) -> Packet:
    """Create the uplink acknowledgement elicited by ``data_packet``.

    ``ack_tuple`` is the reversed five-tuple when the caller already holds
    it (a receiver reverses its flow's tuple once, not per ACK).
    """
    payload_info = {"data_sent_time": data_packet.sent_time,
                    "data_packet_id": data_packet.packet_id}
    data_info = data_packet.payload_info
    if "app" in data_info:
        payload_info["app"] = data_info["app"]
    if accecn is not None:
        accecn = AccEcnCounters(accecn.ce_packets, accecn.ce_bytes,
                                accecn.ect1_bytes, accecn.ect0_bytes)
    return Packet(data_packet.flow_id,
                  (ack_tuple if ack_tuple is not None
                   else data_packet.five_tuple.reversed()),
                  HEADER_BYTES, ECN.NOT_ECT, data_packet.protocol, 0, 0, True,
                  ack_seq, ece, False, accecn, now, _next_packet_id(), {},
                  None, False, payload_info)
