"""Client-side receivers: reassembly, ECN feedback and ACK generation.

Receivers live on the UE (or directly behind the wired client in the
motivation topology).  They consume downlink data packets and emit feedback
packets through a caller-supplied ``send_feedback`` callable -- on a UE this
is :meth:`repro.ran.ue.UeContext.send_uplink`, so feedback experiences the
uplink path and passes through the gNB where L4Span may rewrite it.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.ecn import ECN
from repro.net.packet import AccEcnCounters, Packet, make_ack_packet
from repro.sim.engine import Simulator
from repro.units import ms


class TcpReceiver:
    """A TCP receiver generating one ACK per received data segment.

    Args:
        sim: simulator.
        flow_id: flow this receiver terminates.
        send_feedback: callable taking the ACK packet to transmit uplink.
        accecn: when True the receiver reports AccECN counters; otherwise it
            uses the classic RFC 3168 ECE/CWR echo.
        owd_callback: optional callable invoked with each data packet's
            one-way delay (seconds), used by the metrics collectors.
    """

    def __init__(self, sim: Simulator, flow_id: int,
                 send_feedback: Callable[[Packet], None],
                 accecn: bool = False,
                 owd_callback: Optional[Callable[[float, Packet], None]] = None
                 ) -> None:
        self._sim = sim
        self.flow_id = flow_id
        self._send_feedback = send_feedback
        self.accecn_enabled = accecn
        self._owd_callback = owd_callback
        self.rcv_nxt = 0
        self._out_of_order: list[tuple[int, int]] = []
        self.counters = AccEcnCounters()
        self.ece_latched = False
        self.received_packets = 0
        self.received_bytes = 0
        self.ce_packets_seen = 0
        #: The flow's uplink five-tuple, reversed once from its first packet.
        self._ack_tuple = None

    # ------------------------------------------------------------------ #
    # Handover state transfer
    # ------------------------------------------------------------------ #
    def export_state(self) -> dict:
        """Snapshot the transport state a handover must carry to the target.

        The snapshot is complete: importing it into a freshly constructed
        receiver reproduces this receiver exactly, which is what lets a
        handed-over flow's receiver be rebuilt on another shard without the
        sender noticing (cumulative ACK point and AccECN counters survive).
        """
        return {"rcv_nxt": self.rcv_nxt,
                "out_of_order": list(self._out_of_order),
                "counters": self.counters.copy(),
                "ece_latched": self.ece_latched,
                "received_packets": self.received_packets,
                "received_bytes": self.received_bytes,
                "ce_packets_seen": self.ce_packets_seen}

    def import_state(self, state: dict) -> None:
        """Adopt a peer receiver's exported state (handover arrival)."""
        self.rcv_nxt = state["rcv_nxt"]
        self._out_of_order = list(state["out_of_order"])
        self.counters = state["counters"].copy()
        self.ece_latched = state["ece_latched"]
        self.received_packets = state["received_packets"]
        self.received_bytes = state["received_bytes"]
        self.ce_packets_seen = state["ce_packets_seen"]

    # ------------------------------------------------------------------ #
    def receive(self, packet: Packet) -> None:
        if packet.is_ack:
            return
        now = self._sim.now
        self.received_packets += 1
        self.received_bytes += packet.payload_bytes
        self._account_ecn(packet)
        self._reassemble(packet)
        if self._owd_callback is not None:
            self._owd_callback(now - packet.sent_time, packet)
        if self._ack_tuple is None:
            self._ack_tuple = packet.five_tuple.reversed()
        ack = make_ack_packet(
            packet, ack_seq=self.rcv_nxt, now=now,
            ece=self.ece_latched if not self.accecn_enabled else False,
            accecn=self.counters if self.accecn_enabled else None,
            ack_tuple=self._ack_tuple)
        self._send_feedback(ack)

    # ------------------------------------------------------------------ #
    def _account_ecn(self, packet: Packet) -> None:
        if packet.ecn == ECN.CE:
            self.ce_packets_seen += 1
            if not self.accecn_enabled:
                self.ece_latched = True
        self.counters.add_packet(packet.size, packet.ecn)
        if packet.cwr and not self.accecn_enabled:
            self.ece_latched = False

    def _reassemble(self, packet: Packet) -> None:
        start, end = packet.seq, packet.end_seq
        if end <= self.rcv_nxt:
            return
        if start > self.rcv_nxt:
            self._out_of_order.append((start, end))
            return
        self.rcv_nxt = end
        # Merge any buffered segments now contiguous with the cumulative point.
        merged = True
        while merged:
            merged = False
            for segment in sorted(self._out_of_order):
                seg_start, seg_end = segment
                if seg_start <= self.rcv_nxt < seg_end:
                    self.rcv_nxt = seg_end
                    self._out_of_order.remove(segment)
                    merged = True
                    break
                if seg_end <= self.rcv_nxt:
                    self._out_of_order.remove(segment)
                    merged = True
                    break


class UdpFeedbackReceiver:
    """A UDP receiver that echoes per-packet feedback in the payload.

    Used by UDP Prague: every received datagram triggers a feedback packet
    carrying the receiver's running CE/ECT byte counters (the UDP analogue of
    AccECN), which the rate-based sender differences.
    """

    def __init__(self, sim: Simulator, flow_id: int,
                 send_feedback: Callable[[Packet], None],
                 owd_callback: Optional[Callable[[float, Packet], None]] = None
                 ) -> None:
        self._sim = sim
        self.flow_id = flow_id
        self._send_feedback = send_feedback
        self._owd_callback = owd_callback
        self.counters = AccEcnCounters()
        self.received_packets = 0
        self.received_bytes = 0
        self.highest_seq = 0
        self._ack_tuple = None  # as TcpReceiver: reversed once per flow

    def export_state(self) -> dict:
        """Snapshot the feedback state a handover carries to the target."""
        return {"counters": self.counters.copy(),
                "received_packets": self.received_packets,
                "received_bytes": self.received_bytes,
                "highest_seq": self.highest_seq}

    def import_state(self, state: dict) -> None:
        """Adopt a peer receiver's exported state (handover arrival)."""
        self.counters = state["counters"].copy()
        self.received_packets = state["received_packets"]
        self.received_bytes = state["received_bytes"]
        self.highest_seq = state["highest_seq"]

    def receive(self, packet: Packet) -> None:
        if packet.is_ack:
            return
        now = self._sim.now
        self.received_packets += 1
        self.received_bytes += packet.payload_bytes
        self.counters.add_packet(packet.size, packet.ecn)
        self.highest_seq = max(self.highest_seq, packet.end_seq)
        if self._owd_callback is not None:
            self._owd_callback(now - packet.sent_time, packet)
        if self._ack_tuple is None:
            self._ack_tuple = packet.five_tuple.reversed()
        feedback = make_ack_packet(packet, ack_seq=self.highest_seq, now=now,
                                   accecn=self.counters,
                                   ack_tuple=self._ack_tuple)
        feedback.payload_info["udp_feedback"] = True
        self._send_feedback(feedback)


class ScreamReceiver:
    """SCReAM's receiver: periodic RTCP-style feedback over the RTP session.

    Feedback is emitted every ``feedback_interval`` (only when new media
    arrived) and carries the cumulative CE byte counter, the number of bytes
    received and an echo of the newest packet's send timestamp for RTT
    estimation.
    """

    def __init__(self, sim: Simulator, flow_id: int,
                 send_feedback: Callable[[Packet], None],
                 feedback_interval: float = ms(30),
                 owd_callback: Optional[Callable[[float, Packet], None]] = None
                 ) -> None:
        self._sim = sim
        self.flow_id = flow_id
        self._send_feedback = send_feedback
        self.feedback_interval = feedback_interval
        self._owd_callback = owd_callback
        self.counters = AccEcnCounters()
        self.received_packets = 0
        self.received_bytes = 0
        self.highest_seq = 0
        self._last_packet: Optional[Packet] = None
        self._new_data = False
        self._timer = sim.every(feedback_interval, self._emit_feedback)

    def export_state(self) -> dict:
        """Snapshot the feedback state a handover carries to the target.

        The periodic feedback process itself is *not* exported: a receiver
        rebuilt at handover time starts a fresh feedback clock, identically
        in the single loop and on a shard.
        """
        return {"counters": self.counters.copy(),
                "received_packets": self.received_packets,
                "received_bytes": self.received_bytes,
                "highest_seq": self.highest_seq,
                "last_packet": self._last_packet,
                "new_data": self._new_data}

    def import_state(self, state: dict) -> None:
        """Adopt a peer receiver's exported state (handover arrival)."""
        self.counters = state["counters"].copy()
        self.received_packets = state["received_packets"]
        self.received_bytes = state["received_bytes"]
        self.highest_seq = state["highest_seq"]
        self._last_packet = state["last_packet"]
        self._new_data = state["new_data"]

    def receive(self, packet: Packet) -> None:
        if packet.is_ack:
            return
        now = self._sim.now
        self.received_packets += 1
        self.received_bytes += packet.payload_bytes
        self.counters.add_packet(packet.size, packet.ecn)
        self.highest_seq = max(self.highest_seq, packet.end_seq)
        self._last_packet = packet
        self._new_data = True
        if self._owd_callback is not None:
            self._owd_callback(now - packet.sent_time, packet)

    def _emit_feedback(self) -> None:
        if not self._new_data or self._last_packet is None:
            return
        self._new_data = False
        feedback = make_ack_packet(self._last_packet, ack_seq=self.highest_seq,
                                   now=self._sim.now, accecn=self.counters)
        feedback.payload_info["scream_feedback"] = True
        feedback.payload_info["received_bytes"] = self.received_bytes
        self._send_feedback(feedback)

    def stop(self) -> None:
        """Stop the periodic feedback process."""
        self._timer.stop()
