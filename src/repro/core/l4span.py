"""The L4Span layer: RAN-aware ECN marking in the CU-UP (paper §4).

``L4SpanLayer`` implements the :class:`repro.ran.marker.RanMarker` protocol
and is attached to a :class:`repro.ran.gnb.GNodeB`.  It reacts to the three
events of the paper's pseudocode (Appendix A):

* **downlink datagram** -- classify the flow by its ECN codepoint, record the
  packet in the per-bearer profile table under its PDCP SN, and make a
  marking decision using the class-specific probability (Eq. 1 / Eq. 2 / the
  coupled rule).  For UDP flows (or when short-circuiting is disabled) the
  mark is applied to the packet's IP ECN field; for TCP flows with
  short-circuiting the mark is only *book-kept* so it can be injected into
  the next uplink ACK.
* **RAN feedback** -- update the profile table from the F1-U delivery-status
  report, refresh the egress-rate estimate and the sojourn prediction (a
  report of a released bearer finds no state and is discarded).
* **uplink packet** -- for TCP ACKs, rewrite the AccECN counters or the
  ECE flag from the book-kept marks, short-circuiting the radio leg of the
  feedback loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core.config import L4SpanConfig
from repro.core.egress import EgressRateEstimator
from repro.core.flowstate import FlowRecord
from repro.core.marking import (classic_mark_probability,
                                coupled_l4s_probability, l4s_mark_probability)
from repro.core.profile_table import DrbProfile
from repro.core.sojourn import SojournPredictor, SojournPrediction
from repro.net.addresses import FiveTuple
from repro.net.checksum import (mark_ce_with_checksum, tcp_rewrite_words,
                                update_checksums_after_ack_rewrite)
from repro.net.ecn import ECN, FlowClass
from repro.net.packet import Packet
from repro.ran.f1u import DeliveryStatus
from repro.ran.identifiers import DrbId, DrbKey, UeId
from repro.ran.marker import RanMarker
from repro.registry import MARKERS
from repro.sim.engine import Simulator
from repro.sim.randomness import block_draws, chance


@dataclass
class DrbState:
    """Per-bearer state kept by the layer."""

    key: DrbKey
    profile: DrbProfile
    estimator: EgressRateEstimator
    prediction: SojournPrediction = SojournPrediction(0.0, 0, 0.0, 0.0)
    #: Flow classes carried so far -- a list, tested by identity: hashing an
    #: enum member into a set runs a Python frame on every packet.
    classes_seen: list = field(default_factory=list)
    #: True when both L4S and classic flows map onto this bearer; recomputed
    #: only when a class is first seen.
    is_shared: bool = False
    feedback_count: int = 0
    marks_l4s: int = 0
    marks_classic: int = 0
    #: Uniform block draws of the bearer's marking stream -- the per-packet
    #: marking decision must neither rebuild/hash the stream name nor pay a
    #: scalar numpy call every time.
    mark_draw: object = None


class L4SpanLayer(RanMarker):
    """The in-RAN congestion-signalling layer."""

    name = "l4span"

    def __init__(self, sim: Simulator, config: Optional[L4SpanConfig] = None,
                 mss: int = 1440) -> None:
        super().__init__()
        self._sim = sim
        self.config = config if config is not None else L4SpanConfig()
        # The handlers' per-packet switches are read here, once: the config
        # is not expected to change after the layer is built.
        self._measure = self.config.measure_processing
        self._shortcircuit = self.config.enable_shortcircuit
        self.mss = mss
        self.predictor = SojournPredictor()
        self._flows: dict[FiveTuple, FlowRecord] = {}
        #: The same records under each flow's *uplink* tuple, filled when the
        #: flow is created, so an ACK finds its flow with one lookup.
        self._uplink_flows: dict[FiveTuple, FlowRecord] = {}
        self.shortcircuited_acks = 0
        # Processing-time samples (seconds) per event type, for Fig. 21.
        self.processing_times: dict[str, list[float]] = {
            "downlink": [], "uplink": [], "feedback": []}

    # ------------------------------------------------------------------ #
    # State accessors
    # ------------------------------------------------------------------ #
    def drb_state(self, ue_id: UeId, drb_id: DrbId,
                  attach_tag: str = "") -> DrbState:
        """Get or create the per-bearer state (its marking stream is named
        after the key, so single-loop and sharded runs draw alike)."""
        state = self._drbs.get((ue_id, drb_id, attach_tag))
        if state is None:
            key = DrbKey(ue_id, drb_id, attach_tag)
            state = DrbState(key=key,
                             profile=DrbProfile(),
                             estimator=EgressRateEstimator(
                                 self.config.estimation_window),
                             mark_draw=block_draws(self._sim.random.stream(
                                 f"l4span-mark-{key}")))
            self._drbs[key] = state
        return state

    def flow_record(self, five_tuple: FiveTuple) -> Optional[FlowRecord]:
        """Look up the state of a flow by its downlink five-tuple."""
        return self._flows.get(five_tuple)

    @property
    def flows(self) -> dict[FiveTuple, FlowRecord]:
        """All flows the layer has observed."""
        return self._flows

    @property
    def drb_states(self) -> dict[DrbKey, DrbState]:
        """All per-bearer states."""
        return self._drbs

    # ------------------------------------------------------------------ #
    # Event 1: downlink datagram from the 5G core
    # ------------------------------------------------------------------ #
    def on_downlink_packet(self, packet: Packet, ue_id: UeId, drb_id: DrbId,
                           sn: int, now: float, attach_tag: str = "") -> None:
        measure = self._measure
        start = time.perf_counter() if measure else 0.0
        self.downlink_packets += 1
        state = (self._drbs.get((ue_id, drb_id, attach_tag))
                 or self.drb_state(ue_id, drb_id, attach_tag))
        flow = (self._flows.get(packet.five_tuple)
                or self._create_flow(packet, ue_id, drb_id))
        if flow.flow_class not in state.classes_seen:
            state.classes_seen.append(flow.flow_class)
            state.is_shared = (FlowClass.L4S in state.classes_seen
                               and FlowClass.CLASSIC in state.classes_seen)
        if packet.cwr and not flow.uses_accecn:
            flow.ece_latched = False
        state.profile.add_packet(sn, packet.size, now)
        flow.record_downlink(packet.size, now)
        self._maybe_mark(packet, state, flow, now)
        if measure:
            self.processing_times["downlink"].append(
                time.perf_counter() - start)

    def _create_flow(self, packet: Packet, ue_id: UeId,
                     drb_id: DrbId) -> FlowRecord:
        """The record of a flow's first downlink packet."""
        flow = FlowRecord(five_tuple=packet.five_tuple, ue_id=ue_id,
                          drb_id=drb_id, flow_class=packet.flow_class,
                          protocol=packet.protocol,
                          uses_accecn=packet.protocol == "tcp"
                          and packet.flow_class == FlowClass.L4S)
        self._flows[packet.five_tuple] = flow
        self._uplink_flows[packet.five_tuple.reversed()] = flow
        return flow

    # ------------------------------------------------------------------ #
    # Marking decision
    # ------------------------------------------------------------------ #
    def mark_probability(self, state: DrbState, flow: FlowRecord) -> float:
        """The current marking probability for a packet of ``flow`` on ``state``.

        Following the paper's event structure (Appendix A), the bearer's
        marking state is derived from the queue snapshot taken at the last
        F1-U feedback -- i.e. right after the RLC drained what it could --
        rather than from the instantaneous queue at packet arrival, so short
        ACK-clocked bursts do not inflate the predicted sojourn time.
        """
        prediction = state.prediction
        queued = prediction.queued_bytes
        rate = prediction.rate
        error = prediction.error_std
        if flow.flow_class == FlowClass.NON_ECN and not self.config.drop_non_ecn:
            return 0.0
        predicted_sojourn = prediction.sojourn if rate > 0 else 0.0
        if flow.flow_class == FlowClass.L4S:
            if state.is_shared:
                p_classic = self._classic_probability(state, flow,
                                                      predicted_sojourn, rate)
                return coupled_l4s_probability(p_classic,
                                               self.config.classic_beta)
            if rate <= 0:
                return 0.0
            return l4s_mark_probability(queued, rate, error,
                                        self.config.sojourn_threshold)
        return self._classic_probability(state, flow, predicted_sojourn, rate)

    def _classic_probability(self, state: DrbState, flow: FlowRecord,
                             predicted_sojourn: float, rate: float) -> float:
        if rate <= 0:
            return 0.0
        # Do not press the brake while the bearer's buffer is essentially
        # empty: the design goal for classic flows is to prevent bufferbloat
        # *while maintaining an adequately filled buffer* (§4.2.2); marking a
        # starved flow would only entrench the under-utilisation, because the
        # measured egress rate of an idle bearer is its (low) arrival rate.
        if state.prediction.queued_bytes < 2 * self.mss:
            return 0.0
        if flow.initial_rtt is not None:
            # Eq. 2 targets the RTT the sender sees once the queue is held at
            # tau_s.  Adding the predicted sojourn instead would lower p as
            # the standing queue it should drain grows.
            rtt = flow.initial_rtt + self.config.sojourn_threshold
        elif flow.protocol != "tcp":
            rtt = 2.0 * max(predicted_sojourn, self.config.sojourn_threshold)
        else:
            # TCP flow whose handshake RTT has not been observed yet: wait for
            # the first uplink ACK rather than guessing a too-small RTT.
            return 0.0
        return classic_mark_probability(self.mss, rtt, rate,
                                        self.config.classic_beta)

    def _maybe_mark(self, packet: Packet, state: DrbState, flow: FlowRecord,
                    now: float) -> None:
        probability = self.mark_probability(state, flow)
        if probability <= 0 or not chance(state.mark_draw, probability):
            flow.record_unmarked(packet.size)
            return
        self.marked_packets += 1
        if flow.flow_class == FlowClass.L4S:
            state.marks_l4s += 1
        else:
            state.marks_classic += 1
        flow.record_mark(packet.size,
                         ecn_capable_l4s=flow.flow_class == FlowClass.L4S)
        if flow.protocol != "tcp" or not self._shortcircuit:
            if packet.ecn == ECN.NOT_ECT and self.config.drop_non_ecn:
                packet.payload_info["l4span_drop"] = True
            else:
                mark_ce_with_checksum(packet, by=self.name)

    # ------------------------------------------------------------------ #
    # Event 2: F1-U delivery-status feedback
    # ------------------------------------------------------------------ #
    def on_ran_feedback(self, status: DeliveryStatus, now: float) -> None:
        measure = self._measure
        start = time.perf_counter() if measure else 0.0
        self.feedback_messages += 1
        ue_id, drb_id, txed_sn, _, timestamp, attach_tag = status
        state = self._drbs.get((ue_id, drb_id, attach_tag))
        if state is None:
            return  # a released bearer's report: another PDCP's SNs
        state.feedback_count += 1
        profile = state.profile
        estimate = state.estimator.observe_transmissions(
            profile.on_feedback(txed_sn, timestamp))
        state.prediction = self.predictor.predict(profile.queued_bytes,
                                                  estimate)
        if measure:
            self.processing_times["feedback"].append(
                time.perf_counter() - start)

    # ------------------------------------------------------------------ #
    # Event 3: uplink packet (feedback short-circuiting)
    # ------------------------------------------------------------------ #
    def on_uplink_packet(self, packet: Packet, now: float) -> None:
        measure = self._measure
        start = time.perf_counter() if measure else 0.0
        self.uplink_packets += 1
        if packet.is_ack and packet.protocol == "tcp":
            flow = self._uplink_flows.get(packet.five_tuple)
            if flow is not None:
                flow.observe_uplink(now)
                if self._shortcircuit:
                    self._shortcircuit_ack(packet, flow)
        if measure:
            self.processing_times["uplink"].append(
                time.perf_counter() - start)

    def _shortcircuit_ack(self, packet: Packet, flow: FlowRecord) -> None:
        accecn = packet.accecn
        if flow.uses_accecn:
            if accecn is None:
                return
        elif not flow.ece_latched or packet.ece:
            return
        # This ACK is rewritten.  The pre-rewrite words feed the RFC 1624
        # incremental update, so they are captured only when a stored TCP
        # checksum exists to update from (a fresh ACK carries none and is
        # summed once); the IP header is untouched either way.
        old_words = (tcp_rewrite_words(packet)
                     if "tcp_checksum" in packet.payload_info else None)
        if flow.uses_accecn:
            tentative = flow.tentative
            accecn.ce_packets = tentative.ce_packets
            accecn.ce_bytes = tentative.ce_bytes
            accecn.ect1_bytes = tentative.ect1_bytes
            accecn.ect0_bytes = tentative.ect0_bytes
        else:
            packet.ece = True
        update_checksums_after_ack_rewrite(packet, old_words)
        flow.shortcircuited_acks += 1
        self.shortcircuited_acks += 1

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def summary(self) -> dict:
        """Aggregate counters, useful in experiment reports and tests."""
        return {
            "downlink_packets": self.downlink_packets,
            "uplink_packets": self.uplink_packets,
            "feedback_messages": self.feedback_messages,
            "marked_packets": self.marked_packets,
            "shortcircuited_acks": self.shortcircuited_acks,
            "flows": len(self._flows),
            "drbs": len(self._drbs),
        }


@MARKERS.register("l4span")
def _build_l4span_layer(sim: Simulator,
                        l4span_config: Optional[L4SpanConfig] = None
                        ) -> L4SpanLayer:
    """The paper's marking layer, honouring the scenario's L4Span config."""
    return L4SpanLayer(sim, config=l4span_config)
