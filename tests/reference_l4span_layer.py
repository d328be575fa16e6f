"""Test-only oracle: the L4Span layer as it stood before the fast-path PR.

:class:`ReferenceL4SpanLayer` is :class:`repro.core.l4span.L4SpanLayer`
frozen verbatim at the parent of PR 20, together with everything whose shape
that PR replaced: the profile table (``OrderedDict`` of unslotted entries,
``purge`` copying every key), the egress-rate estimator and sojourn predictor
with their frozen-dataclass records built by keyword, the per-bearer state
with a ``classes_seen`` *set* and a computed ``is_shared``, ``drb_state``
building a ``DrbKey`` per call, the uplink handler reversing every ACK's
tuple, ``config`` read on every use, and ``_shortcircuit_ack`` capturing the
pre-rewrite words unconditionally.  Only the class names changed (a
``Reference`` prefix), the registry decorator is gone, and the background
population's byte-counting hook and its two summary keys went with the
production ones.  What the PR did
not touch is imported from ``src``: ``FlowRecord``, the marking laws, the
checksum helpers, ``DrbKey`` / ``FiveTuple``.

The production layer must stay value-identical to this one -- packet
rewrites, counters, per-flow and per-bearer state and the marking stream's
position -- which ``tests/test_l4span_differential.py`` checks event by
event.  Do not optimise this file.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from repro.core.config import L4SpanConfig
from repro.core.flowstate import FlowRecord
from repro.core.marking import (classic_mark_probability,
                                coupled_l4s_probability, l4s_mark_probability)
from repro.net.addresses import FiveTuple
from repro.net.checksum import (mark_ce_with_checksum, tcp_rewrite_words,
                                update_checksums_after_ack_rewrite)
from repro.net.ecn import ECN, FlowClass
from repro.net.packet import Packet
from repro.ran.f1u import DeliveryStatus
from repro.ran.identifiers import DrbId, DrbKey, UeId
from repro.sim.engine import Simulator
from repro.sim.randomness import chance


# --------------------------------------------------------------------- #
# core/profile_table.py
@dataclass
class ReferenceProfileEntry:
    """Per-packet record in the profile table."""

    sn: int
    size: int
    ingress_time: float
    transmitted_time: Optional[float] = None
    delivered_time: Optional[float] = None

    @property
    def queued(self) -> bool:
        """True while the packet is still waiting in the RLC."""
        return self.transmitted_time is None

    def queueing_delay(self) -> Optional[float]:
        """Measured queueing (sojourn) delay, once transmitted."""
        if self.transmitted_time is None:
            return None
        return self.transmitted_time - self.ingress_time

    def retransmission_delay(self) -> Optional[float]:
        """Delay between transmission and UE delivery (RLC AM only)."""
        if self.transmitted_time is None or self.delivered_time is None:
            return None
        return self.delivered_time - self.transmitted_time


class ReferenceDrbProfile:
    """Profile table of a single (UE, DRB) bearer."""

    def __init__(self, horizon: float = 2.0) -> None:
        self._entries: "OrderedDict[int, ReferenceProfileEntry]" = OrderedDict()
        self._next_sn = 0
        self.horizon = horizon
        self.highest_txed_sn: Optional[int] = None
        self.highest_delivered_sn: Optional[int] = None
        self._queued_bytes = 0
        self.total_packets = 0
        self.total_bytes = 0

    # ------------------------------------------------------------------ #
    # Ingress
    # ------------------------------------------------------------------ #
    def add_packet(self, size: int, now: float) -> int:
        """Record a packet entering the bearer; returns its (mirrored) SN."""
        sn = self._next_sn
        self._next_sn += 1
        self._entries[sn] = ReferenceProfileEntry(sn=sn, size=size, ingress_time=now)
        self._queued_bytes += size
        self.total_packets += 1
        self.total_bytes += size
        return sn

    # ------------------------------------------------------------------ #
    # F1-U feedback
    # ------------------------------------------------------------------ #
    def on_feedback(self, highest_txed_sn: Optional[int],
                    highest_delivered_sn: Optional[int],
                    timestamp: float) -> list[ReferenceProfileEntry]:
        """Apply a delivery-status report.

        Returns the entries newly marked as transmitted (in SN order), which
        the egress-rate estimator consumes.
        """
        newly_transmitted: list[ReferenceProfileEntry] = []
        if highest_txed_sn is not None:
            start = 0 if self.highest_txed_sn is None else self.highest_txed_sn + 1
            for sn in range(start, highest_txed_sn + 1):
                entry = self._entries.get(sn)
                if entry is None or entry.transmitted_time is not None:
                    continue
                entry.transmitted_time = timestamp
                self._queued_bytes -= entry.size
                newly_transmitted.append(entry)
            if (self.highest_txed_sn is None
                    or highest_txed_sn > self.highest_txed_sn):
                self.highest_txed_sn = highest_txed_sn
        if highest_delivered_sn is not None:
            start = (0 if self.highest_delivered_sn is None
                     else self.highest_delivered_sn + 1)
            for sn in range(start, highest_delivered_sn + 1):
                entry = self._entries.get(sn)
                if entry is not None and entry.delivered_time is None:
                    entry.delivered_time = timestamp
            if (self.highest_delivered_sn is None
                    or highest_delivered_sn > self.highest_delivered_sn):
                self.highest_delivered_sn = highest_delivered_sn
        return newly_transmitted

    # ------------------------------------------------------------------ #
    # Queue state
    # ------------------------------------------------------------------ #
    @property
    def queued_bytes(self) -> int:
        """Bytes of the standing queue (entries not yet transmitted)."""
        return max(0, self._queued_bytes)

    @property
    def queued_packets(self) -> int:
        """Number of packets still waiting for transmission."""
        if self.highest_txed_sn is None:
            return len(self._entries)
        return max(0, self._next_sn - (self.highest_txed_sn + 1))

    def oldest_queued_entry(self) -> Optional[ReferenceProfileEntry]:
        """The head of the standing queue (oldest untransmitted entry).

        Because a delivery-status report marks every SN up to the highest
        transmitted one, the standing queue is exactly the contiguous SN range
        above ``highest_txed_sn``; the head is therefore a direct lookup.
        """
        head_sn = 0 if self.highest_txed_sn is None else self.highest_txed_sn + 1
        return self._entries.get(head_sn)

    def head_sojourn(self, now: float) -> float:
        """Measured sojourn time of the standing-queue head (0 when empty)."""
        head = self.oldest_queued_entry()
        if head is None:
            return 0.0
        return max(0.0, now - head.ingress_time)

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def purge(self, now: float) -> int:
        """Drop transmitted entries older than the retention horizon.

        Returns the number of purged entries.
        """
        cutoff = now - self.horizon
        purged = 0
        for sn in list(self._entries):
            entry = self._entries[sn]
            if entry.queued:
                break
            if entry.transmitted_time is not None and entry.transmitted_time < cutoff:
                del self._entries[sn]
                purged += 1
            else:
                break
        return purged

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ReferenceProfileEntry]:
        return iter(self._entries.values())

    def entry(self, sn: int) -> Optional[ReferenceProfileEntry]:
        """Look up one entry by sequence number."""
        return self._entries.get(sn)

    def measured_queueing_delays(self) -> list[float]:
        """Queueing delays of every transmitted entry still retained."""
        return [e.queueing_delay() for e in self._entries.values()
                if e.queueing_delay() is not None]


# --------------------------------------------------------------------- #
# core/egress.py
class ReferenceWindowedMeanVariance:
    """Streaming mean/variance over a sliding window (Welford add/remove).

    Maintains the running mean and the centred sum of squares ``M2`` under
    both insertion and removal, so the smoothing pass over the
    instantaneous-rate window costs O(1) per update instead of the two
    O(window) ``sum()`` scans it replaces -- at feedback rates the scans
    were the estimator's dominant cost.  Welford's centred recurrences are
    used (rather than a raw sum-of-squares) for numerical robustness at
    rate magnitudes around 1e7 bytes/s.
    """

    __slots__ = ("count", "mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        """Insert ``value`` into the window."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    def remove(self, value: float) -> None:
        """Remove a ``value`` previously inserted (inverse Welford step)."""
        if self.count <= 1:
            self.count = 0
            self.mean = 0.0
            self._m2 = 0.0
            return
        old_mean = self.mean
        self.count -= 1
        self.mean = old_mean + (old_mean - value) / self.count
        self._m2 -= (value - old_mean) * (value - self.mean)

    def variance(self) -> float:
        """Population variance of the window (0 for fewer than two values)."""
        if self.count < 2:
            return 0.0
        # Removal can leave M2 a hair below zero through float cancellation.
        return max(self._m2, 0.0) / self.count

    def std(self) -> float:
        """Population standard deviation of the window."""
        return math.sqrt(self.variance())


@dataclass(frozen=True)
class ReferenceRateEstimate:
    """The output of one estimator update."""

    timestamp: float
    smoothed_rate: float       # r_hat_e, bytes per second
    instantaneous_rate: float  # r^T_k, bytes per second
    error_std: float           # e_hat, bytes per second
    samples_in_window: int

    @property
    def is_valid(self) -> bool:
        """True once at least one transmission has been observed."""
        return self.samples_in_window > 0


class ReferenceEgressRateEstimator:
    """Sliding-window dequeue-rate estimator for one bearer.

    Args:
        window: the estimation window ``tau_c / 2`` is *not* applied here --
            the window passed in should already be the paper's
            ``tau_c``-long averaging window (the layer passes
            ``config.estimation_window``... see note) .

    Note:
        The paper uses a window of half the pre-set coherence time for the
        instantaneous rate (Eq. 3) and a second window of the same length for
        smoothing (Eq. 4); the constructor takes that single length.
    """

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._transmissions: deque[tuple[float, int]] = deque()
        #: Running byte total of ``_transmissions`` -- sizes are integers, so
        #: the sum is exact and the per-update window re-scan the estimator
        #: used to do (its dominant cost at feedback rates) is unnecessary.
        self._window_bytes = 0
        # Instantaneous-rate history with a running Welford accumulator, so
        # the smoothed mean and error std are O(1) per update instead of a
        # full-window ``sum()`` pass for each.
        self._inst_times: deque[float] = deque()
        self._inst_rates: deque[float] = deque()
        self._inst_stats = ReferenceWindowedMeanVariance()
        self._last_estimate: Optional[ReferenceRateEstimate] = None

    # ------------------------------------------------------------------ #
    def observe_transmissions(self, entries: Iterable[ReferenceProfileEntry]
                              ) -> Optional[ReferenceRateEstimate]:
        """Feed newly transmitted profile entries; returns the new estimate.

        Returns None when the update carried no new transmissions.
        """
        newest_time: Optional[float] = None
        transmissions = self._transmissions
        for entry in entries:
            if entry.transmitted_time is None:
                continue
            transmissions.append((entry.transmitted_time, entry.size))
            self._window_bytes += entry.size
            newest_time = entry.transmitted_time
        if newest_time is None:
            return self._last_estimate
        return self._update(newest_time)

    def _update(self, now: float) -> ReferenceRateEstimate:
        self._expire(now)
        instantaneous = self._window_bytes / self.window
        inst_times = self._inst_times
        inst_rates = self._inst_rates
        stats = self._inst_stats
        inst_times.append(now)
        inst_rates.append(instantaneous)
        stats.add(instantaneous)
        cutoff = now - self.window
        while inst_times[0] <= cutoff:
            inst_times.popleft()
            stats.remove(inst_rates.popleft())
        estimate = ReferenceRateEstimate(timestamp=now, smoothed_rate=stats.mean,
                                instantaneous_rate=instantaneous,
                                error_std=stats.std(),
                                samples_in_window=stats.count)
        self._last_estimate = estimate
        return estimate

    def _expire(self, now: float) -> None:
        """Drop transmissions outside the trailing window (exact running sum)."""
        cutoff = now - self.window
        transmissions = self._transmissions
        while transmissions and transmissions[0][0] <= cutoff:
            self._window_bytes -= transmissions.popleft()[1]

    # ------------------------------------------------------------------ #
    @property
    def last_estimate(self) -> Optional[ReferenceRateEstimate]:
        """The most recent estimate, or None before any transmission."""
        return self._last_estimate

    def rate_or_default(self, default: float = 0.0) -> float:
        """Smoothed rate of the last estimate, or ``default``."""
        if self._last_estimate is None:
            return default
        return self._last_estimate.smoothed_rate

    def error_std_or_default(self, default: float = 0.0) -> float:
        """Error standard deviation of the last estimate, or ``default``."""
        if self._last_estimate is None:
            return default
        return self._last_estimate.error_std


# --------------------------------------------------------------------- #
# core/sojourn.py
@dataclass(frozen=True)
class ReferenceSojournPrediction:
    """A sojourn-time prediction together with the inputs that produced it."""

    sojourn: float
    queued_bytes: int
    rate: float
    error_std: float

    @property
    def is_confident(self) -> bool:
        """True when the rate estimate had little variance."""
        return self.rate > 0 and self.error_std < 0.1 * self.rate


class ReferenceSojournPredictor:
    """Turns (queued bytes, rate estimate) into a sojourn-time prediction."""

    #: Sojourn reported when the rate estimate is still zero but data is queued.
    UNKNOWN_RATE_SOJOURN = 1.0

    def predict(self, queued_bytes: int,
                estimate: Optional[ReferenceRateEstimate]) -> ReferenceSojournPrediction:
        """Predict the sojourn time of the current standing queue."""
        if queued_bytes <= 0:
            rate = estimate.smoothed_rate if estimate is not None else 0.0
            err = estimate.error_std if estimate is not None else 0.0
            return ReferenceSojournPrediction(0.0, 0, rate, err)
        if estimate is None or estimate.smoothed_rate <= 0:
            return ReferenceSojournPrediction(self.UNKNOWN_RATE_SOJOURN, queued_bytes,
                                     0.0, 0.0)
        sojourn = queued_bytes / estimate.smoothed_rate
        return ReferenceSojournPrediction(sojourn, queued_bytes,
                                 estimate.smoothed_rate, estimate.error_std)


# --------------------------------------------------------------------- #
# core/l4span.py
@dataclass
class ReferenceDrbState:
    """Per-bearer state kept by the layer."""

    key: DrbKey
    profile: ReferenceDrbProfile
    estimator: ReferenceEgressRateEstimator
    prediction: ReferenceSojournPrediction = field(
        default_factory=lambda: ReferenceSojournPrediction(0.0, 0, 0.0, 0.0))
    classes_seen: set = field(default_factory=set)
    feedback_count: int = 0
    marks_l4s: int = 0
    marks_classic: int = 0
    #: Cached generator of the bearer's marking stream -- the per-packet
    #: marking decision must not rebuild/hash the stream name every time.
    mark_rng: object = None

    @property
    def is_shared(self) -> bool:
        """True when both L4S and classic flows map onto this bearer."""
        return (FlowClass.L4S in self.classes_seen
                and FlowClass.CLASSIC in self.classes_seen)


class ReferenceL4SpanLayer:
    """The in-RAN congestion-signalling layer."""

    name = "l4span"

    def __init__(self, sim: Simulator, config: Optional[L4SpanConfig] = None,
                 mss: int = 1440) -> None:
        self._sim = sim
        self.config = config if config is not None else L4SpanConfig()
        self.mss = mss
        self.predictor = ReferenceSojournPredictor()
        self._drbs: dict[DrbKey, ReferenceDrbState] = {}
        self._flows: dict[FiveTuple, FlowRecord] = {}
        self._last_purge = 0.0
        # Attach tag per UE ("#a1" after its first handover): qualifies the
        # marking stream of bearers created after a UE arrives here, so the
        # draw sequence matches between single-loop and sharded runs.
        self._ue_stream_tags: dict[UeId, str] = {}
        # Aggregate statistics.
        self.downlink_packets = 0
        self.uplink_packets = 0
        self.feedback_messages = 0
        self.marked_packets = 0
        self.shortcircuited_acks = 0
        # Processing-time samples (seconds) per event type, for Fig. 21.
        self.processing_times: dict[str, list[float]] = {
            "downlink": [], "uplink": [], "feedback": []}

    # ------------------------------------------------------------------ #
    # State accessors
    # ------------------------------------------------------------------ #
    def set_ue_stream_tag(self, ue_id: UeId, tag: str) -> None:
        """Qualify future marking streams of ``ue_id`` (handover arrival)."""
        self._ue_stream_tags[ue_id] = tag

    def drb_state(self, ue_id: UeId, drb_id: DrbId) -> ReferenceDrbState:
        """Get or create the per-bearer state."""
        key = DrbKey(ue_id, drb_id)
        state = self._drbs.get(key)
        if state is None:
            tag = self._ue_stream_tags.get(ue_id, "")
            state = ReferenceDrbState(key=key,
                             profile=ReferenceDrbProfile(self.config.profile_horizon),
                             estimator=ReferenceEgressRateEstimator(
                                 self.config.estimation_window),
                             mark_rng=self._sim.random.stream(
                                 f"l4span-mark-{key}{tag}"))
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
    def drb_states(self) -> dict[DrbKey, ReferenceDrbState]:
        """All per-bearer states."""
        return self._drbs

    # ------------------------------------------------------------------ #
    # Event 1: downlink datagram from the 5G core
    # ------------------------------------------------------------------ #
    def on_downlink_packet(self, packet: Packet, ue_id: UeId, drb_id: DrbId,
                           now: float) -> None:
        start = time.perf_counter() if self.config.measure_processing else 0.0
        self.downlink_packets += 1
        state = self.drb_state(ue_id, drb_id)
        flow = self._get_or_create_flow(packet, ue_id, drb_id, now)
        state.classes_seen.add(flow.flow_class)
        if packet.cwr and not flow.uses_accecn:
            flow.ece_latched = False
        state.profile.add_packet(packet.size, now)
        flow.record_downlink(packet.size, now)
        self._maybe_mark(packet, state, flow, now)
        if now - self._last_purge > self.config.profile_horizon:
            self._last_purge = now
            for drb in self._drbs.values():
                drb.profile.purge(now)
        if self.config.measure_processing:
            self.processing_times["downlink"].append(
                time.perf_counter() - start)

    def _get_or_create_flow(self, packet: Packet, ue_id: UeId, drb_id: DrbId,
                            now: float) -> FlowRecord:
        flow = self._flows.get(packet.five_tuple)
        if flow is None:
            flow = FlowRecord(five_tuple=packet.five_tuple, ue_id=ue_id,
                              drb_id=drb_id, flow_class=packet.flow_class,
                              protocol=packet.protocol,
                              uses_accecn=packet.protocol == "tcp"
                              and packet.flow_class == FlowClass.L4S)
            self._flows[packet.five_tuple] = flow
        return flow

    # ------------------------------------------------------------------ #
    # Marking decision
    # ------------------------------------------------------------------ #
    def mark_probability(self, state: ReferenceDrbState, flow: FlowRecord) -> float:
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

    def _classic_probability(self, state: ReferenceDrbState, flow: FlowRecord,
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
            rtt = flow.initial_rtt + predicted_sojourn
        elif flow.protocol != "tcp":
            rtt = 2.0 * max(predicted_sojourn, self.config.sojourn_threshold)
        else:
            # TCP flow whose handshake RTT has not been observed yet: wait for
            # the first uplink ACK rather than guessing a too-small RTT.
            return 0.0
        return classic_mark_probability(self.mss, rtt, rate,
                                        self.config.classic_beta)

    def _maybe_mark(self, packet: Packet, state: ReferenceDrbState, flow: FlowRecord,
                    now: float) -> None:
        probability = self.mark_probability(state, flow)
        if probability <= 0 or not chance(state.mark_rng.random, probability):
            flow.record_unmarked(packet.size)
            return
        self.marked_packets += 1
        if flow.flow_class == FlowClass.L4S:
            state.marks_l4s += 1
        else:
            state.marks_classic += 1
        flow.record_mark(packet.size,
                         ecn_capable_l4s=flow.flow_class == FlowClass.L4S)
        apply_to_downlink = (flow.protocol != "tcp"
                             or not self.config.enable_shortcircuit)
        if apply_to_downlink:
            if packet.ecn == ECN.NOT_ECT and self.config.drop_non_ecn:
                packet.payload_info["l4span_drop"] = True
            else:
                mark_ce_with_checksum(packet, by=self.name)

    # ------------------------------------------------------------------ #
    # Event 2: F1-U delivery-status feedback
    # ------------------------------------------------------------------ #
    def on_ran_feedback(self, status: DeliveryStatus, now: float) -> None:
        start = time.perf_counter() if self.config.measure_processing else 0.0
        self.feedback_messages += 1
        state = self.drb_state(status.ue_id, status.drb_id)
        state.feedback_count += 1
        newly = state.profile.on_feedback(status.highest_txed_sn,
                                          status.highest_delivered_sn,
                                          status.timestamp)
        estimate = state.estimator.observe_transmissions(newly)
        state.prediction = self.predictor.predict(state.profile.queued_bytes,
                                                  estimate)
        if self.config.measure_processing:
            self.processing_times["feedback"].append(
                time.perf_counter() - start)

    # ------------------------------------------------------------------ #
    # Event 3: uplink packet (feedback short-circuiting)
    # ------------------------------------------------------------------ #
    def on_uplink_packet(self, packet: Packet, now: float) -> None:
        start = time.perf_counter() if self.config.measure_processing else 0.0
        self.uplink_packets += 1
        if packet.is_ack and packet.protocol == "tcp":
            downlink_tuple = packet.five_tuple.reversed()
            flow = self._flows.get(downlink_tuple)
            if flow is not None:
                flow.observe_uplink(now)
                if self.config.enable_shortcircuit:
                    self._shortcircuit_ack(packet, flow)
        if self.config.measure_processing:
            self.processing_times["uplink"].append(
                time.perf_counter() - start)

    def _shortcircuit_ack(self, packet: Packet, flow: FlowRecord) -> None:
        # The pre-rewrite words are captured only on the branches that are
        # about to mutate, so ACKs that need no rewrite pay nothing here.
        old_words = None
        if flow.uses_accecn and packet.accecn is not None:
            old_words = tcp_rewrite_words(packet)
            packet.accecn.ce_packets = flow.tentative.ce_packets
            packet.accecn.ce_bytes = flow.tentative.ce_bytes
            packet.accecn.ect1_bytes = flow.tentative.ect1_bytes
            packet.accecn.ect0_bytes = flow.tentative.ect0_bytes
        elif not flow.uses_accecn:
            if flow.ece_latched and not packet.ece:
                old_words = tcp_rewrite_words(packet)
                packet.ece = True
        if old_words is not None:
            # RFC 1624 incremental update from the words just rewritten; the
            # IP header is untouched so its checksum is never recomputed.
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
