"""Unit tests for the L4Span layer's three event handlers."""

from __future__ import annotations

import copy
import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_l4span_layer import ReferenceL4SpanLayer
from repro.core.config import L4SpanConfig
from repro.core.l4span import L4SpanLayer
from repro.net.addresses import FiveTuple
from repro.net.checksum import (checksums_equal, checksums_valid,
                                ip_checksum_of, recompute_checksums,
                                tcp_checksum_of)
from repro.net.ecn import ECN, FlowClass
from repro.net.packet import AccEcnCounters, make_ack_packet, make_data_packet
from repro.ran.f1u import DeliveryStatus
from repro.sim.engine import Simulator
from repro.units import ms


@pytest.fixture
def layer(sim) -> L4SpanLayer:
    return L4SpanLayer(sim, config=L4SpanConfig())


def feed_constant_rate(layer: L4SpanLayer, five_tuple, ue_id=0, drb_id=1,
                       packets=60, interval=0.001, ecn=ECN.ECT1,
                       transmit_lag=1):
    """Drive the layer with packets that the 'RLC' transmits ``transmit_lag``
    reports later, producing a steady egress-rate estimate."""
    for i in range(packets):
        now = i * interval
        packet = make_data_packet(0, five_tuple, i * 1440, 1400, ecn, now)
        layer.on_downlink_packet(packet, ue_id, drb_id, now)
        txed = i - transmit_lag
        if txed >= 0:
            layer.on_ran_feedback(DeliveryStatus(ue_id, drb_id, txed, None,
                                                 now), now)
    return layer.drb_state(ue_id, drb_id)


class TestDownlinkHandler:
    def test_creates_flow_and_profile_state(self, layer, five_tuple):
        packet = make_data_packet(0, five_tuple, 0, 1400, ECN.ECT1, 0.0)
        layer.on_downlink_packet(packet, 3, 1, 0.0)
        assert layer.flow_record(five_tuple) is not None
        assert layer.drb_state(3, 1).profile.queued_bytes == packet.size
        assert layer.flow_record(five_tuple).flow_class == FlowClass.L4S

    def test_flow_classification_by_ecn(self, layer, five_tuple):
        classic_tuple = FiveTuple("10.0.0.1", 443, "10.45.0.3", 50_001, "tcp")
        layer.on_downlink_packet(
            make_data_packet(0, five_tuple, 0, 1400, ECN.ECT1, 0.0), 0, 1, 0.0)
        layer.on_downlink_packet(
            make_data_packet(1, classic_tuple, 0, 1400, ECN.ECT0, 0.0), 0, 2, 0.0)
        assert layer.flow_record(five_tuple).flow_class == FlowClass.L4S
        assert layer.flow_record(classic_tuple).flow_class == FlowClass.CLASSIC

    def test_no_marking_before_any_feedback(self, layer, five_tuple):
        for i in range(50):
            packet = make_data_packet(0, five_tuple, i * 1440, 1400,
                                      ECN.ECT1, i * 0.001)
            layer.on_downlink_packet(packet, 0, 1, i * 0.001)
        assert layer.marked_packets == 0

    def test_l4s_marking_triggers_when_queue_exceeds_threshold(
            self, layer, five_tuple):
        # Transmit slowly (every 4th report lags) so the standing queue grows
        # well past 10 ms worth of the measured egress rate.
        state = feed_constant_rate(layer, five_tuple, packets=120,
                                   transmit_lag=60)
        assert state.prediction.sojourn > layer.config.sojourn_threshold
        probability = layer.mark_probability(state,
                                             layer.flow_record(five_tuple))
        assert probability > 0.5
        assert layer.marked_packets > 0

    def test_l4s_no_marking_when_queue_shallow(self, layer, five_tuple):
        state = feed_constant_rate(layer, five_tuple, packets=120,
                                   transmit_lag=1)
        probability = layer.mark_probability(state,
                                             layer.flow_record(five_tuple))
        assert probability < 0.2

    def test_tcp_l4s_marks_are_bookkept_not_applied(self, layer, five_tuple):
        feed_constant_rate(layer, five_tuple, packets=120, transmit_lag=60)
        flow = layer.flow_record(five_tuple)
        assert flow.tentative.ce_packets == flow.marked_packets
        # With short-circuiting enabled the downlink packets stay unmarked.
        assert flow.marked_packets > 0

    def test_udp_marks_applied_to_downlink_packet(self, sim):
        layer = L4SpanLayer(sim)
        udp_tuple = FiveTuple("10.0.0.1", 443, "10.45.0.2", 50_000, "udp")
        marked = 0
        for i in range(120):
            now = i * 0.001
            packet = make_data_packet(0, udp_tuple, i * 1240, 1200, ECN.ECT1,
                                      now)
            packet.protocol = "udp"
            layer.on_downlink_packet(packet, 0, 1, now)
            if i >= 60:
                layer.on_ran_feedback(DeliveryStatus(0, 1, i - 60, None, now),
                                      now)
            marked += packet.ecn == ECN.CE
        assert marked > 0

    def test_shortcircuit_disabled_marks_downlink_tcp(self, sim, five_tuple):
        layer = L4SpanLayer(sim, config=L4SpanConfig(enable_shortcircuit=False))
        ce = 0
        for i in range(120):
            now = i * 0.001
            packet = make_data_packet(0, five_tuple, i * 1440, 1400, ECN.ECT1,
                                      now)
            layer.on_downlink_packet(packet, 0, 1, now)
            if i >= 60:
                layer.on_ran_feedback(DeliveryStatus(0, 1, i - 60, None, now),
                                      now)
            ce += packet.ecn == ECN.CE
        assert ce > 0


class TestFeedbackHandler:
    def test_feedback_updates_prediction(self, layer, five_tuple):
        state = feed_constant_rate(layer, five_tuple, packets=60)
        assert state.feedback_count > 0
        assert state.prediction.rate > 0

    def test_rate_estimate_close_to_actual_drain_rate(self, layer, five_tuple):
        # 1440-byte packets transmitted every millisecond -> ~1.44 MB/s.
        state = feed_constant_rate(layer, five_tuple, packets=200,
                                   interval=0.001, transmit_lag=1)
        assert state.prediction.rate == pytest.approx(1.44e6, rel=0.3)

    def test_feedback_for_unknown_drb_creates_state(self, layer):
        layer.on_ran_feedback(DeliveryStatus(9, 9, None, None, 0.0), 0.0)
        assert (9, 9) in [(k.ue_id, k.drb_id) for k in layer.drb_states]


class TestUplinkHandler:
    def _make_marked_flow(self, layer, five_tuple):
        feed_constant_rate(layer, five_tuple, packets=120, transmit_lag=60)
        return layer.flow_record(five_tuple)

    def test_accecn_ack_rewritten_with_bookkept_marks(self, layer, five_tuple):
        flow = self._make_marked_flow(layer, five_tuple)
        data = make_data_packet(0, five_tuple, 0, 1400, ECN.ECT1, 0.0)
        ack = make_ack_packet(data, 1440, 0.2, accecn=AccEcnCounters())
        layer.on_uplink_packet(ack, 0.2)
        assert ack.accecn.ce_packets == flow.tentative.ce_packets
        assert ack.accecn.ce_bytes == flow.tentative.ce_bytes
        assert layer.shortcircuited_acks == 1

    def test_classic_ack_gets_ece_until_cwr(self, sim):
        layer = L4SpanLayer(sim)
        classic_tuple = FiveTuple("10.0.0.1", 443, "10.45.0.2", 50_002, "tcp")
        # Build a classic flow with a known RTT and a backlogged queue so the
        # classic marking rule fires.
        for i in range(150):
            now = i * 0.001
            packet = make_data_packet(0, classic_tuple, i * 1440, 1400,
                                      ECN.ECT0, now)
            layer.on_downlink_packet(packet, 0, 1, now)
            if i == 0:
                data = packet
            if i >= 100:
                layer.on_ran_feedback(DeliveryStatus(0, 1, i - 100, None, now),
                                      now)
            if i == 5:
                ack = make_ack_packet(data, 1440, now)
                layer.on_uplink_packet(ack, now)  # establishes initial RTT
        flow = layer.flow_record(classic_tuple)
        flow.ece_latched = True  # simulate an earlier marking decision
        ack = make_ack_packet(data, 2880, 0.2)
        layer.on_uplink_packet(ack, 0.2)
        assert ack.ece
        # A downlink packet with CWR clears the latch.
        cwr_packet = make_data_packet(0, classic_tuple, 999_000, 1400,
                                      ECN.ECT0, 0.21)
        cwr_packet.cwr = True
        layer.on_downlink_packet(cwr_packet, 0, 1, 0.21)
        assert not flow.ece_latched

    def test_uplink_establishes_initial_rtt(self, layer, five_tuple):
        packet = make_data_packet(0, five_tuple, 0, 1400, ECN.ECT1, 0.0)
        layer.on_downlink_packet(packet, 0, 1, 0.0)
        ack = make_ack_packet(packet, 1440, 0.042, accecn=AccEcnCounters())
        layer.on_uplink_packet(ack, 0.042)
        assert layer.flow_record(five_tuple).initial_rtt == pytest.approx(0.042)

    def test_unknown_flow_ack_passes_through(self, layer, five_tuple):
        data = make_data_packet(0, five_tuple, 0, 1400, ECN.ECT1, 0.0)
        ack = make_ack_packet(data, 1440, 0.1, accecn=AccEcnCounters())
        layer.on_uplink_packet(ack, 0.1)  # no downlink seen: must not crash
        assert ack.accecn.ce_packets == 0


class TestSharedDrb:
    def test_shared_drb_uses_coupled_probability(self, sim):
        layer = L4SpanLayer(sim)
        l4s_tuple = FiveTuple("10.0.0.1", 443, "10.45.0.2", 50_000, "tcp")
        classic_tuple = FiveTuple("10.0.0.1", 443, "10.45.0.2", 50_001, "tcp")
        for i in range(150):
            now = i * 0.001
            l4s_packet = make_data_packet(0, l4s_tuple, i * 1440, 1400,
                                          ECN.ECT1, now)
            classic_packet = make_data_packet(1, classic_tuple, i * 1440, 1400,
                                              ECN.ECT0, now)
            layer.on_downlink_packet(l4s_packet, 0, 1, now)
            layer.on_downlink_packet(classic_packet, 0, 1, now)
            if i == 2:
                layer.on_uplink_packet(
                    make_ack_packet(classic_packet, 1440, now), now)
                layer.on_uplink_packet(
                    make_ack_packet(l4s_packet, 1440, now,
                                    accecn=AccEcnCounters()), now)
            if i >= 40:
                layer.on_ran_feedback(
                    DeliveryStatus(0, 1, 2 * (i - 40), None, now), now)
        state = layer.drb_state(0, 1)
        assert state.is_shared
        l4s_flow = layer.flow_record(l4s_tuple)
        classic_flow = layer.flow_record(classic_tuple)
        p_l4s = layer.mark_probability(state, l4s_flow)
        p_classic = layer.mark_probability(state, classic_flow)
        assert p_l4s > 0
        # The coupled probability is alpha * sqrt(p_classic) with alpha ~ 1.6.
        assert p_l4s == pytest.approx(
            min(1.0, (2.0 / 1.2247) * p_classic ** 0.5), rel=0.05)


class TestHousekeeping:
    def test_summary_counts(self, layer, five_tuple):
        feed_constant_rate(layer, five_tuple, packets=30)
        summary = layer.summary()
        assert summary["downlink_packets"] == 30
        assert summary["flows"] == 1
        assert summary["drbs"] == 1

    def test_profile_purged_over_time(self, sim, five_tuple):
        layer = L4SpanLayer(sim, config=L4SpanConfig(profile_horizon=0.05))
        for i in range(400):
            now = i * 0.001
            packet = make_data_packet(0, five_tuple, i * 1440, 1400, ECN.ECT1,
                                      now)
            layer.on_downlink_packet(packet, 0, 1, now)
            layer.on_ran_feedback(DeliveryStatus(0, 1, i, None, now), now)
        assert len(layer.drb_state(0, 1).profile) < 400

    def test_processing_times_recorded_when_enabled(self, sim, five_tuple):
        layer = L4SpanLayer(sim, config=L4SpanConfig(measure_processing=True))
        packet = make_data_packet(0, five_tuple, 0, 1400, ECN.ECT1, 0.0)
        layer.on_downlink_packet(packet, 0, 1, 0.0)
        layer.on_ran_feedback(DeliveryStatus(0, 1, 0, None, 0.0), 0.0)
        layer.on_uplink_packet(make_ack_packet(packet, 1440, 0.01,
                                               accecn=AccEcnCounters()), 0.01)
        assert len(layer.processing_times["downlink"]) == 1
        assert len(layer.processing_times["feedback"]) == 1
        assert len(layer.processing_times["uplink"]) == 1


# --------------------------------------------------------------------- #
# Differential test: the layer against its frozen pre-fast-path self
def _record(value):
    """A record's fields as a plain tuple (named tuple, dataclass or None)."""
    if value is None:
        return None
    return (tuple(value) if isinstance(value, tuple)
            else dataclasses.astuple(value))


#: Marking draws compared per bearer after every event.
_MARK_PROBES = 2


def _assert_layers_agree(layer, oracle) -> None:
    assert layer.summary() == oracle.summary()
    assert layer.flows == oracle.flows  # every FlowRecord field, in order
    assert list(layer.flows) == list(oracle.flows)
    assert list(layer.drb_states) == list(oracle.drb_states)
    for key, state in layer.drb_states.items():
        old = oracle.drb_states[key]
        assert str(state.key) == str(old.key) == f"ue{key[0]}/drb{key[1]}"
        assert _record(state.prediction) == _record(old.prediction)
        assert (_record(state.estimator.last_estimate)
                == _record(old.estimator.last_estimate))
        assert ((state.is_shared, set(state.classes_seen),
                 state.feedback_count, state.marks_l4s, state.marks_classic)
                == (old.is_shared, old.classes_seen, old.feedback_count,
                    old.marks_l4s, old.marks_classic))
        profile, old_profile = state.profile, old.profile
        assert ([dataclasses.astuple(entry) for entry in profile]
                == [dataclasses.astuple(entry) for entry in old_profile])
        assert ((profile.queued_bytes, profile.queued_packets,
                 profile.highest_txed_sn, profile.highest_delivered_sn,
                 profile.total_packets, profile.total_bytes)
                == (old_profile.queued_bytes, old_profile.queued_packets,
                    old_profile.highest_txed_sn,
                    old_profile.highest_delivered_sn,
                    old_profile.total_packets, old_profile.total_bytes))
        assert (profile.measured_queueing_delays()
                == old_profile.measured_queueing_delays())
        # Same marking-stream position: the layer's block reader and the
        # oracle's scalar generator hand out the same next values (reading
        # them advances both by the same count, so lockstep is kept).
        assert ([state.mark_draw() for _ in range(_MARK_PROBES)]
                == [old.mark_rng.random() for _ in range(_MARK_PROBES)])


def _assert_packets_agree(packet, twin, must_verify: bool) -> None:
    for name in ("ecn", "marked_by", "ece", "cwr", "accecn", "payload_info"):
        assert getattr(packet, name) == getattr(twin, name), name
    for side in (packet, twin):
        info = side.payload_info
        if "ip_checksum" in info:
            assert checksums_equal(info["ip_checksum"], ip_checksum_of(side))
        if side.protocol == "tcp" and "tcp_checksum" in info:
            assert checksums_equal(info["tcp_checksum"],
                                   tcp_checksum_of(side))
        assert checksums_valid(side) or not must_verify


def _differential_run(rng, steps: int) -> dict:
    """Drive the layer and the oracle with one random event interleaving.

    ``rng`` is a ``random.Random`` (Hypothesis supplies a shrinkable one).
    Both sides get equal packets with equal ids and simulators with equal
    seeds; everything observable is compared after every event.  Returns
    what the run exercised, for the coverage test.
    """
    n_ues, n_drbs = rng.randint(1, 3), rng.randint(1, 2)
    flows = []
    for index in range(rng.randint(1, 5)):
        ue_id, protocol = rng.randrange(n_ues), rng.choice(["tcp", "tcp", "udp"])
        flows.append((FiveTuple("10.0.0.1", 443, f"10.45.0.{ue_id + 2}",
                                50_000 + index, protocol),
                      ue_id, rng.randint(1, n_drbs),
                      rng.choice([ECN.ECT1, ECN.ECT1, ECN.ECT0, ECN.NOT_ECT])))
    config = L4SpanConfig(enable_shortcircuit=rng.random() < 0.7,
                          drop_non_ecn=rng.random() < 0.4,
                          sojourn_threshold=rng.choice([ms(1), ms(10)]),
                          profile_horizon=rng.choice([0.004, 0.05]))
    seed = rng.randrange(2**32)
    layer = L4SpanLayer(Simulator(seed=seed), config=config)
    oracle = ReferenceL4SpanLayer(Simulator(seed=seed),
                                  config=dataclasses.replace(config))
    sent: dict = {}        # (ue, drb) -> packets shown to the layer
    last_data: dict = {}   # flow index -> its newest data packet
    seen = {"drops": 0, "rewritten_acks": 0, "untouched_acks": 0}
    now = 0.0
    for step in range(steps):
        now += rng.choice([0.0, 0.0002, 0.001, 0.004])
        kind = rng.choice(["down"] * 4 + ["feedback"] * 3 + ["up"] * 3)
        if kind == "feedback":
            ue_id, drb_id = rng.randrange(n_ues), rng.randint(1, n_drbs)
            newest = sent.get((ue_id, drb_id), 0) - 1
            # Fresh, repeated, stale, beyond-the-table and absent SNs.
            txed, delivered = (
                None if sn < 0 or rng.random() < 0.15 else sn
                for sn in (newest - rng.choice([0, 0, 1, 3, -2]),
                           newest - rng.choice([0, 2, 5, -1])))
            status = DeliveryStatus(ue_id, drb_id, txed, delivered, now)
            layer.on_ran_feedback(status, now)
            oracle.on_ran_feedback(status, now)
            _assert_layers_agree(layer, oracle)
            continue
        index = rng.randrange(len(flows))
        five_tuple, ue_id, drb_id, ecn = flows[index]
        precomputed = rng.random() < 0.5
        if kind == "down":
            if rng.random() < 0.05:
                ecn = ECN.CE          # marked upstream of the RAN
            if rng.random() < 0.05:
                drb_id = rng.randint(1, n_drbs)   # SDAP re-mapped the flow
            packet = make_data_packet(index, five_tuple, step * 1400,
                                      rng.choice([1, 37, 1399, 1400]), ecn,
                                      now, protocol=five_tuple.protocol)
            packet.cwr = rng.random() < 0.1
            last_data[index] = packet
            sent[(ue_id, drb_id)] = sent.get((ue_id, drb_id), 0) + 1
        else:
            data = last_data.get(index)
            if data is None or rng.random() < 0.1:
                # An ACK of a flow the layer has never seen downlink.
                data = make_data_packet(99, FiveTuple("10.9.9.9", 1, "10.8.8.8",
                                                      2), 0, 10, ecn, now)
            packet = make_ack_packet(
                data, step, now, ece=rng.random() < 0.2,
                accecn=(AccEcnCounters(rng.randrange(5), rng.randrange(9000),
                                       rng.randrange(2**33), 3)
                        if rng.random() < 0.6 else None))
            packet.is_ack = rng.random() < 0.95
        packet.packet_id = step
        if precomputed:
            recompute_checksums(packet)
        twin = copy.deepcopy(packet)
        before = layer.shortcircuited_acks
        if kind == "down":
            layer.on_downlink_packet(packet, ue_id, drb_id, now)
            oracle.on_downlink_packet(twin, ue_id, drb_id, now)
            seen["drops"] += bool(packet.payload_info.get("l4span_drop"))
        else:
            layer.on_uplink_packet(packet, now)
            oracle.on_uplink_packet(twin, now)
        rewritten = layer.shortcircuited_acks > before
        seen["rewritten_acks" if rewritten else "untouched_acks"] += (
            kind == "up")
        _assert_packets_agree(packet, twin,
                              must_verify=precomputed or rewritten)
        _assert_layers_agree(layer, oracle)
    states = layer.drb_states.values()
    seen.update(
        marked=layer.marked_packets,  # every mark is a marking-stream draw
        shared=sum(state.is_shared for state in states),
        purged=sum(state.profile.total_packets - len(state.profile)
                   for state in states))
    return seen


class TestAgainstReferenceLayer:
    """``tests/reference_l4span_layer.py`` is the parent commit's layer."""

    @settings(max_examples=80, deadline=None)
    @given(rng=st.randoms(use_true_random=False),
           steps=st.integers(5, 160))
    def test_every_event_leaves_both_layers_equal(self, rng, steps):
        _differential_run(rng, steps)

    def test_the_interleavings_reach_every_branch(self):
        """The generator is only worth its comparisons if it marks, drops,
        rewrites, purges and shares bearers -- count that it does."""
        total: dict = {}
        for seed in range(12):
            for name, count in _differential_run(random.Random(seed),
                                                 400).items():
                total[name] = total.get(name, 0) + count
        assert all(count > 0 for count in total.values()), total
