"""Tests for the process-per-cell sharding runtime.

The load-bearing property is the determinism contract: for a fixed spec the
sharded run produces per-flow metrics identical to the single event loop,
for any shard count and across repeats.  The conservative boundary (the
inject handlers, the lateness guard, stray packets at a shard core) is
additionally exercised directly with hand-built shard hosts, since
boundary-free splits keep each flow's whole path inside one shard.
"""

from __future__ import annotations

import dataclasses
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.presets import make_preset
from repro.experiments.results import dump_document, result_document
from repro.experiments.scenario import (WIRED_MIDDLEBOX_QUEUE_BYTES,
                                        assemble_result, min_snr_commit_lag,
                                        run_scenario, wan_one_way_legs)
from repro.experiments.sharded import (ConservativeSyncError, ShardHost,
                                       ShardPlanError, boundary_lookahead,
                                       build_shard_plan, run_scenario_sharded,
                                       sharding_blockers, split_spec)
from repro.experiments.spec import (CellSpec, HandoverSpec, MobilitySpec,
                                    PopulationSpec, ScenarioSpec,
                                    ShardingSpec, UeSpec)
from repro.net.addresses import FiveTuple, ue_ip_address
from repro.net.ecn import ECN
from repro.net.packet import make_data_packet
from repro.ran.core import CORE_PROCESSING_DELAY
from repro.units import mbps, ms
from repro.workloads.flows import FlowSpec


def _two_cell_static(duration: float = 1.5) -> ScenarioSpec:
    base = make_preset("two-cell-imbalance")
    return dataclasses.replace(
        base, duration_s=duration,
        ues=[dataclasses.replace(ue, channel_profile="static")
             for ue in base.ues])


def _high_ue_id_spec(duration: float = 0.6) -> ScenarioSpec:
    """UEs 250/251 share UEs 0/1's host byte (``.2``/``.3``) in the next
    client /24, each on the other cell."""
    return ScenarioSpec(
        name="high-ue-ids", duration_s=duration, num_ues=0, marker="l4span",
        cells=[CellSpec(cell_id=0), CellSpec(cell_id=1)],
        ues=[UeSpec(ue_id=0, cell_id=0, channel_profile="static"),
             UeSpec(ue_id=1, cell_id=1, channel_profile="static"),
             UeSpec(ue_id=250, cell_id=1, channel_profile="static"),
             UeSpec(ue_id=251, cell_id=0, channel_profile="static")],
        flows=[FlowSpec(flow_id=0, ue_id=0, cc_name="prague"),
               FlowSpec(flow_id=1, ue_id=1, cc_name="cubic",
                        start_time=0.02),
               FlowSpec(flow_id=2, ue_id=250, cc_name="prague",
                        start_time=0.01, wan_rtt=ms(30)),
               FlowSpec(flow_id=3, ue_id=251, cc_name="cubic",
                        start_time=0.03, wan_rtt=ms(40))],
        sharding=ShardingSpec(mode="auto", shards=2))


def _flows_equal(a, b) -> bool:
    return (a.flow_id == b.flow_id and a.ue_id == b.ue_id
            and a.cc_name == b.cc_name
            and a.owd_samples == b.owd_samples
            and list(a.rtt_samples) == list(b.rtt_samples)
            and a.goodput_bytes_per_s == b.goodput_bytes_per_s
            and a.completion_time == b.completion_time
            and a.congestion_events == b.congestion_events
            and a.marked_fraction == b.marked_fraction)


# --------------------------------------------------------------------- #
# Planning and spec splitting
# --------------------------------------------------------------------- #
class TestShardPlanning:
    def test_auto_plan_round_robins_cells(self):
        spec = make_preset("eight-cell")
        plan = build_shard_plan(spec, shards=3)
        assert plan.num_shards == 3
        assert plan.assignment == {c: c % 3 for c in range(8)}
        assert set().union(*(plan.cells_of(s) for s in range(3))) == set(range(8))

    def test_explicit_plan_renumbers_densely(self):
        spec = dataclasses.replace(
            _two_cell_static(),
            sharding=ShardingSpec(mode="explicit", map={0: 7, 1: 3}))
        plan = build_shard_plan(spec)
        assert plan.num_shards == 2
        assert plan.assignment == {0: 1, 1: 0}

    def test_explicit_plan_missing_cell_rejected(self):
        spec = dataclasses.replace(
            _two_cell_static(),
            sharding=ShardingSpec(mode="explicit", map={0: 0}))
        with pytest.raises(ValueError, match="misses cell"):
            spec.validate()

    def test_explicit_plan_unknown_cell_rejected(self):
        """A typo'd map key must fail fast, not silently reshape the plan."""
        spec = dataclasses.replace(
            _two_cell_static(),
            sharding=ShardingSpec(mode="explicit", map={0: 0, 1: 0, 9: 1}))
        with pytest.raises(ValueError, match="unknown cell"):
            spec.validate()

    def test_lookahead_is_min_wan_leg(self):
        spec = ScenarioSpec(flows=[
            FlowSpec(flow_id=0, ue_id=0, cc_name="prague", wan_rtt=ms(18)),
            FlowSpec(flow_id=1, ue_id=1, cc_name="prague")])
        assert boundary_lookahead(spec) == pytest.approx(ms(9))

    @given(rtts=st.lists(st.one_of(st.none(), st.floats(1e-5, 0.5)),
                         min_size=0, max_size=6),
           default_rtt=st.floats(1e-3, 0.3))
    @settings(max_examples=100, deadline=None)
    def test_commit_lag_is_built_from_the_one_lookahead(self, rtts,
                                                        default_rtt):
        """Exact SNR commits need the lag's lookahead term to *be* the
        barrier's: both come from the one per-flow leg helper."""
        spec = ScenarioSpec(wan_rtt=default_rtt, num_ues=len(rtts) or 1,
                            flows=[FlowSpec(flow_id=i, ue_id=i,
                                            cc_name="prague", wan_rtt=rtt)
                                   for i, rtt in enumerate(rtts)] or None)
        legs = wan_one_way_legs(spec)
        assert list(legs) == [f.flow_id for f in spec.resolved_flows()]
        assert boundary_lookahead(spec) == max(min(legs.values()), 1e-4)
        assert min_snr_commit_lag(spec) == (boundary_lookahead(spec)
                                            + max(legs.values())
                                            + CORE_PROCESSING_DELAY)

    def test_wired_bottleneck_shards_bit_identically(self):
        """The coupled-topology protocol: a shared middlebox no longer
        blocks sharding — the queue is hosted on one shard and every flow
        crosses it, yet per-flow metrics match the single loop exactly."""
        spec = dataclasses.replace(_two_cell_static(duration=1.0),
                                   wired_bottleneck_mbps=20.0)
        assert sharding_blockers(spec) == []
        single = run_scenario(
            dataclasses.replace(spec, sharding=ShardingSpec(mode="off")))
        sharded = run_scenario_sharded(spec, shards=2, inprocess=True)
        assert all(_flows_equal(a, b)
                   for a, b in zip(single.flows, sharded.flows))
        assert sharded.sharding_stats["boundary_required"]
        assert sharded.sharding_stats["shards"] == 2

    def test_zero_rate_middlebox_schedule_shards_bit_identically(self):
        """A zero-rate step stalls the shared queue mid-run; the window
        floor rests at the schedule's rate-resume event and per-flow
        metrics still match the single loop exactly."""
        spec = dataclasses.replace(_two_cell_static(duration=1.2),
                                   wired_bottleneck_mbps=20.0,
                                   wired_bottleneck_schedule=[(0.5, 0.0),
                                                              (0.8, 20.0)])
        assert sharding_blockers(spec) == []
        single = run_scenario(
            dataclasses.replace(spec, sharding=ShardingSpec(mode="off")))
        sharded = run_scenario_sharded(spec, shards=2, inprocess=True)
        assert not sharded.sharding_stats.get("fallback")
        assert all(_flows_equal(a, b)
                   for a, b in zip(single.flows, sharded.flows))

    def test_zero_rate_stall_to_horizon_shards_bit_identically(self):
        """A stall that never resumes constrains no window (its queue
        never egresses again, exactly like the single loop's)."""
        spec = dataclasses.replace(_two_cell_static(duration=1.0),
                                   wired_bottleneck_mbps=20.0,
                                   wired_bottleneck_schedule=[(0.4, 0.0)])
        assert sharding_blockers(spec) == []
        single = run_scenario(
            dataclasses.replace(spec, sharding=ShardingSpec(mode="off")))
        sharded = run_scenario_sharded(spec, shards=2, inprocess=True)
        assert not sharded.sharding_stats.get("fallback")
        assert all(_flows_equal(a, b)
                   for a, b in zip(single.flows, sharded.flows))

    def test_explicit_plan_conflicting_shards_override_rejected(self):
        spec = dataclasses.replace(
            _two_cell_static(),
            sharding=ShardingSpec(mode="explicit", map={0: 0, 1: 1}))
        with pytest.raises(ShardPlanError, match="conflicts"):
            build_shard_plan(spec, shards=4)
        # A matching override is redundant but legal.
        assert build_shard_plan(spec, shards=2).num_shards == 2

    @pytest.mark.parametrize("same_shard", [False, True],
                             ids=["cross-shard", "same-shard"])
    def test_high_ue_ids_shard_in_one_window(self, same_shard):
        """Ids past 250 move to the next client /24 instead of wrapping
        onto a lower id's address: every flow is delivered, nothing couples
        the cells, and the split runs one window equal to the single loop —
        with the host-byte twins on two shards or on one."""
        spec = _high_ue_id_spec()
        if same_shard:
            spec = dataclasses.replace(spec, ues=[
                dataclasses.replace(ue, cell_id=ue.ue_id % 250)
                for ue in spec.ues])
        assert sharding_blockers(spec) == []
        single = run_scenario(
            dataclasses.replace(spec, sharding=ShardingSpec(mode="off")))
        sharded = run_scenario_sharded(spec, shards=2, inprocess=True)
        stats = sharded.sharding_stats
        assert not stats.get("fallback")
        assert stats["windows"] == 1 and not stats["boundary_required"]
        assert all(flow.goodput_bytes_per_s > 0 for flow in single.flows)
        assert all(_flows_equal(a, b)
                   for a, b in zip(single.flows, sharded.flows))
        assert single.per_ue_throughput == sharded.per_ue_throughput

    def test_mobile_high_ue_id_shards_bit_identically(self):
        """A UE past id 250 hands over like any other: no blocker, and the
        sharded run equals the single loop, handover record included."""
        spec = dataclasses.replace(
            _high_ue_id_spec(),
            mobility=MobilitySpec(mode="schedule", handovers=[
                HandoverSpec(time=0.2, ue_id=250, target_cell=0)]),
            sharding=ShardingSpec(mode="explicit", map={0: 0, 1: 1}))
        assert sharding_blockers(spec) == []
        single = run_scenario(
            dataclasses.replace(spec, sharding=ShardingSpec(mode="off")))
        sharded = run_scenario_sharded(spec, inprocess=True)
        assert not sharded.sharding_stats.get("fallback")
        assert len(single.handovers) == 1
        assert single.handovers == sharded.handovers
        assert all(_flows_equal(a, b)
                   for a, b in zip(single.flows, sharded.flows))

    def test_split_spec_partitions_cells_ues_flows(self):
        spec = make_preset("eight-cell").validate()
        plan = build_shard_plan(spec, shards=4)
        subs = split_spec(spec, plan)
        assert len(subs) == 4
        seen_cells, seen_ues, seen_flows = set(), set(), set()
        for sub in subs:
            sub.validate()
            assert sub.seed == spec.seed  # the determinism contract
            assert not sub.sharding.enabled
            seen_cells.update(c.cell_id for c in sub.cells)
            seen_ues.update(u.ue_id for u in sub.ues)
            seen_flows.update(f.flow_id for f in sub.resolved_flows())
        assert seen_cells == set(range(8))
        assert seen_ues == set(range(8))
        assert seen_flows == set(range(8))


# --------------------------------------------------------------------- #
# The acceptance property: sharded == single loop, per flow
# --------------------------------------------------------------------- #
class TestShardDeterminism:
    def test_two_cell_sharded_matches_single_loop(self):
        spec = _two_cell_static()
        single = run_scenario(spec)
        sharded = run_scenario_sharded(spec, shards=2, inprocess=True)
        assert len(single.flows) == len(sharded.flows) == 4
        for a, b in zip(single.flows, sharded.flows):
            assert _flows_equal(a, b)
        assert single.queue_length_samples == sharded.queue_length_samples
        assert single.queue_length_by_drb == sharded.queue_length_by_drb
        assert single.per_ue_throughput == sharded.per_ue_throughput
        assert single.marker_summary == sharded.marker_summary
        for key, value in single.delay_breakdown.items():
            assert sharded.delay_breakdown[key] == pytest.approx(value)

    def test_eight_cell_shards4_matches_single_loop(self):
        """The acceptance criterion: 8-cell preset, 4 shards, identical."""
        spec = dataclasses.replace(make_preset("eight-cell"), duration_s=1.0)
        single = run_scenario(spec)
        sharded = run_scenario_sharded(spec, shards=4, inprocess=True)
        assert len(sharded.flows) == 8
        for a, b in zip(single.flows, sharded.flows):
            assert _flows_equal(a, b)
        assert single.queue_length_by_drb == sharded.queue_length_by_drb

    def test_population_counters_merge_like_the_single_loop(self):
        """Two population cells per shard: the background counters are
        summed cell by cell in declaration order, as the single loop sums
        them, not shard by shard (which moved the last bits of
        ``served_bytes``)."""
        spec = ScenarioSpec(
            name="population-cells", duration_s=0.4, num_ues=0,
            marker="l4span", seed=0,
            cells=[CellSpec(cell_id=cell) for cell in range(4)],
            ues=[UeSpec(ue_id=ue, cell_id=ue, channel_profile="static")
                 for ue in range(4)],
            flows=[FlowSpec(flow_id=ue, ue_id=ue, cc_name="prague")
                   for ue in range(4)],
            population=PopulationSpec(n_background=40,
                                      churn_rate_per_s=50.0))
        single = run_scenario(spec)
        sharded = run_scenario_sharded(spec, shards=2, inprocess=True)
        assert sharded.background == single.background

    def test_sharded_run_reproducible_across_repeats_and_shard_counts(self):
        spec = dataclasses.replace(make_preset("eight-cell"), duration_s=1.0)
        runs = [run_scenario_sharded(spec, shards=n, inprocess=True)
                for n in (2, 2, 4, 8)]
        reference = runs[0]
        for other in runs[1:]:
            for a, b in zip(reference.flows, other.flows):
                assert _flows_equal(a, b)
            assert reference.queue_length_by_drb == other.queue_length_by_drb

    def test_explicit_map_matches_auto(self):
        spec = _two_cell_static()
        auto = run_scenario_sharded(spec, shards=2, inprocess=True)
        explicit = run_scenario_sharded(
            dataclasses.replace(spec, sharding=ShardingSpec(
                mode="explicit", map={0: 1, 1: 0})),
            inprocess=True)
        for a, b in zip(auto.flows, explicit.flows):
            assert _flows_equal(a, b)

    def test_spec_sharding_block_drives_run_scenario(self):
        spec = dataclasses.replace(
            _two_cell_static(), sharding=ShardingSpec(mode="auto", shards=2))
        import os
        os.environ["REPRO_SHARD_INPROCESS"] = "1"
        try:
            via_spec = run_scenario(spec)
        finally:
            del os.environ["REPRO_SHARD_INPROCESS"]
        plain = run_scenario(dataclasses.replace(spec,
                                                 sharding=ShardingSpec()))
        for a, b in zip(plain.flows, via_spec.flows):
            assert _flows_equal(a, b)

    def test_sharding_spec_json_round_trip(self):
        spec = dataclasses.replace(
            _two_cell_static(),
            sharding=ShardingSpec(mode="explicit", map={0: 0, 1: 1}))
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.sharding.map == {0: 0, 1: 1}  # int keys survive JSON


# --------------------------------------------------------------------- #
# Worker-process synchronizer (the real multiprocessing path)
# --------------------------------------------------------------------- #
class TestProcessSynchronizer:
    def test_process_run_matches_inprocess_run(self):
        spec = _two_cell_static(duration=1.0)
        inproc = run_scenario_sharded(spec, shards=2, inprocess=True)
        # Graceful degrade means this passes either way; when processes are
        # available the comparison exercises pickling and the pipe protocol.
        procs = run_scenario_sharded(spec, shards=2, inprocess=False)
        for a, b in zip(inproc.flows, procs.flows):
            assert _flows_equal(a, b)
        assert inproc.queue_length_by_drb == procs.queue_length_by_drb


# --------------------------------------------------------------------- #
# The conservative boundary itself (cross-shard packet exchange)
# --------------------------------------------------------------------- #
class TestBoundaryExchange:
    def _host(self, ue_id: int, shard: int) -> ShardHost:
        sub = ScenarioSpec(
            name=f"boundary-shard{shard}", num_ues=0, duration_s=1.0,
            channel_profile="static",
            cells=[CellSpec(cell_id=shard)],
            ues=[UeSpec(ue_id=ue_id, cell_id=shard)],
            flows=[FlowSpec(flow_id=ue_id, ue_id=ue_id, cc_name="prague")])
        return ShardHost(sub, shard)

    def _stray(self, ue_id: int):
        return make_data_packet(
            flow_id=ue_id, five_tuple=FiveTuple(
                src_ip="10.0.0.1", src_port=443,
                dst_ip=ue_ip_address(ue_id), dst_port=50_000 + ue_id,
                protocol="tcp"),
            seq=0, payload=1200, ecn=ECN.ECT1, now=0.0)

    def test_stray_downlink_at_a_shard_core_raises_keyerror(self):
        """Every cross-shard downlink is cut and pre-routed at WAN entry; a
        datagram for a UE another shard hosts that still reaches this
        shard's core is a routing bug, and it fails as loudly as the
        single core's unknown address does — no boundary item, no drop."""
        host = self._host(ue_id=0, shard=0)
        assert host.scenario.core.remote_sink is None
        host.scenario.sim.schedule_at(0.005, host.scenario.core.receive,
                                      self._stray(ue_id=1))
        with pytest.raises(KeyError, match="no UE registered for "
                                           + ue_ip_address(1)):
            host.advance(0.02)
        # A mis-targeted boundary item ends at the same core entry point.
        other = self._host(ue_id=0, shard=0)
        other.inject([(0.005, self._stray(ue_id=1), "core_dl", 0)])
        with pytest.raises(KeyError, match="no UE registered"):
            other.advance(0.02)

    def test_stray_uplink_is_dropped_like_the_single_loop(self):
        """An ACK of a flow no local WAN path serves is dropped silently
        (and counted) by the single core; a shard core does the same and
        hands nothing to the boundary."""
        host = self._host(ue_id=0, shard=0)
        ack = self._stray(ue_id=1)
        ack.is_ack = True
        host.scenario.sim.schedule_at(0.005,
                                      host.scenario.core.receive_uplink, ack)
        before = host.scenario.core.uplink_packets
        assert host.advance(0.02) == []
        assert host.scenario.core.uplink_packets > before

    def test_collision_free_plan_runs_one_window(self):
        """No cross-shard route -> unbounded lookahead -> single window
        (the boundary machinery stays armed but never exchanges)."""
        result = run_scenario_sharded(_two_cell_static(duration=0.5),
                                      shards=2, inprocess=True)
        stats = result.sharding_stats
        assert stats["windows"] == 1
        assert stats["window_bounds"]["lookahead"] == 1
        assert not stats["boundary_required"]
        assert stats["routed_packets"] == 0

    def test_late_boundary_packet_raises(self):
        host = self._host(ue_id=0, shard=0)
        host.advance(0.04)
        with pytest.raises(ConservativeSyncError):
            host.inject([(0.02, self._stray(ue_id=0), "core_dl", 0)])

    def test_unknown_boundary_item_mode_raises(self):
        """Protocol corruption (an unrecognised mode tag) must fail fast,
        not silently drop the payload."""
        host = self._host(ue_id=0, shard=0)
        with pytest.raises(ValueError, match="unknown boundary item mode"):
            host.inject([(0.5, object(), "warp_drive", 0)])


# --------------------------------------------------------------------- #
# Merge step
# --------------------------------------------------------------------- #
class TestMergeStep:
    def test_merged_result_schema_matches_single_loop(self):
        spec = _two_cell_static(duration=1.0)
        single = run_scenario(spec)
        sharded = run_scenario_sharded(spec, shards=2, inprocess=True)
        assert dataclasses.asdict(single).keys() == \
            dataclasses.asdict(sharded).keys()
        assert single.summary().keys() == sharded.summary().keys()
        # events differ only by the extra per-shard sampler/probe ticks
        assert sharded.events_processed >= single.events_processed

    def test_merge_orders_flows_and_queues_by_full_spec(self):
        spec = _two_cell_static(duration=1.0).validate()
        plan = build_shard_plan(spec, shards=2)
        subs = split_spec(spec, plan)
        hosts = [ShardHost(sub, i) for i, sub in enumerate(subs)]
        for host in hosts:  # boundary-free: one window to the horizon
            assert host.advance(spec.duration_s) == []
        # Merge with the shard parts deliberately reversed: ordering must
        # come from the spec and the shard index, not from worker
        # completion order — over the whole document, byte for byte.
        parts = [host.finish() for host in hosts]
        merged = assemble_result(spec, parts[::-1])
        assert [f.flow_id for f in merged.flows] == \
            [f.flow_id for f in spec.resolved_flows()]
        single = run_scenario(spec)
        assert list(merged.queue_length_by_drb) == \
            list(single.queue_length_by_drb)
        assert dump_document(result_document(merged)) == \
            dump_document(result_document(assemble_result(spec, parts)))


def _packet(seq: int, payload: int = 1200):
    return make_data_packet(
        flow_id=0, five_tuple=FiveTuple(
            src_ip="10.0.0.1", src_port=443, dst_ip="10.45.0.2",
            dst_port=50_000, protocol="tcp"),
        seq=seq, payload=payload, ecn=ECN.ECT1, now=0.0)


class TestEgressPredictor:
    """The middlebox egress predictor against a real Link.

    The sharded runtime hands remote-bound packets off at *predicted*
    egress times, so the predictor must reproduce the link's completion
    times to the last bit — equality below is ``==``, never ``approx``.
    """

    #: name -> (arrival times, rate schedule, buffer bytes)
    CASES = {
        "back_to_back": ([0.01, 0.01, 0.01, 0.0101, 0.0102], [],
                         WIRED_MIDDLEBOX_QUEUE_BYTES),
        "idle_gap": ([0.01, 0.0101, 0.2, 0.2001, 0.5], [],
                     WIRED_MIDDLEBOX_QUEUE_BYTES),
        "rate_step_while_queued": (
            [0.01 + 0.0001 * i for i in range(12)], [(0.012, 3.0)],
            WIRED_MIDDLEBOX_QUEUE_BYTES),
        "zero_rate_stall_with_resume": (
            [0.01 + 0.001 * i for i in range(8)],
            [(0.0105, 0.0), (0.3, 10.0)], WIRED_MIDDLEBOX_QUEUE_BYTES),
        # The second zero step is a no-op on a stalled link, not a resume.
        "stall_to_the_horizon": (
            [0.01 + 0.001 * i for i in range(6)],
            [(0.0125, 0.0), (0.5, 0.0)], WIRED_MIDDLEBOX_QUEUE_BYTES),
        # One sender event emits a whole window at one instant: the first
        # packet is on the wire (not in the buffer) when the rest arrive.
        "same_instant_burst_overflow": ([0.01] * 6 + [0.02], [], 2500),
        "drop_tail_overflow": (
            [0.01 + 0.0001 * i for i in range(20)] + [0.05, 0.0501],
            [], 4000),
    }

    @staticmethod
    def _link_egress(arrivals, schedule, queue_bytes, horizon=1.0):
        from repro.net.link import Link
        from repro.sim.engine import Simulator

        sim = Simulator(seed=0)
        delivered = []

        class Sink:
            def receive(self, packet):
                delivered.append((sim.now, packet.seq))

        link = Link(sim, rate=mbps(5.0), sink=Sink(),
                    queue_bytes=queue_bytes)
        for start, rate in schedule:
            sim.schedule_at(start, link.set_rate, mbps(rate))
        for index, arrival in enumerate(arrivals):
            sim.schedule_at(arrival, link.receive, _packet(index))
        sim.run(until=horizon)
        return delivered, link

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_predicts_link_completions_exactly(self, case):
        from repro.experiments.sharded import _EgressPredictor

        arrivals, schedule, queue_bytes = self.CASES[case]
        delivered, link = self._link_egress(arrivals, schedule, queue_bytes)
        predictor = _EgressPredictor(mbps(5.0), schedule, queue_bytes)
        size = _packet(0).size
        predicted = [(predictor.admit(arrival, size), index)
                     for index, arrival in enumerate(arrivals)]
        dropped = [index for egress, index in predicted if egress is None]
        assert [(egress, index) for egress, index in predicted
                if egress is not None and egress <= 1.0] == delivered
        assert len(dropped) == link.queue.dropped_packets
        # Each case exercises the branch it is named after.
        if case == "drop_tail_overflow":
            assert dropped and delivered[-1][1] == len(arrivals) - 1
        if case == "same_instant_burst_overflow":
            assert dropped == [3, 4, 5]
        if case == "stall_to_the_horizon":
            assert predicted[-1][0] == float("inf")
            assert 0 < len(delivered) < len(arrivals)
        if case == "zero_rate_stall_with_resume":
            assert len(delivered) == len(arrivals)
            assert delivered[1][0] == 0.3 + size / mbps(10.0)

    def test_corrupt_prediction_trips_the_verifier(self, monkeypatch):
        """The real link verifies every prediction at egress: a predicted
        time that is off by a nanosecond must stop the run."""
        from repro.experiments import sharded

        admit = sharded._EgressPredictor.admit
        calls = []

        def skewed(self, arrival, size):
            calls.append(arrival)
            egress = admit(self, arrival, size)
            return egress + 1e-9 if len(calls) == 40 else egress

        monkeypatch.setattr(sharded._EgressPredictor, "admit", skewed)
        spec = dataclasses.replace(_two_cell_static(duration=1.0),
                                   wired_bottleneck_mbps=20.0)
        with pytest.raises(ConservativeSyncError, match="predicted"):
            run_scenario_sharded(spec, shards=2, inprocess=True)
        assert len(calls) >= 40


class TestBarrierWindows:
    """What the coupled barrier costs, and what each window waited on."""

    def test_coupled_core_needs_few_windows_and_stays_exact(self):
        """Egress prediction released in the barrier that learns ``K``: one
        window per lookahead (plus the commit-capped ones) instead of one
        per middlebox egress, per-flow results untouched."""
        spec = dataclasses.replace(make_preset("coupled-core"),
                                   duration_s=1.0)
        single = run_scenario(
            dataclasses.replace(spec, sharding=ShardingSpec(mode="off")))
        for shards in (2, 4):
            sharded = run_scenario_sharded(spec, shards=shards,
                                           inprocess=True)
            assert all(_flows_equal(a, b)
                       for a, b in zip(single.flows, sharded.flows))
            stats = sharded.sharding_stats
            assert stats["windows"] <= (spec.duration_s / stats["lookahead"]
                                        + stats["window_bounds"]["commit"] + 2)

    @pytest.mark.parametrize("preset", ["coupled-core", "handover"])
    def test_window_bounds_account_for_every_window(self, preset):
        from repro.experiments.results import result_document

        spec = dataclasses.replace(make_preset(preset), duration_s=2.5)
        result = run_scenario_sharded(spec, shards=2, inprocess=True)
        sharding = result_document(result)["sharding"]
        bounds = sharding["window_bounds"]
        assert set(bounds) == {"lookahead", "commit", "jump"}
        assert sum(bounds.values()) == sharding["windows"]
        if preset == "coupled-core":
            assert bounds["lookahead"] > 0
            assert bounds["commit"] >= 1 and bounds["jump"] == 0
        else:
            assert bounds["jump"] >= 1


class TestWorkerDeath:
    def test_dead_worker_raises_typed_error_promptly(self, monkeypatch):
        """A shard worker killed mid-run surfaces as ShardWorkerDied naming
        the shard, the window and the exit code — not a bare EOFError, not
        a hang — and leaves no child process behind."""
        import multiprocessing
        import os
        import time

        from repro.experiments.sharded import ShardWorkerDied

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method to patch the worker")
        advance = ShardHost.advance
        windows = count()

        def dying_advance(self, until):
            if self.shard_index == 1 and next(windows) == 20:
                os._exit(13)
            return advance(self, until)

        monkeypatch.setattr(ShardHost, "advance", dying_advance)
        spec = dataclasses.replace(make_preset("coupled-core"),
                                   duration_s=1.0)
        started = time.monotonic()
        with pytest.raises(ShardWorkerDied) as caught:
            run_scenario_sharded(spec, shards=2, inprocess=False,
                                 start_method="fork")
        assert time.monotonic() - started < 30.0
        message = str(caught.value)
        assert "shard 1" in message and "window 21" in message
        assert "exit code 13" in message
        assert multiprocessing.active_children() == []


def _require_fork() -> None:
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs the fork start method to patch the worker")


def _coupled_core(duration: float = 1.0) -> ScenarioSpec:
    return dataclasses.replace(make_preset("coupled-core"),
                               duration_s=duration)


class TestShardFailures:
    """Every way a sharded run can fail is typed, prompt and leaves no
    child process behind — whichever side of the pipe the shard is on."""

    def test_local_shard_failure_keeps_its_type_and_reaps_workers(
            self, monkeypatch):
        """Shard 0 lives in the coordinator: its exception propagates as
        itself, not as a worker-failed RuntimeError, and the workers that
        were waiting for the next barrier are terminated."""
        import multiprocessing
        import time

        _require_fork()

        class LocalShardBroke(Exception):
            pass

        advance = ShardHost.advance
        windows = count()

        def failing_advance(self, until):
            if self.shard_index == 0 and next(windows) == 20:
                raise LocalShardBroke("window 21 of shard 0")
            return advance(self, until)

        monkeypatch.setattr(ShardHost, "advance", failing_advance)
        started = time.monotonic()
        with pytest.raises(LocalShardBroke, match="window 21 of shard 0"):
            run_scenario_sharded(_coupled_core(), shards=3, inprocess=False,
                                 start_method="fork")
        assert time.monotonic() - started < 30.0
        assert multiprocessing.active_children() == []

    def test_remote_exception_names_the_shard_and_ships_its_traceback(
            self, monkeypatch):
        import multiprocessing

        _require_fork()
        advance = ShardHost.advance
        windows = count()

        def failing_advance(self, until):
            if self.shard_index == 1 and next(windows) == 5:
                raise ValueError("remote boom")
            return advance(self, until)

        monkeypatch.setattr(ShardHost, "advance", failing_advance)
        with pytest.raises(RuntimeError) as caught:
            run_scenario_sharded(_coupled_core(), shards=3, inprocess=False,
                                 start_method="fork")
        message = str(caught.value)
        assert message.startswith("shard 1 worker failed:")
        assert "Traceback" in message and "failing_advance" in message
        assert "ValueError: remote boom" in message
        assert multiprocessing.active_children() == []

    def test_failed_worker_start_reaps_and_reruns_all_local(
            self, monkeypatch):
        """EAGAIN on the second fork: the first worker is reaped, one
        warning says so, and the all-local rerun returns the document an
        ``inprocess=True`` run does (window counters included)."""
        import errno
        import multiprocessing
        import warnings
        from multiprocessing.process import BaseProcess

        from repro.experiments.results import result_document

        _require_fork()
        spec = _coupled_core()
        expected = result_document(
            run_scenario_sharded(spec, shards=3, inprocess=True))
        start = BaseProcess.start
        workers = []

        def second_start_fails(self):
            workers.append(self)
            if len(workers) == 2:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            start(self)

        monkeypatch.setattr(BaseProcess, "start", second_start_fails)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_scenario_sharded(spec, shards=3, inprocess=False,
                                          start_method="fork")
        assert [str(w.message) for w in caught
                if "unavailable" in str(w.message)] == [
            "shard worker processes unavailable ([Errno 11] Resource "
            "temporarily unavailable); running all 3 shards in-process "
            "(same results, no parallel speedup)"]
        assert caught[0].filename == __file__
        assert len(workers) == 2
        assert workers[0].exitcode is not None and not workers[0].is_alive()
        assert multiprocessing.active_children() == []
        assert result_document(result) == expected


class _FakeHost:
    """A shard host that simulates nothing and logs what the loop asks."""

    def __init__(self, index, log, outbound=None, release=None):
        self.index, self.log = index, log
        self._outbound, self._release = outbound, release

    def inject(self, batch):
        self.log.append(("inject", self.index, [item[1] for item in batch]))

    def release(self, frontier):
        self.log.append(("release", self.index, frontier))
        return self._release(frontier) if self._release else []

    def advance(self, until):
        self.log.append(("advance", self.index, until))
        return self._outbound(self.index, until) if self._outbound else []

    def peek(self):
        return None

    def boundary_idle(self):
        return False

    def finish(self):
        return f"result{self.index}"


class _FakePipe:
    """A pipe transport with nobody behind it; keeps what it was sent."""

    def __init__(self, index, log, outbound=None):
        self.index, self.log, self._outbound = index, log, outbound
        self.inbox = []

    def proceed(self, inbound, next_window):
        self.log.append(("proceed", self.index, next_window))
        self.inbox.append(inbound)
        self.window_end = next_window

    def collect(self):
        self.log.append(("collect", self.index))
        batch = (self._outbound(self.index, self.window_end)
                 if self._outbound else [])
        return batch, None, False

    def result(self):
        return f"result{self.index}"


class TestBarrierLoop:
    """The one window loop, over local and pipe transports."""

    def test_pipes_proceed_before_locals_advance_and_reports_keep_shard_order(
            self):
        """No processes: fake hosts behind real local transports, fake
        pipe transports, the real router and synchronizer."""
        from repro.experiments.sharded import (_BoundaryRouter, _LocalShard,
                                               _run_shards, _SyncPlan)

        log = []

        def outbound(index, until):
            # Same-instant items for shard 0: only the collection order
            # decides how the router's stable sort leaves them.  Stamped
            # at the window end, they hold the frontier one lookahead on.
            return [(until, f"from{index}", "core_dl", 0)] if index else []

        shards = [_LocalShard(_FakeHost(0, log, outbound)),
                  _FakePipe(1, log, outbound),
                  _LocalShard(_FakeHost(2, log, outbound)),
                  _FakePipe(3, log, outbound)]
        router = _BoundaryRouter(num_shards=4)
        sync = _SyncPlan(horizon=0.1, lookahead=0.02, coupling=[],
                         always_coupled=True)
        seen = []
        results = _run_shards(shards, router, sync, on_window=seen.append)

        assert results == ["result0", "result1", "result2", "result3"]
        assert sync.windows == len(seen) == 5
        assert seen == sorted(seen) and seen[-1] == sync.horizon
        for window_end in seen:
            advances = [log.index(("advance", index, window_end))
                        for index in (0, 2)]
            proceeds = [log.index(("proceed", index, window_end))
                        for index in (1, 3)]
            assert max(proceeds) < min(advances)
        reports = [entry[:2] for entry in log
                   if entry[0] in ("advance", "collect")]
        assert reports == [("advance", 0), ("collect", 1), ("advance", 2),
                           ("collect", 3)] * 5
        injected = [entry[2] for entry in log
                    if entry[:2] == ("inject", 0)]
        assert injected == [[]] + [["from1", "from2", "from3"]] * 5
        # Only shard 0 — the middlebox host — is asked to release, once per
        # barrier, knowing that barrier's frontier.
        released = [entry[1:] for entry in log if entry[0] == "release"]
        assert [index for index, _k in released] == [0] * 5
        assert [k for _i, k in released][:4] == pytest.approx(
            [end + sync.lookahead for end in seen[:4]])
        # The local transports let go of their hosts with the results.
        assert shards[0].host is None and shards[2].host is None

    @staticmethod
    def _egressed(egress, target, packet_id=77):
        """A ``mbx_core_dl`` item as the hosted middlebox hands it off."""
        packet = _packet(0)
        packet.packet_id = packet_id
        packet.timestamps["core_ingress"] = egress
        return (egress + CORE_PROCESSING_DELAY, packet, "mbx_core_dl", target)

    @staticmethod
    def _run_with_releasing_host(release):
        """Shard 0: a real local transport over a fake host whose
        ``release`` is given; shard 1: a fake pipe keeping what it is sent."""
        from repro.experiments.sharded import (_BoundaryRouter, _LocalShard,
                                               _run_shards, _SyncPlan)

        log = []
        pipe = _FakePipe(1, log)
        router = _BoundaryRouter(num_shards=2)
        sync = _SyncPlan(horizon=0.1, lookahead=0.02, coupling=[],
                         always_coupled=True)
        _run_shards([_LocalShard(_FakeHost(0, log, release=release)), pipe],
                    router, sync)
        return log, pipe, router

    def test_released_item_reaches_its_target_in_the_same_barrier(self):
        """What the local host hands off on ``release(K)`` is in the pipe
        shard's very next ``proceed`` — the one closing the barrier that
        computed ``K`` — counted once, not a barrier later."""
        frontiers = []

        def release(frontier):
            frontiers.append(frontier)
            if len(frontiers) == 2:
                return [self._egressed(frontier, target=1)]
            return []

        log, pipe, router = self._run_with_releasing_host(release)
        second_release = [i for i, entry in enumerate(log)
                          if entry[0] == "release"][1]
        # Handed over before shard 1 is collected again: the entry after
        # the release is shard 1's proceed, the third it ever got.
        assert log[second_release + 1][:2] == ("proceed", 1)
        sent = [[item[1].packet_id for item in inbound]
                for inbound in pipe.inbox]
        assert sent == [[], [], [77], [], [], []]
        assert router.routed_packets == 1

    def test_release_into_a_targets_past_is_refused_at_the_source(self):
        """A released item due before the window end just completed names
        packet, egress, ``K`` and target shard — before any pipe hop."""
        def release(frontier):
            return [self._egressed(0.001, target=1, packet_id=4242)]

        with pytest.raises(ConservativeSyncError) as caught:
            self._run_with_releasing_host(release)
        message = str(caught.value)
        assert "packet 4242" in message and "shard 1" in message
        assert "at 0.001 " in message and "K=0.04" in message

    @pytest.mark.parametrize("shards", [2, 4])
    def test_n_shards_run_on_n_processes(self, shards, monkeypatch):
        """The coordinator hosts shard 0 itself: N − 1 children, every one
        of them forked before the local host is built."""
        import multiprocessing
        import os

        _require_fork()
        coordinator = os.getpid()
        init = ShardHost.__init__
        children_at_build = []
        children_in_window = []

        def recording_init(self, sub_spec, shard_index, coupling=None):
            if os.getpid() == coordinator:
                children_at_build.append(
                    (shard_index, len(multiprocessing.active_children())))
            init(self, sub_spec, shard_index, coupling=coupling)

        monkeypatch.setattr(ShardHost, "__init__", recording_init)

        def progress(snapshot):
            if snapshot["windows"] <= 3:
                children_in_window.append(
                    len(multiprocessing.active_children()))

        result = run_scenario_sharded(_coupled_core(), shards=shards,
                                      inprocess=False, start_method="fork",
                                      progress=progress)
        assert result.sharding_stats["shards"] == shards
        assert children_at_build == [(0, shards - 1)]
        assert children_in_window == [shards - 1] * 3
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("preset, shards", [("coupled-core", 3),
                                                ("coupled-core", 4),
                                                ("two-cell-imbalance", 2)])
    def test_mixed_transports_match_all_local_and_single_loop(self, preset,
                                                              shards):
        from repro.experiments.results import result_document

        spec = dataclasses.replace(make_preset(preset), duration_s=1.0)
        single = result_document(run_scenario(
            dataclasses.replace(spec, sharding=ShardingSpec(mode="off"))))
        local = result_document(
            run_scenario_sharded(spec, shards=shards, inprocess=True))
        mixed = result_document(
            run_scenario_sharded(spec, shards=shards, inprocess=False))
        assert mixed["flows"] == local["flows"] == single["flows"]
        assert mixed["sharding"] == local["sharding"]
        assert mixed["sharding"]["shards"] == shards

    def test_explicit_map_putting_the_first_cell_off_shard_zero(self):
        """The middlebox belongs to no cell: the coordinator — shard 0 —
        hosts it even when an explicit map sends the first cell elsewhere.
        Same windows as the auto split; only ``routed_packets`` moves,
        because which egresses are remote-bound depends on the cells that
        sit with the host."""
        import warnings

        from repro.experiments.results import result_document

        spec = _coupled_core()
        single = result_document(run_scenario(
            dataclasses.replace(spec, sharding=ShardingSpec(mode="off"))))
        auto = result_document(
            run_scenario_sharded(spec, shards=2, inprocess=True))
        swapped = dataclasses.replace(spec, sharding=ShardingSpec(
            mode="explicit", map={0: 1, 1: 0, 2: 1, 3: 0}))
        assert build_shard_plan(swapped).assignment[0] == 1
        local = result_document(run_scenario_sharded(swapped, inprocess=True))
        with warnings.catch_warnings():
            # An all-local rerun ("workers unavailable") must not pass.
            warnings.simplefilter("error", RuntimeWarning)
            workers = result_document(
                run_scenario_sharded(swapped, inprocess=False))
        for document in (local, workers):
            assert document["flows"] == single["flows"]
            assert document["handovers"] == single["handovers"]
            assert document["handovers"]
        assert workers["sharding"] == local["sharding"]
        assert local["sharding"].pop("routed_packets") > 0
        del auto["sharding"]["routed_packets"]
        assert local["sharding"] == auto["sharding"]

    @pytest.mark.parametrize("preset, duration, start_method", [
        # The spawn cases keep the ids they had before fork joined them.
        pytest.param("coupled-core", 1.0, "spawn", id="coupled-core-1.0"),
        pytest.param("handover", None, "spawn", id="handover-None"),
        pytest.param("coupled-core", 1.0, "fork", id="coupled-core-1.0-fork"),
        pytest.param("handover", None, "fork", id="handover-None-fork")])
    def test_spawned_workers_match_inprocess_document(self, preset, duration,
                                                      start_method):
        """A spawn-started worker imports everything afresh and receives
        its sub-spec and the coupling plan through a pickle; the document
        must not depend on that.  Either way every boundary packet crosses
        a real pipe through ``Packet.__reduce__``."""
        import multiprocessing
        import warnings

        from repro.experiments.results import dump_document, result_document

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"needs the {start_method} start method")
        spec = make_preset(preset)
        if duration is not None:
            spec = dataclasses.replace(spec, duration_s=duration)
        local = run_scenario_sharded(spec, shards=2, inprocess=True)
        with warnings.catch_warnings():
            # An all-local rerun ("workers unavailable") must not pass.
            warnings.simplefilter("error", RuntimeWarning)
            spawned = run_scenario_sharded(spec, shards=2, inprocess=False,
                                           start_method=start_method)
        assert dump_document(result_document(spawned)) == \
            dump_document(result_document(local))
        assert multiprocessing.active_children() == []
