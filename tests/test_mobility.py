"""Tests for the inter-cell handover subsystem and its shard coupling.

Two load-bearing properties:

* **Continuity.** A TCP flow survives a mid-transfer handover: receiver
  state transfers, queued RLC data is forwarded or flushed per the HO mode,
  and the interruption window appears as a measurable per-flow delivery
  gap.
* **Sharded exactness.** A mobility-coupled scenario on a static channel
  produces per-flow metrics identical across ``--shards 1/2/4`` — the
  windowed barrier protocol is load-bearing here (boundary exchanges happen
  every window while a UE is served away from its home shard), unlike the
  boundary-free splits the earlier sharding tests cover.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.core.l4span import L4SpanLayer
from repro.core.ran_dualpi2 import RanDualPi2Marker
from repro.core.tcran import TcRanMarker
from repro.experiments.presets import make_preset
from repro.experiments.scenario import build_scenario, run_scenario
from repro.experiments.sharded import (boundary_lookahead,
                                       build_shard_plan,
                                       mobility_coupling_intervals,
                                       run_scenario_sharded,
                                       schedule_commit_points,
                                       sharding_blockers)
from repro.experiments.spec import (CellSpec, HandoverSpec, MobilitySpec,
                                    ScenarioSpec, ShardingSpec, UeSpec)
from repro.ran.cu import CentralUnitUserPlane
from repro.ran.phy import AirInterfaceConfig
from repro.units import ms
from repro.workloads.flows import FlowSpec


def _mobility_spec(handovers, *, duration=3.0, ho_mode="forward",
                   interruption=0.020, num_cells=2, ues=None, flows=None,
                   **overrides) -> ScenarioSpec:
    if ues is None:
        ues = [UeSpec(ue_id=0, cell_id=0), UeSpec(ue_id=1, cell_id=1)]
    return ScenarioSpec(
        name="mobility-test", num_ues=0, duration_s=duration,
        marker="l4span", channel_profile="static", seed=7,
        cells=[CellSpec(cell_id=c) for c in range(num_cells)],
        ues=ues, flows=flows,
        mobility=MobilitySpec(mode="schedule", ho_mode=ho_mode,
                              interruption_s=interruption,
                              handovers=handovers),
        **overrides)


def _ping_pong(duration=3.0, **kw) -> ScenarioSpec:
    return _mobility_spec(
        [HandoverSpec(time=1.0, ue_id=0, target_cell=1),
         HandoverSpec(time=2.0, ue_id=0, target_cell=0)],
        duration=duration, **kw)


def _flows_equal(a, b) -> bool:
    return (a.flow_id == b.flow_id and a.ue_id == b.ue_id
            and a.owd_samples == b.owd_samples
            and list(a.rtt_samples) == list(b.rtt_samples)
            and a.goodput_bytes_per_s == b.goodput_bytes_per_s
            and a.completion_time == b.completion_time
            and a.congestion_events == b.congestion_events
            and a.marked_fraction == b.marked_fraction
            and a.throughput_series.points() == b.throughput_series.points())


def _results_equal(a, b) -> bool:
    assert len(a.flows) == len(b.flows)
    for fa, fb in zip(a.flows, b.flows):
        if not _flows_equal(fa, fb):
            return False
    return (a.queue_length_by_drb == b.queue_length_by_drb
            and a.per_ue_throughput == b.per_ue_throughput
            and a.handovers == b.handovers)


# --------------------------------------------------------------------- #
# Spec layer
# --------------------------------------------------------------------- #
class TestMobilitySpec:
    def test_json_round_trip(self):
        spec = _ping_pong()
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.mobility.handovers[0] == HandoverSpec(1.0, 0, 1)

    def test_handover_preset_validates_and_round_trips(self):
        spec = make_preset("handover")
        assert spec.mobility.enabled
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_unknown_target_cell_rejected(self):
        spec = _mobility_spec([HandoverSpec(time=1.0, ue_id=0,
                                            target_cell=9)])
        with pytest.raises(ValueError, match="unknown cell"):
            spec.validate()

    def test_unknown_ue_rejected(self):
        spec = _mobility_spec([HandoverSpec(time=1.0, ue_id=9,
                                            target_cell=1)])
        with pytest.raises(ValueError, match="unknown ue"):
            spec.validate()

    def test_no_op_handover_rejected(self):
        spec = _mobility_spec([HandoverSpec(time=1.0, ue_id=0,
                                            target_cell=0)])
        with pytest.raises(ValueError, match="current serving cell"):
            spec.validate()

    def test_back_to_back_faster_than_interruption_rejected(self):
        spec = _mobility_spec(
            [HandoverSpec(time=1.0, ue_id=0, target_cell=1),
             HandoverSpec(time=1.005, ue_id=0, target_cell=0)])
        with pytest.raises(ValueError, match="before.*completes"):
            spec.validate()

    def test_single_cell_mobility_rejected(self):
        spec = ScenarioSpec(
            num_ues=1, mobility=MobilitySpec(
                mode="schedule",
                handovers=[HandoverSpec(time=1.0, ue_id=0, target_cell=0)]))
        with pytest.raises(ValueError, match="at least two cells"):
            spec.validate()


# --------------------------------------------------------------------- #
# Single-loop handover execution
# --------------------------------------------------------------------- #
class TestHandoverExecution:
    def test_flow_survives_mid_transfer_handover(self):
        result = run_scenario(_ping_pong())
        flow = result.flow(0)
        # Data keeps flowing after both handovers (samples past t=2).
        assert flow.owd_samples
        assert result.config.mobility.enabled
        assert len(result.handovers) == 2
        for record in result.handovers:
            assert record["completed_at"] == pytest.approx(
                record["time"] + 0.020)
            # The interruption window is visible as a delivery gap at
            # least as long as the configured interruption.
            assert record["data_gap_s"][0] >= 0.020

    @pytest.mark.parametrize("cc_name", ["udp_prague", "scream"])
    def test_udp_receiver_state_survives_handover(self, cc_name):
        """The arrival receiver adopts the departed one's feedback state, so
        its counters cover the whole flow, not just the time since the
        handover."""
        spec = _mobility_spec(
            [HandoverSpec(time=0.5, ue_id=0, target_cell=1)],
            duration=1.0, warmup_s=0.0,
            flows=[FlowSpec(flow_id=0, ue_id=0, cc_name=cc_name)])
        built = build_scenario(spec)
        departed = []
        built.sim.schedule_at(0.5 - 1e-6,
                              lambda: departed.append(built.receivers[0]))
        result = built.run()
        arrived = built.receivers[0]
        assert len(result.handovers) == 1 and arrived is not departed[0]
        assert departed[0].received_packets > 0
        # Every delivered packet produced one OWD sample (no warm-up).
        assert arrived.received_packets == len(result.flow(0).owd_samples)
        assert arrived.highest_seq >= departed[0].highest_seq

    def test_ran_dualpi2_marking_stream_follows_the_attach(self):
        """Under RAN-DualPi2 the arrival cell marks a mobile UE from a
        stream born at the attach (``#a1``), not from the departed cell's
        stream, which a shard hosting only the target cell could not
        reproduce; the split stays bit-identical to the single loop."""
        spec = dataclasses.replace(_ping_pong(), marker="ran_dualpi2")
        built = build_scenario(spec)
        single = built.run()
        assert built.markers[1].marked_packets > 0
        assert any(name.startswith("ran-dualpi2-0-") and name.endswith("#a1")
                   for name in built.sim.random._streams)
        sharded = run_scenario_sharded(spec, shards=2, inprocess=True)
        assert _results_equal(single, sharded)

    def test_handover_of_idle_ue(self):
        """A UE with no flows moves cells without touching any transport."""
        spec = _mobility_spec(
            [HandoverSpec(time=1.0, ue_id=0, target_cell=1)],
            flows=[FlowSpec(flow_id=1, ue_id=1, cc_name="prague")])
        result = run_scenario(spec)
        assert len(result.handovers) == 1
        assert result.handovers[0]["data_gap_s"] == {}
        assert result.flow(1).owd_samples  # bystander flow unaffected

    def test_handover_with_retransmissions_in_flight(self):
        """AM retransmission state is released cleanly at the detach."""
        spec = _ping_pong(air=AirInterfaceConfig(target_bler=0.5,
                                                 max_harq_attempts=2))
        result = run_scenario(spec)
        flow = result.flow(0)
        assert flow.owd_samples
        # The lossy air interface forces retransmissions; whatever was
        # queued (including retx) at t=1/t=2 was forwarded, not leaked.
        assert len(result.handovers) == 2
        forwarded = sum(r["forwarded_sdus"] for r in result.handovers)
        flushed = sum(r["flushed_sdus"] for r in result.handovers)
        assert flushed == 0
        assert forwarded >= 0

    def test_flush_mode_drops_queued_data(self):
        """With a congested source cell, flush loses SDUs and TCP recovers."""
        spec = _mobility_spec(
            [HandoverSpec(time=1.0, ue_id=0, target_cell=1)],
            ho_mode="flush", duration=2.0,
            ues=[UeSpec(ue_id=0, cell_id=0, mean_snr_db=8.0),
                 UeSpec(ue_id=1, cell_id=1)])
        result = run_scenario(spec)
        record = result.handovers[0]
        assert record["ho_mode"] == "flush"
        assert record["flushed_sdus"] > 0
        assert record["forwarded_sdus"] == 0
        # The flow still makes progress at the (faster) target cell.
        assert result.flow(0).owd_samples[-1] is not None

    def test_forward_mode_forwards_queued_data(self):
        spec = _mobility_spec(
            [HandoverSpec(time=1.0, ue_id=0, target_cell=1)],
            duration=2.0,
            ues=[UeSpec(ue_id=0, cell_id=0, mean_snr_db=8.0),
                 UeSpec(ue_id=1, cell_id=1)])
        result = run_scenario(spec)
        assert result.handovers[0]["forwarded_sdus"] > 0

    def test_um_mode_handover(self):
        spec = _ping_pong(rlc_mode="um")
        result = run_scenario(spec)
        assert result.flow(0).owd_samples
        assert len(result.handovers) == 2

    def test_three_cell_itinerary(self):
        spec = _mobility_spec(
            [HandoverSpec(time=0.8, ue_id=0, target_cell=1),
             HandoverSpec(time=1.6, ue_id=0, target_cell=2)],
            num_cells=3,
            ues=[UeSpec(ue_id=0, cell_id=0), UeSpec(ue_id=1, cell_id=1),
                 UeSpec(ue_id=2, cell_id=2)])
        result = run_scenario(spec)
        assert [r["to_cell"] for r in result.handovers] == [1, 2]
        assert result.flow(0).owd_samples

    def test_snr_triggered_handover(self):
        """A UE below the SNR threshold escapes to the next cell."""
        spec = ScenarioSpec(
            name="snr-mob", num_ues=0, duration_s=2.0, marker="l4span",
            channel_profile="static", seed=7,
            cells=[CellSpec(cell_id=0), CellSpec(cell_id=1)],
            ues=[UeSpec(ue_id=0, cell_id=0, mean_snr_db=5.0),
                 UeSpec(ue_id=1, cell_id=1)],
            mobility=MobilitySpec(mode="snr", snr_threshold_db=10.0,
                                  min_stay_s=0.5))
        result = run_scenario(spec)
        assert result.handovers, "low-SNR UE never handed over"
        assert result.handovers[0]["to_cell"] == 1
        # min_stay damps ping-pong: at most one HO per 0.5 s.
        assert len(result.handovers) <= 4


# --------------------------------------------------------------------- #
# Sharded mobility: the barrier protocol becomes load-bearing
# --------------------------------------------------------------------- #
class TestShardedMobility:
    def test_mobility_couples_the_split(self):
        spec = _ping_pong().validate()
        plan = build_shard_plan(spec, shards=2)
        intervals = mobility_coupling_intervals(spec, plan)
        assert intervals, "ping-pong itinerary must couple the shards"
        start, end = intervals[0]
        assert start == pytest.approx(1.0)
        assert end >= 2.0

    def test_metrics_identical_across_shard_counts(self):
        """The acceptance criterion: identical across --shards 1/2/4."""
        spec = _mobility_spec(
            [HandoverSpec(time=0.8, ue_id=0, target_cell=1),
             HandoverSpec(time=1.6, ue_id=0, target_cell=2),
             HandoverSpec(time=2.4, ue_id=3, target_cell=0)],
            num_cells=4, duration=3.0,
            ues=[UeSpec(ue_id=0, cell_id=0), UeSpec(ue_id=1, cell_id=1),
                 UeSpec(ue_id=2, cell_id=2), UeSpec(ue_id=3, cell_id=3)])
        single = run_scenario_sharded(spec, shards=1, inprocess=True)
        two = run_scenario_sharded(spec, shards=2, inprocess=True)
        four = run_scenario_sharded(spec, shards=4, inprocess=True)
        assert _results_equal(single, two)
        assert _results_equal(single, four)
        assert two.sharding_stats["boundary_required"]

    def test_sharded_matches_single_loop_exactly(self):
        spec = _ping_pong()
        single = run_scenario(spec)
        sharded = run_scenario_sharded(spec, shards=2, inprocess=True)
        assert _results_equal(single, sharded)
        assert single.delay_breakdown.keys() == sharded.delay_breakdown.keys()
        for key, value in single.delay_breakdown.items():
            assert sharded.delay_breakdown[key] == pytest.approx(value)

    def test_mobile_flow_marked_fraction_covers_visited_cells(self):
        """A mobile flow's marked_fraction merges every cell it visited.

        The ping-pong UE gets marked both at home and while away; reading
        only the home-cell marker's record (the historical bug) undercounts
        both the marks and the downlink packets.
        """
        from repro.core.l4span import L4SpanLayer

        spec = _ping_pong()
        built = build_scenario(spec)
        result = built.run()
        per_cell = {}  # cell_id -> (marked, downlink) for flow 0
        for cell_id, marker in built.markers.items():
            assert isinstance(marker, L4SpanLayer)
            for five_tuple, record in marker.flows.items():
                if five_tuple.dst_port - 50_000 == 0:
                    per_cell[cell_id] = (record.marked_packets,
                                         record.downlink_packets)
        # The scenario must actually mark the flow in more than one cell,
        # otherwise this test would pass with the home-only bug in place.
        assert len(per_cell) == 2
        assert all(marked > 0 for marked, _ in per_cell.values())
        marked = sum(m for m, _ in per_cell.values())
        downlink = sum(d for _, d in per_cell.values())
        home_only = per_cell[0][0] / per_cell[0][1]
        assert result.flow(0).marked_fraction == marked / downlink
        assert result.flow(0).marked_fraction != home_only
        # The sharded merge performs the same cross-shard summation.
        sharded = run_scenario_sharded(spec, shards=2, inprocess=True)
        assert sharded.flow(0).marked_fraction == marked / downlink

    def test_boundary_exchanges_every_coupled_window(self):
        """≥1 real _BoundaryRouter exchange per lookahead window.

        The UE spends [0.3, 1.5] served away from its home shard, so the
        barrier loop runs almost the whole scenario and every window
        carries data packets, ACKs or handover control items.
        """
        spec = _mobility_spec(
            [HandoverSpec(time=0.3, ue_id=0, target_cell=1)],
            duration=1.5)
        sharded = run_scenario_sharded(spec, shards=2, inprocess=True)
        stats = sharded.sharding_stats
        assert stats["boundary_required"]
        assert stats["windows"] > 10
        assert stats["routed_packets"] >= stats["windows"]

    def test_adaptive_windows_fewer_barriers_same_results(self):
        spec = _ping_pong()
        sharded = run_scenario_sharded(spec, shards=2, inprocess=True)
        assert _results_equal(sharded, run_scenario(spec))
        stats = sharded.sharding_stats
        # One barrier per lookahead is ~duration/lookahead; the window
        # policy must beat it by skipping the uncoupled phases ([0, 1.0]
        # and the drained tail).
        cadence = math.ceil(spec.duration_s / stats["lookahead"])
        assert cadence >= 150
        assert stats["windows"] <= cadence * 0.6
        assert stats["window_bounds"]["jump"] >= 1

    def test_process_synchronizer_matches_inprocess(self):
        spec = _ping_pong(duration=1.5)
        inproc = run_scenario_sharded(spec, shards=2, inprocess=True)
        procs = run_scenario_sharded(spec, shards=2, inprocess=False)
        assert _results_equal(inproc, procs)

    def test_cross_shard_transfer_between_foreign_shards(self):
        """A UE moving between two shards, neither its home, stays exact."""
        spec = _mobility_spec(
            [HandoverSpec(time=0.6, ue_id=0, target_cell=1),
             HandoverSpec(time=1.4, ue_id=0, target_cell=2)],
            num_cells=3, duration=2.0,
            ues=[UeSpec(ue_id=0, cell_id=0), UeSpec(ue_id=1, cell_id=1),
                 UeSpec(ue_id=2, cell_id=2)])
        single = run_scenario(spec)
        sharded = run_scenario_sharded(spec, shards=3, inprocess=True)
        assert _results_equal(single, sharded)

    def test_distinct_wan_rtts_stay_exact(self):
        """Per-flow WAN legs drive the boundary delivery stamps."""
        spec = _mobility_spec(
            [HandoverSpec(time=1.0, ue_id=0, target_cell=1)],
            duration=2.0,
            flows=[FlowSpec(flow_id=0, ue_id=0, cc_name="prague",
                            wan_rtt=ms(78)),
                   FlowSpec(flow_id=1, ue_id=1, cc_name="cubic",
                            wan_rtt=ms(38))])
        single = run_scenario(spec)
        sharded = run_scenario_sharded(spec, shards=2, inprocess=True)
        assert _results_equal(single, sharded)

    def test_ping_pong_back_to_back_handovers_sharded(self):
        spec = _mobility_spec(
            [HandoverSpec(time=0.6, ue_id=0, target_cell=1),
             HandoverSpec(time=0.7, ue_id=0, target_cell=0),
             HandoverSpec(time=0.8, ue_id=0, target_cell=1),
             HandoverSpec(time=0.9, ue_id=0, target_cell=0)],
            duration=1.5, interruption=0.08)
        single = run_scenario(spec)
        sharded = run_scenario_sharded(spec, shards=2, inprocess=True)
        assert len(single.handovers) == 4
        assert _results_equal(single, sharded)

    def test_snr_mobility_shards_bit_identically(self):
        """Decide-then-commit: SNR handovers (decided mid-run) no longer
        block sharding, and the decisions, commits and per-flow metrics
        match the single loop exactly."""
        spec = ScenarioSpec(
            num_ues=0, duration_s=2.0, channel_profile="static", seed=7,
            cells=[CellSpec(cell_id=0), CellSpec(cell_id=1)],
            ues=[UeSpec(ue_id=0, cell_id=0, mean_snr_db=5.0),
                 UeSpec(ue_id=1, cell_id=1)],
            mobility=MobilitySpec(mode="snr", snr_threshold_db=10.0,
                                  min_stay_s=0.5))
        assert sharding_blockers(spec) == []
        single = run_scenario(
            dataclasses.replace(spec, sharding=ShardingSpec(mode="off")))
        sharded = run_scenario_sharded(spec, shards=2, inprocess=True)
        assert single.handovers, "the low-SNR UE must actually move"
        assert single.handovers == sharded.handovers
        assert _results_equal(single, sharded)

    def test_undersized_snr_commit_lag_blocks_sharding(self):
        """An explicit commit lag below one lookahead + the longest WAN leg
        cannot reach every shard before the commit time; the split refuses
        (the single loop honours any positive lag)."""
        spec = ScenarioSpec(
            num_ues=0, duration_s=1.0, channel_profile="static", seed=7,
            cells=[CellSpec(cell_id=0), CellSpec(cell_id=1)],
            ues=[UeSpec(ue_id=0, cell_id=0, mean_snr_db=5.0),
                 UeSpec(ue_id=1, cell_id=1)],
            mobility=MobilitySpec(mode="snr", commit_lag_s=0.001))
        assert any("commit_lag_s" in reason
                   for reason in sharding_blockers(spec))
        with pytest.warns(RuntimeWarning, match="commit_lag_s"):
            result = run_scenario_sharded(spec, shards=2, inprocess=True)
        assert result.sharding_stats["fallback"] == "single-loop"

    def test_short_interruption_shards_via_commit_points(self):
        """Interruption < lookahead pins a barrier at each cross-shard
        handover time; the transfer crosses with a same-instant stamp and
        the run stays exact."""
        spec = _ping_pong(interruption=0.005)
        assert boundary_lookahead(spec) > 0.005
        assert sharding_blockers(spec) == []
        assert schedule_commit_points(
            spec.validate(), build_shard_plan(spec, shards=2)) == \
            pytest.approx([1.0, 2.0])
        single = run_scenario(spec)
        sharded = run_scenario_sharded(spec, shards=2, inprocess=True)
        assert len(sharded.handovers) == 2
        assert _results_equal(single, sharded)

    def test_handover_preset_sharded_matches_single(self):
        spec = dataclasses.replace(make_preset("handover"), duration_s=2.5)
        spec = dataclasses.replace(
            spec, mobility=dataclasses.replace(
                spec.mobility,
                handovers=[HandoverSpec(time=0.8, ue_id=0, target_cell=1),
                           HandoverSpec(time=1.6, ue_id=0, target_cell=0)]))
        single = run_scenario(spec)
        sharded = run_scenario_sharded(spec, shards=2, inprocess=True)
        assert _results_equal(single, sharded)
        assert sharded.sharding_stats["routed_packets"] > 0


# --------------------------------------------------------------------- #
# Marker tables across handovers
# --------------------------------------------------------------------- #
def _check_tables_after_every_report(monkeypatch) -> list:
    """After each F1-U report, every bearer of the reporting cell holds in
    its marker table exactly the SNs its current PDCP entity numbered above
    the highest reported one.  Returns the report times checked."""
    cus = {}
    build = CentralUnitUserPlane.__init__

    def remember(cu, *args, **kwargs):
        build(cu, *args, **kwargs)
        cus[cu.marker] = cu

    monkeypatch.setattr(CentralUnitUserPlane, "__init__", remember)
    checked = []
    for marker_class in (L4SpanLayer, TcRanMarker, RanDualPi2Marker):
        def check(marker, status, now, report=marker_class.on_ran_feedback):
            report(marker, status, now)
            for (ue_id, drb_id), pdcp in cus[marker]._pdcp.items():
                state = marker._drbs.get((ue_id, drb_id, pdcp.attach_tag))
                if state is None:  # no SDU of this attachment numbered yet
                    assert pdcp.next_sn == 0
                    continue
                highest = state.profile.highest_txed_sn
                first = 0 if highest is None else highest + 1
                assert ([entry.sn for entry in state.profile]
                        == list(range(first, pdcp.next_sn)))
            checked.append(now)
        monkeypatch.setattr(marker_class, "on_ran_feedback", check)
    return checked


class TestMarkerTablesAcrossHandovers:
    """PDCP owns the SN and the attachment owns the bearer's marker state."""

    @pytest.mark.parametrize("ho_mode", ["forward", "flush"])
    @pytest.mark.parametrize("marker, shards", [
        ("l4span", 1), ("l4span", 2), ("tcran", 1), ("ran_dualpi2", 1)])
    def test_tables_hold_what_pdcp_numbered_above_the_report(
            self, monkeypatch, ho_mode, marker, shards):
        checked = _check_tables_after_every_report(monkeypatch)
        preset = make_preset("handover")
        spec = dataclasses.replace(
            preset, duration_s=2.5, marker=marker,
            mobility=dataclasses.replace(
                preset.mobility, ho_mode=ho_mode,
                handovers=[HandoverSpec(time=0.8, ue_id=0, target_cell=1),
                           HandoverSpec(time=1.6, ue_id=0, target_cell=0)]))
        result = run_scenario_sharded(spec, shards=shards, inprocess=True)
        assert [record["to_cell"] for record in result.handovers] == [1, 0]
        if marker == "l4span":  # RAN-DualPi2 can leave no queue to move
            moved = "forwarded_sdus" if ho_mode == "forward" else "flushed_sdus"
            assert sum(record[moved] for record in result.handovers) > 0
        assert len(checked) > 1000

    def test_report_of_the_first_attachment_pops_nothing_after_the_return(
            self, monkeypatch):
        """A -> B -> A with the interruption and the handover spacing both
        under F1-U's 250 us: a report the first attachment sent just before
        leaving lands after the UE is back, and changes no table of cell A;
        nor do the SDUs its PDCP sent, which land in the DU after the return."""
        first = 2.00005  # just after a slot, whose report is still in flight
        spec = _mobility_spec(
            [HandoverSpec(time=first, ue_id=0, target_cell=1),
             HandoverSpec(time=first + 1e-4, ue_id=0, target_cell=0)],
            duration=first + 0.01, interruption=1e-4)
        checked = _check_tables_after_every_report(monkeypatch)
        report = L4SpanLayer.on_ran_feedback
        landed = []

        def tables(layer) -> dict:
            return {key: [dataclasses.astuple(entry) for entry in state.profile]
                    for key, state in layer.drb_states.items()}

        def watched(layer, status, now):
            before = tables(layer)
            report(layer, status, now)
            if (status.ue_id == 0 and status.timestamp < first
                    and now > first + 1e-4):
                landed.append((before, tables(layer)))

        monkeypatch.setattr(L4SpanLayer, "on_ran_feedback", watched)
        result = run_scenario(spec)
        assert [record["to_cell"] for record in result.handovers] == [1, 0]
        assert landed, "no report of the first attachment landed after the return"
        assert all(before == after for before, after in landed)
        assert max(checked) > first + 1e-4
