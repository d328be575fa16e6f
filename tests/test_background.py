"""Tests for the vectorized background-UE population kernel.

Covers the population's coupling into the MAC (foreground contention), its
accuracy envelope against a fully simulated equivalent, the seed/determinism
contract (repeats and shard splits), the numpy guard and the promise that
pure-python scenarios never import the kernel.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.experiments.scenario import build_scenario, run_scenario
from repro.experiments.sharded import run_scenario_sharded
from repro.experiments.spec import (CellSpec, PopulationSpec, ScenarioSpec,
                                    UeSpec)
from repro.workloads.flows import FlowSpec

pytestmark = pytest.mark.filterwarnings("ignore")


def _aggregate_spec(**population) -> ScenarioSpec:
    defaults = dict(n_background=4, workload="bulk", cc_mix={"cubic": 1.0})
    defaults.update(population)
    return ScenarioSpec(
        name="aggregate", num_ues=1, duration_s=4.0, cc_name="prague",
        marker="l4span", channel_profile="static", seed=5,
        population=PopulationSpec(**defaults))


class TestKernelMechanics:
    def test_population_attached_per_cell(self):
        spec = ScenarioSpec(
            num_ues=0, duration_s=1.0, channel_profile="static", seed=3,
            cells=[CellSpec(cell_id=0), CellSpec(cell_id=1)],
            ues=[UeSpec(ue_id=0, cell_id=0), UeSpec(ue_id=1, cell_id=1)],
            population=PopulationSpec(n_background=8))
        built = build_scenario(spec)
        assert sorted(built.backgrounds) == [0, 1]
        for population in built.backgrounds.values():
            assert population.n == 8
            assert population.demand_count == 8  # bulk: everyone backlogged

    def test_result_reports_aggregate_counters(self):
        spec = _aggregate_spec(n_background=4)
        result = run_scenario(spec)
        background = result.background
        assert background["n_background"] == 4
        assert background["served_bytes"] > 0
        assert background["arrival_bytes"] > 0
        assert background["kernel_steps"] > 0
        assert result.background_throughput_mbps() > 0
        assert result.summary()["background_ues"] == 4
        # 1 foreground + 4 background UEs for 4 simulated seconds.
        assert result.simulated_ue_seconds() == pytest.approx(5 * 4.0)

    def test_background_contends_with_foreground(self):
        quiet = run_scenario(_aggregate_spec(n_background=0))
        loaded = run_scenario(_aggregate_spec(n_background=4))
        assert loaded.flows[0].goodput_mbps < 0.6 * quiet.flows[0].goodput_mbps

    def test_disabled_population_never_imports_kernel(self):
        sys.modules.pop("repro.ran.background", None)
        result = run_scenario(ScenarioSpec(
            num_ues=1, duration_s=0.5, channel_profile="static", seed=3))
        assert result.background == {}
        assert "repro.ran.background" not in sys.modules


class TestAccuracyEnvelope:
    def test_foreground_matches_fully_simulated_within_20_percent(self):
        """The acceptance anchor: aggregate model vs packet-exact equivalent.

        One Prague foreground flow shares a static cell with four CUBIC bulk
        downloads -- once fully simulated, once as a background population.
        The mean-field model trades per-UE packet timing for aggregate
        demand, so the foreground goodput must agree within 20%.
        """
        full = run_scenario(ScenarioSpec(
            name="full", num_ues=5, duration_s=4.0, marker="l4span",
            channel_profile="static", seed=5,
            flows=[FlowSpec(flow_id=0, ue_id=0, cc_name="prague")] +
                  [FlowSpec(flow_id=i, ue_id=i, cc_name="cubic")
                   for i in range(1, 5)]))
        aggregate = run_scenario(_aggregate_spec(
            n_background=4, cc_mix={"cubic": 1.0}))
        full_fg = full.flow(0).goodput_mbps
        aggregate_fg = aggregate.flows[0].goodput_mbps
        assert full_fg > 0 and aggregate_fg > 0
        assert 0.8 <= aggregate_fg / full_fg <= 1.25, (
            f"aggregate {aggregate_fg:.2f} Mbps vs fully simulated "
            f"{full_fg:.2f} Mbps")


def _dense_two_cell_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="dense-two-cell", num_ues=0, duration_s=2.0, marker="l4span",
        channel_profile="static", seed=9,
        cells=[CellSpec(cell_id=0), CellSpec(cell_id=1)],
        ues=[UeSpec(ue_id=0, cell_id=0), UeSpec(ue_id=1, cell_id=1)],
        population=PopulationSpec(
            n_background=50, workload="bulk",
            cc_mix={"prague": 0.5, "cubic": 0.5},
            snr_mean_db=20.0, snr_stddev_db=5.0, activity=0.6,
            churn_rate_per_s=3.0))


def _fingerprint(result) -> tuple:
    return (tuple(sorted(result.background.items())),
            tuple((f.flow_id, f.goodput_bytes_per_s, f.marked_fraction,
                   tuple(f.owd_samples)) for f in result.flows))


class TestDeterminism:
    def test_identical_across_repeats(self):
        spec = _dense_two_cell_spec()
        assert _fingerprint(run_scenario(spec)) == \
            _fingerprint(run_scenario(spec))

    def test_identical_across_shard_counts(self):
        spec = _dense_two_cell_spec()
        single = _fingerprint(run_scenario(spec))
        for shards in (1, 2):
            sharded = run_scenario_sharded(spec, shards=shards,
                                           inprocess=True)
            assert _fingerprint(sharded) == single

    def test_population_arrays_reproducible(self):
        spec = _dense_two_cell_spec()
        first = build_scenario(spec)
        second = build_scenario(spec)
        for cell_id, population in first.backgrounds.items():
            other = second.backgrounds[cell_id]
            assert np.array_equal(population.snr_db, other.snr_db)
            assert np.array_equal(population.active, other.active)
            assert np.array_equal(population.beta, other.beta)
        # Different cells draw from different named streams.
        assert not np.array_equal(first.backgrounds[0].snr_db,
                                  first.backgrounds[1].snr_db)
