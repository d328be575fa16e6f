"""Tests for the background-UE population.

Covers the population's coupling into the MAC (foreground contention), its
accuracy envelope and its 100x throughput-of-simulation floor against a
fully simulated equivalent, the seed/determinism contract (repeats, shard
splits and the churn draws on the cell's stream), the numpy guard, the
promise that pure-python scenarios never import the population module, and
the population's surface: a claimant count, its per-UE draws and its
counters, with served bytes in closed form.
"""

from __future__ import annotations

import dataclasses
import sys
import time

import numpy as np
import pytest

from repro.experiments.presets import make_preset
from repro.experiments.scenario import build_scenario, run_scenario
from repro.experiments.sharded import run_scenario_sharded
from repro.experiments.spec import (CellSpec, PopulationSpec, ScenarioSpec,
                                    UeSpec)
from repro.ran.background import BackgroundPopulation
from repro.ran.cell import CellConfig
from repro.sim.engine import Simulator
from repro.workloads.flows import FlowSpec

pytestmark = pytest.mark.filterwarnings("ignore")


def _aggregate_spec(n_background: int = 4) -> ScenarioSpec:
    return ScenarioSpec(
        name="aggregate", num_ues=1, duration_s=4.0, cc_name="prague",
        marker="l4span", channel_profile="static", seed=5,
        population=PopulationSpec(n_background=n_background))


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
        assert background["granted_prb_slots"] > 0
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
        aggregate = run_scenario(_aggregate_spec(n_background=4))
        full_fg = full.flow(0).goodput_mbps
        aggregate_fg = aggregate.flows[0].goodput_mbps
        assert full_fg > 0 and aggregate_fg > 0
        assert 0.8 <= aggregate_fg / full_fg <= 1.25, (
            f"aggregate {aggregate_fg:.2f} Mbps vs fully simulated "
            f"{full_fg:.2f} Mbps")

    def test_dense_cell_simulates_100x_more_ue_seconds_per_wall_second(self):
        """The kernel's acceptance floor, in simulated-UE-seconds per
        wall-second: the dense-cell preset (2 exact + 1000 aggregated UEs)
        against 8 packet-exact UEs on a static channel."""
        start = time.perf_counter()
        full = run_scenario(ScenarioSpec(
            duration_s=1.0, seed=7, num_ues=8, cc_name="cubic",
            channel_profile="static"))
        full_ue_s = full.simulated_ue_seconds() / (time.perf_counter() - start)

        start = time.perf_counter()
        dense = run_scenario(dataclasses.replace(make_preset("dense-cell"),
                                                 duration_s=6.0))
        dense_ue_s = dense.simulated_ue_seconds() / (time.perf_counter()
                                                     - start)
        assert dense.background["n_background"] == 1000
        assert dense.total_goodput_mbps() > 0
        assert dense.background_throughput_mbps() > 0
        assert dense_ue_s >= 100 * full_ue_s


def _dense_two_cell_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="dense-two-cell", num_ues=0, duration_s=2.0, marker="l4span",
        channel_profile="static", seed=9,
        cells=[CellSpec(cell_id=0), CellSpec(cell_id=1)],
        ues=[UeSpec(ue_id=0, cell_id=0), UeSpec(ue_id=1, cell_id=1)],
        population=PopulationSpec(
            n_background=50, snr_mean_db=20.0, snr_stddev_db=5.0,
            activity=0.6, churn_rate_per_s=3.0))


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
        # Different cells draw from different named streams.
        assert not np.array_equal(first.backgrounds[0].snr_db,
                                  first.backgrounds[1].snr_db)


#: The slot length of the standalone populations' default cell.
_SLOT_S = CellConfig().slot_duration


def _standalone(spec: PopulationSpec, seed: int):
    """A population on its own simulator clock, outside any scenario."""
    sim = Simulator(seed=seed)
    return sim, BackgroundPopulation(sim, 0, CellConfig(), spec)


def _advance(sim, population, granted_prbs: int) -> None:
    """One batched interval of MAC slots; the grant lands in its first."""
    for _ in range(population.slots_to_step()):
        sim.now += _SLOT_S
        population.on_slots(granted_prbs, 1, sim.now)
        granted_prbs = 0


class TestClaimantCount:
    def test_served_bytes_is_the_grant_at_the_active_mean(self):
        """Each interval serves its PRB budget at the mean bytes-per-PRB of
        the active set of that interval's step, churn flips included."""
        spec = PopulationSpec(n_background=40, snr_stddev_db=6.0,
                              activity=0.5, churn_rate_per_s=2000.0)
        sim, population = _standalone(spec, seed=3)
        expected = 0.0
        active_sets = []
        for grant in (300, 170):
            _advance(sim, population, grant)
            active = population.active.copy()
            active_sets.append(active)
            expected += grant * population.bytes_per_prb[active].mean()
            assert population.served_bytes_total == pytest.approx(
                expected, rel=1e-12)
            assert population.demand_count == np.count_nonzero(active)
        assert not np.array_equal(*active_sets)  # a flip between the two
        assert population.granted_prb_slots == 300 + 170
        assert population.kernel_steps == 2
        assert population.active_ue_seconds == pytest.approx(
            sum(np.count_nonzero(active) for active in active_sets)
            * population.slots_to_step() * _SLOT_S)

    def test_public_surface_is_the_count_and_counters(self):
        """The MAC's interface, the per-UE draws, the claimant count and
        additive counters: no window, backlog or other per-UE state."""
        _, population = _standalone(PopulationSpec(n_background=8), seed=1)
        public = {name for name in dir(population)
                  if not name.startswith("_")}
        assert public == {
            "on_slots", "slots_to_step", "finish", "summary",
            "n", "snr_db", "bytes_per_prb", "active", "demand_count",
            "granted_prb_slots", "served_bytes_total", "active_ue_seconds",
            "kernel_steps"}
        assert set(population.summary()) == {
            "n_background", "granted_prb_slots", "served_bytes",
            "active_ue_seconds", "kernel_steps"}

    def test_churn_draws_replay_from_a_fresh_stream(self):
        """Each step's count equals an independent replay of the cell's
        stream: SNR normals, activity uniforms, then per step the Poisson
        flip count and the flipped indices -- the order the foreground's
        documents depend on."""
        spec = PopulationSpec(n_background=60, snr_mean_db=18.0,
                              snr_stddev_db=4.0, activity=0.4,
                              churn_rate_per_s=300.0)
        seed = 11
        sim, population = _standalone(spec, seed)
        rng = Simulator(seed=seed).random.stream("background-cell0")
        rng.normal(spec.snr_mean_db, spec.snr_stddev_db, size=spec.n_background)
        active = rng.random(spec.n_background) < spec.activity
        assert population.demand_count == np.count_nonzero(active)
        last = sim.now
        counts = set()
        for _ in range(50):
            _advance(sim, population, 0)
            flips = int(rng.poisson(spec.churn_rate_per_s * (sim.now - last)))
            last = sim.now
            if flips:
                idx = rng.integers(0, spec.n_background, size=flips)
                active[idx] = ~active[idx]
            assert population.demand_count == np.count_nonzero(active)
            counts.add(population.demand_count)
        assert len(counts) > 1  # churn moved the count
        assert rng.random() == population._rng.random()

    def test_served_bytes_equal_a_per_step_reduce_bit_for_bit(self):
        """A step reuses the served bytes of a PRB budget it has already
        summed over the same active set; the total stays equal, with no
        tolerance, to an ``np.add.reduce`` recomputed every step over a
        replay of the cell's stream -- 300 churning steps whose PRBs arrive
        in hand-offs of varying size and length."""
        spec = PopulationSpec(n_background=80, snr_mean_db=18.0,
                              snr_stddev_db=6.0, activity=0.5,
                              churn_rate_per_s=60.0)
        seed = 4
        sim, population = _standalone(spec, seed)
        rng = Simulator(seed=seed).random.stream("background-cell0")
        rng.normal(spec.snr_mean_db, spec.snr_stddev_db, size=spec.n_background)
        active = rng.random(spec.n_background) < spec.activity
        hand_offs = np.random.default_rng(0)  # this test's own choices
        expected = 0.0
        last = sim.now
        budgets: set = set()  # budgets seen since the active set last moved
        repeats = recounts = 0
        for _ in range(300):
            pending = 0
            while True:
                to_step = population.slots_to_step()
                count = int(hand_offs.integers(1, to_step + 1))
                prbs = int(hand_offs.choice([0, 51, 51]))
                sim.now += count * _SLOT_S
                population.on_slots(prbs, count, sim.now)
                pending += prbs * count
                if count == to_step:
                    break
            flips = int(rng.poisson(spec.churn_rate_per_s * (sim.now - last)))
            last = sim.now
            if flips:
                idx = rng.integers(0, spec.n_background, size=flips)
                active[idx] = ~active[idx]
                budgets.clear()
                recounts += 1
            n_active = np.count_nonzero(active)
            if n_active and pending:
                repeats += pending in budgets
                budgets.add(pending)
                expected += float(np.add.reduce(
                    np.where(active, population.bytes_per_prb, 0.0)
                    * (pending / n_active)))
            assert population.served_bytes_total == expected
        assert population.kernel_steps == 300
        assert repeats > 50 and recounts > 50  # both paths ran
