"""Tests for the vectorized background-UE population kernel.

Covers the population's coupling into the MAC (foreground contention), its
accuracy envelope and its 100x throughput-of-simulation floor against a
fully simulated equivalent, the seed/determinism
contract (repeats and shard splits), the numpy guard, the promise that
pure-python scenarios never import the kernel, and the fused batched step
against its frozen textbook form (bit-identical state, counters and random
stream, plus the invariants the fusion relies on).
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import math
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_population_kernel import ReferencePopulation
from repro.experiments.presets import make_preset
from repro.experiments.results import result_document
from repro.experiments.scenario import build_scenario, run_scenario
from repro.experiments.sharded import run_scenario_sharded
from repro.experiments.spec import (CellSpec, PopulationSpec, ScenarioSpec,
                                    UeSpec)
from repro.ran.background import (BACKGROUND_CWND_CAP,
                                  BACKGROUND_INITIAL_CWND, BACKGROUND_MSS,
                                  BackgroundPopulation)
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

    def test_foreground_sees_only_the_prb_share(self, monkeypatch):
        """The population reaches the foreground only through the PRB
        share: its window dynamics never touch ``demand_count``, so moving
        the back-off factor moves the background's backlog and nothing of
        the foreground's result."""
        # Looked up at run time: another test may have re-imported it.
        kernel = importlib.import_module("repro.ran.background")
        spec = dataclasses.replace(_aggregate_spec(n_background=16),
                                   duration_s=1.0)
        documents = []
        for beta in (0.5, 0.9):
            monkeypatch.setattr(kernel, "BACKGROUND_BETA", beta)
            documents.append(result_document(run_scenario(spec)))
        low, high = documents
        for key in ("flows", "per_ue_throughput_mbps", "delay_breakdown",
                    "queue", "events_processed"):
            assert low[key] == high[key], key
        assert (low["background"]["backlog_bytes"]
                != high["background"]["backlog_bytes"])

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


def _standalone(kernel, spec: PopulationSpec, seed: int):
    """A population on its own simulator clock, outside any scenario."""
    sim = Simulator(seed=seed)
    return sim, kernel(sim, 0, CellConfig(), spec)


def _slot_times(sim, population) -> list:
    """The clock readings of the next batched interval's MAC slots."""
    times = [sim.now + population.cell.slot_duration]
    while len(times) < population.slots_to_step():
        times.append(times[-1] + population.cell.slot_duration)
    return times


def _advance(sim, population, granted_prbs: int) -> None:
    """One batched interval of MAC slots; the grant lands in its first."""
    for now in _slot_times(sim, population):
        sim.now = now
        population.on_slots(granted_prbs, 1, now)
        granted_prbs = 0


class TestServiceMechanics:
    """The leftover hand-off, in closed form."""

    def test_drained_ue_hands_its_leftover_to_the_rest(self):
        spec = PopulationSpec(n_background=2)
        sim, population = _standalone(BackgroundPopulation, spec, seed=1)
        per_prb = float(population.bytes_per_prb[0])
        # Two bulk UEs right after a refill: each holds its whole window,
        # and UE 0's window is smaller than its half of the grant.
        windows = [2 * BACKGROUND_MSS, BACKGROUND_INITIAL_CWND]
        population.cwnd[:] = windows
        population.backlog[:] = windows
        population._gather_active()
        share = 100 * per_prb                 # 200 PRBs across two UEs
        assert windows[0] < share and 2 * share - windows[0] < windows[1]
        _advance(sim, population, 200)
        # UE 0 drains its window; UE 1 gets its share plus the rest.
        assert population.arrival_bytes_total == 0.0
        assert population.backlog == pytest.approx(
            [0.0, windows[1] - (2 * share - windows[0])], abs=1e-6)
        assert population.served_bytes_total == pytest.approx(2 * share)
        assert population.demand_count == 2   # both refill next step


#: Per-step grant as a fraction of what would drain the whole population:
#: none or a trickle, about enough for some UEs, more than anyone holds.
_GRANT_FRACTIONS = st.one_of(st.floats(0.0, 0.2), st.floats(0.2, 1.5),
                             st.floats(1.5, 4.0))


def _assert_working_set_mirrors(population, reference) -> None:
    """The compact working set is the active subset of the full state.

    Reads only the compact arrays and ``active``, never the synced
    ``backlog`` / ``cwnd`` views, so a population checked only here keeps
    its full arrays stale between churn flips.
    """
    index = np.flatnonzero(reference.active)
    assert np.array_equal(population.active, reference.active)
    assert np.array_equal(population._index, index)
    assert population._active_count == index.size
    for compact, full in ((population._active_backlog, reference.backlog),
                          (population._active_cwnd, reference.cwnd),
                          (population._active_bpp, population.bytes_per_prb)):
        assert np.array_equal(compact, full[index])
    # Zero off the index: each full-length sum sees only active values.
    assert not np.delete(population._sum_scratch, index).any()


class TestFusedKernelAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300),
           activity=st.floats(0.0, 1.0),
           snr_mean_db=st.floats(0.0, 30.0),
           snr_stddev_db=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
           churn_rate_per_s=st.one_of(st.just(0.0), st.floats(0.1, 2000.0)),
           grant_fractions=st.lists(_GRANT_FRACTIONS, min_size=5,
                                    max_size=40))
    def test_bit_identical_and_invariants_hold_after_every_step(
            self, seed, n, activity, snr_mean_db, snr_stddev_db,
            churn_rate_per_s, grant_fractions):
        spec = PopulationSpec(
            n_background=n, activity=activity, snr_mean_db=snr_mean_db,
            snr_stddev_db=snr_stddev_db, churn_rate_per_s=churn_rate_per_s)
        ref_sim, reference = _standalone(ReferencePopulation, spec, seed)
        sim, fused = _standalone(BackgroundPopulation, spec, seed)
        # Never read through ``backlog`` / ``cwnd`` until the end, so its
        # churn flips start from compact state the full arrays lack.
        lazy_sim, lazy = _standalone(BackgroundPopulation, spec, seed)
        per_prb = max(float(fused.bytes_per_prb.mean()), 1.0)
        queued_at_build = float(fused.backlog.sum())
        zeroed_by_churn = 0.0

        for fraction in grant_fractions:
            holding = max(float(reference.backlog.sum()), BACKGROUND_MSS * n)
            grant = int(fraction * holding / per_prb)
            # Replay the step's churn draws on a copy of the stream to learn
            # which backlogs the flips are about to zero.
            probe = copy.deepcopy(fused._rng)
            if churn_rate_per_s > 0:
                dt = _slot_times(sim, fused)[-1] - fused._last_step_time
                flips = int(probe.poisson(churn_rate_per_s * dt))
                if flips:
                    flipped = np.unique(probe.integers(0, n, size=flips))
                    zeroed_by_churn += float(fused.backlog[flipped].sum())
            _advance(ref_sim, reference, grant)
            _advance(sim, fused, grant)
            _advance(lazy_sim, lazy, grant)
            _assert_working_set_mirrors(lazy, reference)

            # Differential: state, counters and stream position.
            assert np.array_equal(fused.active, reference.active)
            assert np.array_equal(fused.backlog, reference.backlog)
            assert np.array_equal(fused.cwnd, reference.cwnd)
            for counter in ("arrival_bytes_total", "served_bytes_total",
                            "active_ue_seconds", "demand_count",
                            "kernel_steps"):
                assert getattr(fused, counter) == getattr(reference, counter)
            assert (fused._rng.bit_generator.state
                    == reference._rng.bit_generator.state)

            # Standing invariants (the first two are what the fusion uses).
            assert not fused.backlog[~fused.active].any()
            assert fused.cwnd.min() >= BACKGROUND_MSS
            assert fused.cwnd.max() <= BACKGROUND_CWND_CAP
            # Non-negative up to one rounding: the redistribution's
            # served + (backlog - served) can exceed backlog by an ulp, and
            # the next service restores exactly 0.0.
            assert fused.backlog.min() >= -np.spacing(
                float(BACKGROUND_CWND_CAP))
            offered = queued_at_build + fused.arrival_bytes_total
            assert math.isclose(
                offered - fused.served_bytes_total - zeroed_by_churn,
                float(fused.backlog.sum()),
                rel_tol=1e-9, abs_tol=1e-9 * max(offered, 1.0))
            assert probe.bit_generator.state == fused._rng.bit_generator.state
            _assert_working_set_mirrors(fused, reference)

        assert fused.summary() == reference.summary()
        assert lazy.summary() == reference.summary()
        assert np.array_equal(lazy.backlog, reference.backlog)
        assert np.array_equal(lazy.cwnd, reference.cwnd)
