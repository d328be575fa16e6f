"""Tests for the parallel sweep runner and its experiment integrations."""

from __future__ import annotations

import json

import pytest

from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.runner import SweepRunner, derive_cell_seed


# --------------------------------------------------------------------------- #
# Module-level cell functions (must be picklable for worker processes)
# --------------------------------------------------------------------------- #
def square_cell(cell):
    return cell * cell


def seeded_cell(cell, seed):
    return (cell, seed)


def failing_cell(cell):
    if cell == 2:
        raise ValueError("cell 2 exploded")
    return cell


def os_error_cell(cell):
    raise FileNotFoundError(f"cell {cell} lost its trace file")


def active_workers_cell(cell):
    from repro.experiments.runner import active_sweep_workers
    return (cell, active_sweep_workers())


class TestSweepRunner:
    def test_sequential_results_in_input_order(self):
        assert SweepRunner(workers=1).map(square_cell, [3, 1, 2]) == [9, 1, 4]

    def test_parallel_results_in_input_order(self):
        cells = list(range(10))
        assert SweepRunner(workers=4).map(square_cell, cells) == \
            [c * c for c in cells]

    def test_empty_grid(self):
        assert SweepRunner(workers=4).map(square_cell, []) == []

    def test_master_seed_derives_per_cell_seeds(self):
        results = SweepRunner(workers=1, master_seed=7).map(
            seeded_cell, ["a", "b"])
        assert results == [("a", derive_cell_seed(7, 0)),
                           ("b", derive_cell_seed(7, 1))]

    def test_derived_seeds_independent_of_worker_count(self):
        seq = SweepRunner(workers=1, master_seed=13).map(seeded_cell,
                                                         list(range(6)))
        par = SweepRunner(workers=3, master_seed=13).map(seeded_cell,
                                                         list(range(6)))
        assert seq == par

    def test_derive_cell_seed_decorrelates(self):
        seeds = {derive_cell_seed(1, i) for i in range(100)}
        assert len(seeds) == 100
        assert derive_cell_seed(1, 0) != derive_cell_seed(2, 0)

    def test_progress_callback_reaches_total(self):
        seen = []
        SweepRunner(workers=1, progress=lambda d, t: seen.append((d, t))).map(
            square_cell, [1, 2, 3])
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_parallel_progress_counts_every_cell(self):
        seen = []
        SweepRunner(workers=2, progress=lambda d, t: seen.append((d, t))).map(
            square_cell, list(range(5)))
        assert seen[-1] == (5, 5)
        assert [d for d, _ in seen] == sorted(d for d, _ in seen)

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="cell 2 exploded"):
            SweepRunner(workers=2).map(failing_cell, [0, 1, 2, 3])
        with pytest.raises(ValueError, match="cell 2 exploded"):
            SweepRunner(workers=1).map(failing_cell, [0, 1, 2, 3])

    def test_pool_failure_falls_back_to_sequential(self, monkeypatch):
        import repro.experiments.runner as runner_module

        def broken_pool(*_args, **_kwargs):
            raise OSError("no semaphores on this platform")

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", broken_pool)
        with pytest.warns(RuntimeWarning, match="re-running all 3 cells"):
            assert SweepRunner(workers=4).map(square_cell, [1, 2, 3]) == \
                [1, 4, 9]

    def test_cell_os_error_is_not_swallowed_by_fallback(self):
        # An OSError raised by the cell function must propagate, not be
        # misread as "platform cannot host a process pool" (which would
        # silently re-run the whole grid sequentially).
        with pytest.raises(FileNotFoundError, match="lost its trace file"):
            SweepRunner(workers=2).map(os_error_cell, [0, 1])


# --------------------------------------------------------------------------- #
# Core budget: sweep workers x scenario shards must fit one host
# --------------------------------------------------------------------------- #
class TestCoreBudget:
    def test_env_override_and_fallback(self, monkeypatch):
        import os

        from repro.experiments.runner import (ACTIVE_WORKERS_ENV,
                                              CORE_BUDGET_ENV,
                                              active_sweep_workers,
                                              core_budget)
        monkeypatch.setenv(CORE_BUDGET_ENV, "3")
        assert core_budget() == 3
        monkeypatch.setenv(CORE_BUDGET_ENV, "not-a-number")
        assert core_budget() == (os.cpu_count() or 1)
        monkeypatch.delenv(CORE_BUDGET_ENV, raising=False)
        assert core_budget() == (os.cpu_count() or 1)
        monkeypatch.delenv(ACTIVE_WORKERS_ENV, raising=False)
        assert active_sweep_workers() == 1

    def test_sweep_workers_clamped_to_budget(self, monkeypatch):
        from repro.experiments.runner import CORE_BUDGET_ENV
        monkeypatch.setenv(CORE_BUDGET_ENV, "2")
        cells = list(range(6))
        with pytest.warns(RuntimeWarning, match="core budget"):
            results = SweepRunner(workers=4).map(square_cell, cells)
        assert results == [c * c for c in cells]

    def test_parallel_sweep_exports_active_workers(self, monkeypatch):
        from repro.experiments.runner import ACTIVE_WORKERS_ENV
        monkeypatch.delenv(ACTIVE_WORKERS_ENV, raising=False)
        SweepRunner(workers=2).map(active_workers_cell, [0, 1, 2])
        # The export is cleaned up after the sweep finishes.
        import os
        assert ACTIVE_WORKERS_ENV not in os.environ

    def test_shard_plan_clamped_under_active_sweep(self, monkeypatch):
        from repro.experiments.runner import (ACTIVE_WORKERS_ENV,
                                              CORE_BUDGET_ENV)
        from repro.experiments.sharded import build_shard_plan
        from repro.experiments.spec import (CellSpec, ScenarioSpec,
                                            ShardingSpec, UeSpec)
        spec = ScenarioSpec(
            num_ues=0, channel_profile="static",
            cells=[CellSpec(cell_id=c) for c in range(4)],
            ues=[UeSpec(ue_id=u, cell_id=u) for u in range(4)],
            sharding=ShardingSpec(mode="auto")).validate()
        # Outside a sweep, no clamp: 4 shards stay 4 shards.
        monkeypatch.delenv(ACTIVE_WORKERS_ENV, raising=False)
        monkeypatch.setenv(CORE_BUDGET_ENV, "4")
        assert build_shard_plan(spec, shards=4).num_shards == 4
        # Inside a 2-worker sweep, 4 shards exceed the budget of 4 cores.
        monkeypatch.setenv(ACTIVE_WORKERS_ENV, "2")
        with pytest.warns(RuntimeWarning, match="core budget"):
            plan = build_shard_plan(spec, shards=4)
        assert plan.num_shards == 2
        assert set(plan.assignment.values()) == {0, 1}

    def test_explicit_shard_map_warns_without_clamping(self, monkeypatch):
        from repro.experiments.runner import (ACTIVE_WORKERS_ENV,
                                              CORE_BUDGET_ENV)
        from repro.experiments.sharded import build_shard_plan
        from repro.experiments.spec import (CellSpec, ScenarioSpec,
                                            ShardingSpec, UeSpec)
        spec = ScenarioSpec(
            num_ues=0, channel_profile="static",
            cells=[CellSpec(cell_id=0), CellSpec(cell_id=1)],
            ues=[UeSpec(ue_id=0, cell_id=0), UeSpec(ue_id=1, cell_id=1)],
            sharding=ShardingSpec(mode="explicit",
                                  map={0: 0, 1: 1})).validate()
        monkeypatch.setenv(CORE_BUDGET_ENV, "2")
        monkeypatch.setenv(ACTIVE_WORKERS_ENV, "2")
        with pytest.warns(RuntimeWarning, match="core budget"):
            plan = build_shard_plan(spec)
        assert plan.num_shards == 2  # the requested placement is kept


# --------------------------------------------------------------------------- #
# Determinism regression: parallel sweeps must be bit-identical to sequential
# --------------------------------------------------------------------------- #
MINI_SWEEP = {"cc_names": ("prague",), "duration_s": 1.0}


def _mini_cells() -> list:
    return FIGURES["fig9"].cells({**FIGURES["fig9"].grid, **MINI_SWEEP})


class TestSweepDeterminism:
    def test_fig9_rows_identical_across_worker_counts(self):
        sequential = run_figure("fig9", workers=1, **MINI_SWEEP)
        parallel = run_figure("fig9", workers=4, **MINI_SWEEP)
        assert json.dumps(sequential, sort_keys=True) == \
            json.dumps(parallel, sort_keys=True)

    def test_fig9_grid_order_preserved(self):
        results = run_figure("fig9", workers=4, **MINI_SWEEP)
        assert [(r["cc"], r["channel"], r["l4span"]) for r in results] == \
            [(c["cc_name"], c["channel_profile"], c["marker"] == "l4span")
             for c in _mini_cells()]

    def test_fig9_cells_are_picklable_spec_dicts(self):
        import pickle

        from repro.experiments.spec import ScenarioSpec

        for cell in _mini_cells():
            assert isinstance(cell, dict)
            restored = ScenarioSpec.from_dict(pickle.loads(pickle.dumps(cell)))
            assert restored.to_dict() == cell

    def test_formerly_serial_figure_identical_across_worker_counts(self):
        grid = {"ue_counts": (2,), "duration_s": 1.0}
        sequential = run_figure("fig10", workers=1, **grid)
        parallel = run_figure("fig10", workers=2, **grid)
        assert len(sequential) == 4
        assert json.dumps(sequential, sort_keys=True) == \
            json.dumps(parallel, sort_keys=True)

    def test_unknown_figure_or_grid_key_raises(self):
        with pytest.raises(ValueError, match="unknown grid key"):
            run_figure("fig9", seed=3)
        with pytest.raises(KeyError):
            run_figure("fig99")
