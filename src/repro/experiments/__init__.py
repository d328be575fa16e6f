"""Scenario building, running and sweeping, and the paper's figure table.

:mod:`repro.experiments.scenario` provides the generic scenario builder
(server <-> WAN <-> 5G core <-> gNB(+marker) <-> UEs <-> flows) that every
experiment configures; :mod:`repro.experiments.figures` holds the paper's
figures and tables as one table of sweep grids, each run through
:class:`~repro.experiments.runner.SweepRunner` by ``run_figure``.
"""

from repro.experiments.presets import make_preset, preset_names
from repro.experiments.runner import SweepRunner, derive_cell_seed
from repro.experiments.scenario import (FlowResult, ScenarioResult,
                                        build_scenario, run_scenario)
from repro.experiments.sharded import (ShardPlan, build_shard_plan,
                                       run_scenario_sharded, split_spec)
from repro.experiments.spec import (CellSpec, ScenarioSpec, ShardingSpec,
                                    UeSpec)
from repro.experiments.wired import WiredScenarioConfig, run_wired_scenario


__all__ = [
    "ScenarioSpec",
    "CellSpec",
    "UeSpec",
    "ShardingSpec",
    "ShardPlan",
    "build_shard_plan",
    "run_scenario_sharded",
    "split_spec",
    "make_preset",
    "preset_names",
    "ScenarioResult",
    "FlowResult",
    "build_scenario",
    "run_scenario",
    "SweepRunner",
    "derive_cell_seed",
    "WiredScenarioConfig",
    "run_wired_scenario",
]
