"""Fading channels: determinism across repeats and across shard counts.

A fading spec draws its channel gains from seeded per-UE streams, so two
runs of the same spec must be bit-identical — and, the streams being named
per UE and seeded from the master seed, a shard simulator draws exactly
what the single loop draws: the sharded run equals the single loop like on
a static channel.  These tests pin both at ``--shards 1`` (single loop)
and ``--shards 2``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.fuzz import flows_identical
from repro.experiments.scenario import run_scenario
from repro.experiments.sharded import run_scenario_sharded, sharding_blockers
from repro.experiments.spec import (CellSpec, ScenarioSpec, ShardingSpec,
                                    UeSpec)
from repro.workloads.flows import FlowSpec


def _fading_spec(profile: str = "pedestrian") -> ScenarioSpec:
    return ScenarioSpec(
        name="fading", duration_s=0.3, num_ues=0, seed=77,
        channel_profile=profile,
        cells=[CellSpec(cell_id=0), CellSpec(cell_id=1)],
        ues=[UeSpec(ue_id=0, cell_id=0), UeSpec(ue_id=1, cell_id=1),
             UeSpec(ue_id=2, cell_id=0)],
        flows=[FlowSpec(flow_id=0, ue_id=0, cc_name="prague"),
               FlowSpec(flow_id=1, ue_id=1, cc_name="cubic",
                        start_time=0.02),
               FlowSpec(flow_id=2, ue_id=2, cc_name="prague",
                        start_time=0.01)],
        sharding=ShardingSpec(mode="auto", shards=2))


def _run(spec: ScenarioSpec, shards: int):
    if shards <= 1:
        return run_scenario(
            dataclasses.replace(spec, sharding=ShardingSpec(mode="off")))
    return run_scenario_sharded(spec, shards=shards, inprocess=True)


@pytest.mark.parametrize("shards", [1, 2])
def test_fading_repeat_runs_bit_identical(shards):
    spec = _fading_spec()
    assert sharding_blockers(spec) == []
    first = _run(spec, shards)
    second = _run(spec, shards)
    if shards > 1:
        assert not first.sharding_stats.get("fallback")
        assert flows_identical(first, _run(spec, 1))
    assert flows_identical(first, second)
    assert first.per_ue_throughput == second.per_ue_throughput
    assert any(flow.goodput_bytes_per_s > 0 for flow in first.flows)


def test_vehicular_profile_also_deterministic():
    """The faster-varying profile exercises more channel redraws."""
    spec = _fading_spec(profile="vehicular")
    first = _run(spec, 2)
    second = _run(spec, 2)
    single = _run(spec, 1)
    assert flows_identical(first, second)
    assert flows_identical(first, single)
    assert first.per_ue_throughput == single.per_ue_throughput
