"""One test per remaining sharding blocker: CLI note == sharding_stats.

Only two spec shapes still refuse to shard (single cell, a too-small
SNR commit lag).  Each test pins the blocker's exact message on both
user-facing surfaces — the ``RuntimeWarning`` + stderr note the CLI
prints and the ``result.sharding_stats["blockers"]`` list the result
document carries — so retiring or rewording a blocker has to update the
tests too.
"""

from __future__ import annotations

import pytest

from repro.__main__ import main
from repro.experiments.spec import (CellSpec, MobilitySpec, ScenarioSpec,
                                    ShardingSpec, UeSpec)
from repro.experiments.scenario import run_scenario
from repro.workloads.flows import FlowSpec


def _base_spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="blocker", duration_s=0.05, num_ues=0,
        channel_profile="static",
        cells=[CellSpec(cell_id=0), CellSpec(cell_id=1)],
        ues=[UeSpec(ue_id=0, cell_id=0), UeSpec(ue_id=1, cell_id=1)],
        flows=[FlowSpec(flow_id=0, ue_id=0, cc_name="prague"),
               FlowSpec(flow_id=1, ue_id=1, cc_name="prague")],
        sharding=ShardingSpec(mode="auto", shards=2))
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def _assert_blocker_everywhere(tmp_path, capsys, spec: ScenarioSpec,
                               expected_fragment: str) -> None:
    """The blocker string must match between the CLI note and the stats."""
    with pytest.warns(RuntimeWarning, match="cannot be sharded"):
        result = run_scenario(spec)
    blockers = result.sharding_stats["blockers"]
    assert result.sharding_stats["fallback"] == "single-loop"
    assert any(expected_fragment in blocker for blocker in blockers), blockers

    path = tmp_path / "spec.json"
    path.write_text(spec.to_json())
    with pytest.warns(RuntimeWarning, match="cannot be sharded"):
        code = main(["scenario", "--spec", str(path)])
    assert code == 0
    note = capsys.readouterr().err
    assert "note: spec cannot be sharded, ran on the single event loop " \
           f"instead ({'; '.join(blockers)})" in note


def test_single_cell_blocker_message(tmp_path, capsys):
    spec = _base_spec(
        cells=[CellSpec(cell_id=0)],
        ues=[UeSpec(ue_id=0, cell_id=0)],
        flows=[FlowSpec(flow_id=0, ue_id=0, cc_name="prague")])
    _assert_blocker_everywhere(tmp_path, capsys, spec,
                               "fewer than two cells")


def test_undersized_commit_lag_blocker_message(tmp_path, capsys):
    spec = _base_spec(
        mobility=MobilitySpec(mode="snr", commit_lag_s=1e-6))
    _assert_blocker_everywhere(
        tmp_path, capsys, spec,
        "mobility.commit_lag_s is below the safe minimum")

