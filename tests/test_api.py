"""Tests for the stable public facade (:mod:`repro.api`) and the canonical
schema-versioned result document it shares with the CLI and the service."""

from __future__ import annotations

import json

import pytest

import repro.api as api
from repro.experiments.results import (SUPPORTED_SCHEMA_VERSIONS,
                                       result_schema)


def _tiny_spec() -> api.ScenarioSpec:
    return api.ScenarioSpec(num_ues=1, duration_s=0.4, seed=3)


# --------------------------------------------------------------------- #
# load_spec resolves every spec-shaped input
# --------------------------------------------------------------------- #
class TestLoadSpec:
    def test_scenario_spec_passes_through(self):
        spec = _tiny_spec()
        assert api.load_spec(spec) is spec

    def test_preset_name(self):
        spec = api.load_spec("coupled-core")
        assert spec == api.make_preset("coupled-core")

    def test_dict(self):
        spec = api.load_spec({"num_ues": 2, "duration_s": 1.0})
        assert spec.num_ues == 2

    def test_json_text(self):
        spec = api.load_spec(_tiny_spec().to_json())
        assert spec == _tiny_spec()

    def test_file_path(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(_tiny_spec().to_json())
        assert api.load_spec(str(path)) == _tiny_spec()
        assert api.load_spec(path) == _tiny_spec()

    def test_unresolvable_string_lists_presets(self):
        with pytest.raises(ValueError, match="coupled-core"):
            api.load_spec("definitely-not-a-preset")

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            api.load_spec(42)

    def test_invalid_dict_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            api.load_spec({"num_uess": 3})


# --------------------------------------------------------------------- #
# run / run_document and the byte-identity of the document
# --------------------------------------------------------------------- #
class TestRun:
    def test_run_accepts_options_and_progress(self):
        snapshots = []
        result = api.run(_tiny_spec(), progress=snapshots.append)
        assert result.summary()["total_goodput_mbps"] > 0
        assert len(snapshots) >= 1
        times = [snapshot["time_s"] for snapshot in snapshots]
        assert times == sorted(times)
        assert all(snapshot["kind"] == "snapshot" for snapshot in snapshots)

    def test_progress_hook_does_not_perturb_the_document(self):
        plain = api.dump_document(api.result_document(api.run(_tiny_spec())))
        probed = api.dump_document(api.result_document(
            api.run(_tiny_spec(), progress=lambda snapshot: None)))
        assert plain == probed

    def test_identical_runs_serialize_identically(self):
        first = api.dump_document(api.run_document(_tiny_spec()))
        second = api.dump_document(api.run_document(_tiny_spec()))
        assert first == second

    def test_run_document_is_checked_and_versioned(self):
        document = api.run_document(_tiny_spec())
        assert api.check_document(document) is document
        assert document["schema_version"] == api.SCHEMA_VERSION
        assert json.loads(api.dump_document(document)) == document

    def test_runtime_options_flow_through(self):
        result = api.run(_tiny_spec(), options=api.RuntimeOptions(shards=1))
        assert result.config.sharding.mode == "off"


# --------------------------------------------------------------------- #
# Sharded runs stream coarser per-window progress
# --------------------------------------------------------------------- #
class TestShardedProgress:
    def test_window_snapshots_from_inprocess_sharded_run(self):
        import dataclasses

        from repro.experiments.sharded import run_scenario_sharded

        base = api.make_preset("two-cell-imbalance")
        spec = dataclasses.replace(
            base, duration_s=1.0,
            ues=[dataclasses.replace(ue, channel_profile="static")
                 for ue in base.ues])
        snapshots = []
        result = run_scenario_sharded(spec, shards=2, inprocess=True,
                                      progress=snapshots.append)
        assert not result.sharding_stats.get("fallback")
        assert len(snapshots) >= 1
        assert all(snapshot["kind"] == "window" for snapshot in snapshots)
        times = [snapshot["time_s"] for snapshot in snapshots]
        assert times == sorted(times)
        assert times[-1] == pytest.approx(spec.duration_s)
        assert all(snapshot["shards"] == 2 for snapshot in snapshots)


# --------------------------------------------------------------------- #
# The document schema description cannot drift from the document
# --------------------------------------------------------------------- #
class TestResultSchema:
    def test_schema_required_keys_match_document(self):
        document = api.run_document(_tiny_spec())
        schema = result_schema()
        assert sorted(schema["required"]) == sorted(document)
        assert sorted(schema["properties"]) == sorted(document)

    def test_flow_schema_keys_match_flow_documents(self):
        document = api.run_document(_tiny_spec())
        flow_schema = result_schema()["properties"]["flows"]["items"]
        for flow in document["flows"]:
            assert sorted(flow_schema["required"]) == sorted(flow)

    def test_document_has_no_nan_and_sorted_keys(self):
        text = api.dump_document(api.run_document(_tiny_spec()))
        assert "NaN" not in text and "Infinity" not in text
        assert text.endswith("\n")


# --------------------------------------------------------------------- #
# check_document rejects what it cannot read, with guidance
# --------------------------------------------------------------------- #
class TestCheckDocument:
    def test_missing_version_rejected(self):
        with pytest.raises(ValueError, match="schema_version"):
            api.check_document({"summary": {}})

    def test_unsupported_version_rejected(self):
        future = max(SUPPORTED_SCHEMA_VERSIONS) + 1
        with pytest.raises(ValueError, match="not supported"):
            api.check_document({"schema_version": future})

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            api.check_document([1, 2, 3])


# --------------------------------------------------------------------- #
# The sweep facade
# --------------------------------------------------------------------- #
def _square(cell: int) -> int:
    return cell * cell


def _seeded(cell: int, seed: int) -> tuple[int, int]:
    return cell, seed


class TestSweep:
    def test_results_in_input_order(self):
        assert api.sweep(_square, [3, 1, 2]) == [9, 1, 4]

    def test_master_seed_derives_per_cell_seeds(self):
        rows = api.sweep(_seeded, ["a", "b"], master_seed=7)
        assert [cell for cell, _ in rows] == ["a", "b"]
        seeds = [seed for _, seed in rows]
        assert len(set(seeds)) == 2
        assert rows == api.sweep(_seeded, ["a", "b"], master_seed=7)


# --------------------------------------------------------------------- #
# The facade exports what it promises
# --------------------------------------------------------------------- #
class TestSurface:
    def test_all_exports_resolve(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_serve_is_exported(self):
        assert callable(api.serve)
