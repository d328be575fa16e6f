"""Tests for the CI benchmark regression gate (scripts/bench_compare.py)."""

from __future__ import annotations

import importlib.util
import json
import pathlib

_SCRIPT = (pathlib.Path(__file__).parent.parent / "scripts"
           / "bench_compare.py")
_spec = importlib.util.spec_from_file_location("bench_compare", _SCRIPT)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)


def _run_file(tmp_path, benchmarks) -> pathlib.Path:
    machine = tmp_path / "Linux-CPython-3.11-64bit"
    machine.mkdir(parents=True, exist_ok=True)
    run = machine / "0001_deadbeef_20260101_000000.json"
    run.write_text(json.dumps({"benchmarks": benchmarks}))
    return run


def _bench(name, extra_info=None, minimum=None):
    record = {"name": name, "fullname": f"benchmarks/x.py::{name}",
              "extra_info": extra_info or {}}
    if minimum is not None:
        record["stats"] = {"min": minimum}
    return record


class TestExtractMetrics:
    def test_rates_from_extra_info_and_rows(self, tmp_path):
        run = _run_file(tmp_path, [
            _bench("a", {"events_per_sec_best": 1000.0}),
            _bench("b", {"rows": [{"packets_per_sec_best": 50.0}]}),
            _bench("c", minimum=0.25),
        ])
        metrics = bench_compare.extract_metrics(run)
        assert metrics == {
            "benchmarks/x.py::a:events_per_sec_best": 1000.0,
            "benchmarks/x.py::b:packets_per_sec_best": 50.0,
            "benchmarks/x.py::c:ops_per_sec": 4.0,
        }


class TestGate:
    def _baseline(self, tmp_path, metrics, version=1) -> pathlib.Path:
        baseline = tmp_path / "baseline.json"
        document = {"schema_version": version, "metrics": metrics}
        if version is None:
            del document["schema_version"]
        baseline.write_text(json.dumps(document))
        return baseline

    def test_within_threshold_passes(self, tmp_path, capsys):
        run = _run_file(tmp_path, [_bench("a", {"events_per_sec_best": 900.0})])
        baseline = self._baseline(
            tmp_path, {"benchmarks/x.py::a:events_per_sec_best": 1000.0})
        code = bench_compare.main(["--run", str(run),
                                   "--baseline", str(baseline)])
        assert code == 0

    def test_regression_fails(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(bench_compare.WARN_ONLY_ENV, raising=False)
        run = _run_file(tmp_path, [_bench("a", {"events_per_sec_best": 800.0})])
        baseline = self._baseline(
            tmp_path, {"benchmarks/x.py::a:events_per_sec_best": 1000.0})
        assert bench_compare.main(["--run", str(run),
                                   "--baseline", str(baseline)]) == 1
        # ... unless one of the warn-only escape hatches is engaged.
        assert bench_compare.main(["--run", str(run), "--warn-only",
                                   "--baseline", str(baseline)]) == 0

    def test_missing_tracked_metric_fails(self, tmp_path, capsys, monkeypatch):
        """A renamed/deleted benchmark must not silently shrink the gate."""
        monkeypatch.delenv(bench_compare.WARN_ONLY_ENV, raising=False)
        run = _run_file(tmp_path, [_bench("renamed",
                                          {"events_per_sec_best": 1e6})])
        baseline = self._baseline(
            tmp_path, {"benchmarks/x.py::a:events_per_sec_best": 1000.0})
        assert bench_compare.main(["--run", str(run),
                                   "--baseline", str(baseline)]) == 1

    def test_update_round_trips(self, tmp_path, capsys):
        run = _run_file(tmp_path, [_bench("a", {"events_per_sec_best": 1234.5})])
        baseline = tmp_path / "baseline.json"
        assert bench_compare.main(["--run", str(run), "--update",
                                   "--baseline", str(baseline)]) == 0
        assert bench_compare.main(["--run", str(run),
                                   "--baseline", str(baseline)]) == 0
        saved = json.loads(baseline.read_text())
        assert saved["schema_version"] == \
            bench_compare.BASELINE_SCHEMA_VERSION
        assert saved["metrics"] == {
            "benchmarks/x.py::a:events_per_sec_best": 1234.5}

    def test_baseline_without_metrics_mapping_fails_loudly(self, tmp_path,
                                                           capsys):
        """An old or hand-edited baseline schema must produce an actionable
        message, not a KeyError traceback."""
        run = _run_file(tmp_path, [_bench("a", {"events_per_sec_best": 1.0})])
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"schema_version": 1,
                                        "thresholds": {}}))
        assert bench_compare.main(["--run", str(run),
                                   "--baseline", str(baseline)]) == 2
        assert "no 'metrics' mapping" in capsys.readouterr().err

    def test_corrupt_baseline_fails_loudly(self, tmp_path, capsys):
        run = _run_file(tmp_path, [_bench("a", {"events_per_sec_best": 1.0})])
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{not json")
        assert bench_compare.main(["--run", str(run),
                                   "--baseline", str(baseline)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_numeric_baseline_metric_fails_loudly(self, tmp_path, capsys):
        run = _run_file(tmp_path, [_bench("a", {"events_per_sec_best": 1.0})])
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(
            {"schema_version": 1,
             "metrics": {"benchmarks/x.py::a:events_per_sec_best":
                         "fast"}}))
        assert bench_compare.main(["--run", str(run),
                                   "--baseline", str(baseline)]) == 2
        assert "non-numeric" in capsys.readouterr().err


class TestInformationalMetrics:
    def test_rate_keys_gate_and_info_keys_do_not(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(bench_compare.WARN_ONLY_ENV, raising=False)
        extra = {"events_per_sec_best": 1000.0,
                 "ue_seconds_per_sec_best": 1500.0,
                 "sync_windows": 40}
        run = _run_file(tmp_path, [_bench("a", extra)])
        baseline = tmp_path / "baseline.json"
        assert bench_compare.main(["--run", str(run), "--update",
                                   "--baseline", str(baseline)]) == 0
        saved = json.loads(baseline.read_text())["metrics"]
        assert saved["benchmarks/x.py::a:ue_seconds_per_sec_best"] == 1500.0
        assert saved["benchmarks/x.py::a:sync_windows"] == 40

        # A regression on a secondary rate gates like any other rate...
        slow = _run_file(tmp_path, [_bench("a", dict(
            extra, ue_seconds_per_sec_best=1000.0))])
        assert bench_compare.main(["--run", str(slow),
                                   "--baseline", str(baseline)]) == 1

        # ...but a swing of an informational key alone never does (hard
        # floors live in the benchmarks themselves).
        windows = _run_file(tmp_path, [_bench("a", dict(
            extra, sync_windows=20))])
        assert bench_compare.main(["--run", str(windows),
                                   "--baseline", str(baseline)]) == 0
        assert "informational" in capsys.readouterr().out


class TestBaselineSchemaVersion:
    def test_unversioned_baseline_rejected_with_guidance(self, tmp_path,
                                                         capsys):
        run = _run_file(tmp_path, [_bench("a", {"events_per_sec_best": 1.0})])
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(
            {"metrics": {"benchmarks/x.py::a:events_per_sec_best": 1.0}}))
        assert bench_compare.main(["--run", str(run),
                                   "--baseline", str(baseline)]) == 2
        err = capsys.readouterr().err
        assert "schema_version" in err
        assert "--update" in err

    def test_future_baseline_version_rejected_with_guidance(self, tmp_path,
                                                            capsys):
        run = _run_file(tmp_path, [_bench("a", {"events_per_sec_best": 1.0})])
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(
            {"schema_version": 99,
             "metrics": {"benchmarks/x.py::a:events_per_sec_best": 1.0}}))
        assert bench_compare.main(["--run", str(run),
                                   "--baseline", str(baseline)]) == 2
        err = capsys.readouterr().err
        assert "schema_version 99" in err
        assert "only understands" in err

    def test_committed_baseline_is_versioned(self):
        committed = (pathlib.Path(__file__).parent.parent / "benchmarks"
                     / "baseline.json")
        document = json.loads(committed.read_text())
        assert document["schema_version"] in \
            bench_compare.SUPPORTED_BASELINE_VERSIONS
