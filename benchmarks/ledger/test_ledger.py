"""Tests of the ledger's own machinery (no scenario longer than 0.2 sim-s).

The numbers the ledger reports are only as good as its layer mapping, its
order statistics, its speed-correction arithmetic and its verdicts; these
are checked here on synthetic inputs, plus one miniature pass through the
real measurement code so a renamed metric cannot silently drop out of
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re
import statistics
from pathlib import Path

import pytest

import compare
import definition
import layers
import run
import speed
import stats

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# --------------------------------------------------------------------- #
# layer mapping
def test_every_source_file_maps_to_a_named_layer():
    sources = sorted((ROOT / "src" / "repro").rglob("*.py"))
    assert len(sources) > 100
    unmapped = [str(path) for path in sources
                if layers.layer_of(str(path)) == "other"]
    assert unmapped == []
    assert {layers.layer_of(str(path)) for path in sources} \
        == set(layers.LAYERS) - {"other"}


@pytest.mark.parametrize("path, layer", [
    ("/x/src/repro/ran/rlc.py", "ran.rlc"),
    ("/x/src/repro/ran/marker.py", "ran.other"),
    ("/x/src/repro/ran/core.py", "ran.other"),
    ("/x/src/repro/core/l4span.py", "core"),
    ("/x/src/repro/experiments/sharded.py", "experiments.sharded"),
    ("/x/src/repro/experiments/scenario.py", "experiments.other"),
    ("/x/src/repro/api.py", "experiments.other"),
    ("/x/src/repro/newpackage/thing.py", "other"),
    ("/usr/lib/python3.11/heapq.py", "other"),
    ("/site-packages/numpy/core/numeric.py", "other"),
    ("~", "other"),
])
def test_layer_of(path, layer):
    assert layers.layer_of(path) == layer


# --------------------------------------------------------------------- #
# order statistics
def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 90) == 90
    assert stats.percentile(samples, 99) == 99
    assert stats.percentile([3.0], 99) == 3.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize("count, expected", [
    (5, 50.0), (19, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_highest_percentile_leaves_ten_samples_beyond(count, expected):
    assert stats.highest_percentile(count) == expected


def test_iqr_share_matches_the_drivers_definition():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    quartiles = statistics.quantiles(values, n=4)
    assert stats.iqr_share(values) == pytest.approx(
        (quartiles[2] - quartiles[0]) / statistics.median(values))
    assert stats.iqr_share([5.0]) == 0.0


# --------------------------------------------------------------------- #
# speed correction
def test_speed_correction_arithmetic():
    k0 = speed.K0
    assert speed.corrected(2.0, k0, k0) == pytest.approx(2.0)
    # a machine running the kernel twice as slow halves the charged time
    assert speed.corrected(2.0, 2 * k0, 2 * k0) == pytest.approx(1.0)
    # the bracket is the mean of before and after
    assert speed.corrected(3.0, k0, 2 * k0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        speed.corrected(1.0, 0.0, 0.0)


def test_calibration_is_a_positive_time():
    assert 0.0 < speed.kernel_slice() < 1.0


# --------------------------------------------------------------------- #
# compare verdicts
def _entry(*repeats):
    return {"value": statistics.median(repeats), "repeats": list(repeats)}


LOWER = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.10}
HIGHER = {"name": "goodput_mbps", "unit": "Mbit/s", "better": "higher",
          "bound": 0.02}
NO_FAILURES = {"name": "failed_share", "unit": "ratio", "better": "lower",
               "bound": 0.0}


def test_verdict_ok_within_bound():
    row = compare.verdict(LOWER, _entry(1.00, 1.01, 0.99),
                          _entry(1.05, 1.06, 1.04))
    assert row["verdict"] == "ok"
    assert row["change"] == pytest.approx(0.05)


def test_verdict_worse_beyond_bound():
    row = compare.verdict(LOWER, _entry(1.00, 1.01, 0.99),
                          _entry(1.20, 1.21, 1.19))
    assert row["verdict"] == "worse"


def test_verdict_unresolved_when_spread_exceeds_bound():
    noisy = _entry(0.7, 1.0, 1.3, 0.8, 1.2)
    assert compare.verdict(LOWER, noisy, _entry(1.3, 1.31, 1.29))["verdict"] \
        == "unresolved"
    # ... unless every repeat of B beats every repeat of A
    assert compare.verdict(LOWER, noisy, _entry(0.5, 0.51, 0.49))["verdict"] \
        == "ok"


def test_verdict_direction_and_exact_metrics():
    assert compare.verdict(HIGHER, _entry(40.0), _entry(38.0))["verdict"] \
        == "worse"
    assert compare.verdict(HIGHER, _entry(40.0), _entry(45.0))["verdict"] \
        == "ok"
    assert compare.verdict(NO_FAILURES, _entry(0.0), _entry(0.0))["verdict"] \
        == "ok"
    assert compare.verdict(NO_FAILURES, _entry(0.0), _entry(0.01))["verdict"] \
        == "worse"


def test_compare_documents_rows():
    def document(wall):
        return {"workloads": {"prague_fading": {"end_to_end": {
            "wall_s": _entry(wall, wall * 1.01, wall * 0.99)}}}}

    rows = compare.compare_documents(document(1.0), document(1.5))
    assert [(row["workload"], row["metric"], row["verdict"]) for row in rows] \
        == [("prague_fading", "wall_s", "worse")]
    assert "1 worse" in compare.format_rows(rows)


# --------------------------------------------------------------------- #
# definition and BENCHMARK.json
def test_names_and_units_are_well_formed_and_unique():
    metrics = definition.END_TO_END + definition.PER_LAYER
    names = [metric["name"] for metric in metrics]
    names += [workload["name"] for workload in definition.WORKLOADS]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert all(UNIT.match(metric["unit"]) for metric in metrics)
    assert all(metric["better"] in ("lower", "higher") for metric in metrics)
    assert all(len(workload["why"]) <= 200 and "\n" not in workload["why"]
               for workload in definition.WORKLOADS)


def test_every_move_names_a_real_metric_and_workload():
    end_to_end = {metric["name"] for metric in definition.END_TO_END}
    for metric in definition.PER_LAYER:
        for target, where in metric["moves"].items():
            assert target in end_to_end, (metric["name"], target)
            assert set(where) <= set(definition.ALL), (metric["name"], where)


def test_benchmark_json_is_the_projection_of_the_definition():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        committed = json.load(handle)
    assert committed == definition.benchmark_json()
    assert set(committed) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert 2 <= len(committed["workloads"]) <= 8
    assert 1 <= len(committed["end_to_end"]) <= 16
    assert 1 <= len(committed["per_layer"]) <= 128
    assert all(0 < metric["bound"] <= 0.25
               for metric in committed["end_to_end"])
    setup = [metric for metric in committed["end_to_end"]
             if metric["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(metric["bound"]
                                   for metric in committed["end_to_end"])}]
    assert all(not part.startswith("/") and ".." not in part
               for part in committed["command"] + committed["paths"])


# --------------------------------------------------------------------- #
# a miniature pass through the real measurement code
@pytest.fixture
def miniature(monkeypatch, tmp_path):
    """Every workload cut to its 0.05 sim-s set-up variant, checks on."""
    import drivers
    import workloads

    real = workloads.make_workload

    def tiny(name, seed, tmp_root, setup=False):
        workload = real(name, seed, str(tmp_path), setup=True)
        workload.checks = name != "marker_contrast"  # no OWD samples to check
        return workload

    monkeypatch.setattr(workloads, "make_workload", tiny)
    monkeypatch.setattr(drivers, "run_drivers",
                        lambda: dict.fromkeys(drivers.DRIVERS, 1.0))
    monkeypatch.setattr(run, "TMP", str(tmp_path))


@pytest.mark.parametrize("name", ["coupled_shards", "service_short_jobs"])
def test_layer_pass_prints_only_listed_names(miniature, name):
    session = run.Session()
    values = run.measure_layers(session, name, seed=7)
    assert session.failures == []
    defined = {metric["name"]
               for metric in definition.END_TO_END + definition.PER_LAYER}
    assert set(values) <= defined
    assert values["trace.total_self_s"] > 0
    assert values["sim.share"] > 0
    assert values["sim.events"] > 0
    if name == "coupled_shards":
        assert values["experiments.sharded.share"] > 0
        assert values["experiments.sharded.windows"] > 0
        assert values["experiments.sharded.slowdown_vs_single"] > 0
    else:
        assert values["service.share"] > 0
        assert values["submit_to_document_ms_p50"] > 0
        assert values["service.reject_ms"] > 0


def test_repeats_of_one_seed_must_hash_alike(miniature):
    import workloads

    session = run.Session()
    workload = workloads.make_workload("prague_fading", 7, "")
    repeats = run.timed_repeats(session, workload, seconds=0.0, min_repeats=2)
    observations = [obs for obs, _, _ in repeats]
    assert len(observations) == 3  # warm-up + 2 timed
    digest = run.check_repeats(session, "prague_fading", observations)
    assert len(digest) == 64 and session.failures == []
    metrics, _info = run.host_metrics(repeats[1:])
    assert metrics["wall_s"]["value"] > 0
    assert metrics["wall_us_per_event"]["value"] > 0
    observations[1].documents = ["tampered"]
    run.check_repeats(session, "prague_fading", observations)
    assert len(session.failures) == 1


def test_drivers_cover_exactly_the_isolated_metrics():
    import drivers

    listed = {metric["name"] for metric in definition.PER_LAYER}
    assert set(drivers.DRIVERS) <= listed
    assert drivers.rlc_sdu() > 0  # one real driver, the one with most wiring
