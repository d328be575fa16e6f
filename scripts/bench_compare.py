#!/usr/bin/env python3
"""Gate benchmark throughput against the committed baseline.

``scripts/bench_smoke.sh`` autosaves pytest-benchmark JSON under
``.benchmarks/``; this script diffs the tracked throughput metrics of the
most recent run against ``benchmarks/baseline.json`` and exits non-zero when
any metric dropped more than the threshold (default 15%) — the CI
``bench-smoke`` job runs it so a silent events/sec regression fails the PR.

Tracked metrics are the ``*_per_sec`` numbers each benchmark attaches to its
record (``extra_info.events_per_sec_best``, or the same key inside
``extra_info.rows``); benchmarks without one fall back to pytest-benchmark's
ops/sec (``1 / stats.min``).

Usage:
    python scripts/bench_compare.py                 # gate against baseline
    python scripts/bench_compare.py --update        # refresh the baseline
    python scripts/bench_compare.py --warn-only     # report, never fail

The ``REPRO_BENCH_WARN_ONLY`` environment variable (any non-empty value) is
the escape hatch for noisy runners: same report, exit 0.  No repro imports —
the script runs on a bare CPython with nothing installed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_STORAGE = REPO_ROOT / ".benchmarks"
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "baseline.json"
WARN_ONLY_ENV = "REPRO_BENCH_WARN_ONLY"

#: Version stamped into baselines written by ``--update``; bump when the
#: baseline layout changes so older checkouts reject newer files loudly
#: instead of mis-reading them.
BASELINE_SCHEMA_VERSION = 1

#: Baseline schema versions this script knows how to read.
SUPPORTED_BASELINE_VERSIONS = (1,)

#: extra_info keys treated as throughput metrics (higher is better).
RATE_KEYS = ("events_per_sec_best", "packets_per_sec_best",
             "ue_seconds_per_sec_best")

#: extra_info keys recorded in the baseline for trend inspection but never
#: gated: they are not rates (the benchmarks assert their own hard floors
#: where the ISSUE demands one).
INFO_KEYS = ("sync_windows",)


def latest_run(storage: Path) -> Path:
    """The most recently written autosaved run JSON under ``storage``."""
    runs = sorted(storage.glob("*/*.json"), key=lambda p: p.stat().st_mtime)
    if not runs:
        raise FileNotFoundError(
            f"no benchmark JSON under {storage}; run scripts/bench_smoke.sh "
            "first")
    return runs[-1]


def extract_metrics(run_file: Path) -> dict[str, float]:
    """``{metric name: throughput}`` for every benchmark in a run file."""
    data = json.loads(run_file.read_text())
    metrics: dict[str, float] = {}
    for bench in data.get("benchmarks", []):
        name = bench.get("fullname") or bench.get("name", "?")
        extra = bench.get("extra_info") or {}
        rows = extra.get("rows") or []
        sources = [extra] + [row for row in rows if isinstance(row, dict)]
        tracked = False
        for source in sources:
            for key in RATE_KEYS + INFO_KEYS:
                if isinstance(source.get(key), (int, float)):
                    metrics[f"{name}:{key}"] = float(source[key])
                    tracked = key in RATE_KEYS or tracked
        if not tracked:
            stats = bench.get("stats") or {}
            minimum = stats.get("min")
            if minimum:
                metrics[f"{name}:ops_per_sec"] = 1.0 / float(minimum)
    return metrics


def compare(current: dict[str, float], baseline: dict[str, float],
            threshold: float) -> tuple[list[str], list[str]]:
    """Return ``(regressions, notes)`` comparing current against baseline.

    A baseline metric absent from the current run counts as a regression:
    a renamed or deleted benchmark must force a deliberate ``--update``,
    not silently shrink the gate's coverage.
    """
    regressions, notes = [], []
    for name, base in sorted(baseline.items()):
        value = current.get(name)
        if value is None:
            regressions.append(
                f"GONE {name}: tracked metric missing from this run "
                "(benchmark renamed/removed? refresh with --update)")
            continue
        if name.rsplit(":", 1)[-1] in INFO_KEYS:
            print(f"INF {name}: {value:.2f} vs baseline {base:.2f} "
                  "(informational, not gated)")
            continue
        drop = (base - value) / base if base > 0 else 0.0
        marker = "OK " if drop <= threshold else "REG"
        line = (f"{marker} {name}: {value:,.0f} vs baseline {base:,.0f} "
                f"({-drop:+.1%})")
        print(line)
        if drop > threshold:
            regressions.append(line)
    for name in sorted(set(current) - set(baseline)):
        notes.append(f"not in baseline (run --update to track): {name}")
    return regressions, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff benchmark throughput against the committed "
                    "baseline and fail on regressions.")
    parser.add_argument("--storage", type=Path, default=DEFAULT_STORAGE,
                        help="pytest-benchmark autosave directory")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help="committed baseline JSON")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="maximum tolerated fractional drop (default .15)")
    parser.add_argument("--run", type=Path, default=None,
                        help="specific run JSON (default: newest autosave)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the current run")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions but always exit 0 "
                             f"(also via ${WARN_ONLY_ENV})")
    args = parser.parse_args(argv)

    run_file = args.run if args.run is not None else latest_run(args.storage)
    current = extract_metrics(run_file)
    print(f"benchmark run: {run_file}")
    if not current:
        print("no tracked metrics found in the run file", file=sys.stderr)
        return 2

    if args.update:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(json.dumps(
            {"schema_version": BASELINE_SCHEMA_VERSION,
             "threshold": args.threshold,
             "source_run": run_file.name,
             "metrics": {k: round(v, 2) for k, v in sorted(current.items())}},
            indent=2) + "\n")
        print(f"baseline refreshed: {args.baseline} "
              f"({len(current)} metrics)")
        return 0

    if not args.baseline.exists():
        print(f"no baseline at {args.baseline}; run with --update to create "
              "one", file=sys.stderr)
        return 2
    try:
        baseline_doc = json.loads(args.baseline.read_text())
    except json.JSONDecodeError as error:
        print(f"baseline {args.baseline} is not valid JSON ({error}); "
              "refresh it with --update", file=sys.stderr)
        return 2
    version = baseline_doc.get("schema_version")
    if version is None:
        print(f"baseline {args.baseline} has no 'schema_version' field; it "
              "predates the versioned baseline layout — refresh it with "
              "'python scripts/bench_compare.py --update'", file=sys.stderr)
        return 2
    if version not in SUPPORTED_BASELINE_VERSIONS:
        supported = ", ".join(str(v) for v in SUPPORTED_BASELINE_VERSIONS)
        print(f"baseline {args.baseline} has schema_version {version!r}, but "
              f"this checkout only understands: {supported}. Update the "
              "checkout to read newer baselines, or regenerate the baseline "
              "here with --update", file=sys.stderr)
        return 2
    baseline = baseline_doc.get("metrics")
    if not isinstance(baseline, dict) or not baseline:
        print(f"baseline {args.baseline} has no 'metrics' mapping (old or "
              "hand-edited schema?); refresh it with --update",
              file=sys.stderr)
        return 2
    bad = [k for k, v in baseline.items()
           if not isinstance(v, (int, float))]
    if bad:
        print(f"baseline {args.baseline} has non-numeric metrics "
              f"({', '.join(sorted(bad)[:5])}); refresh it with --update",
              file=sys.stderr)
        return 2
    regressions, notes = compare(current, baseline, args.threshold)
    for note in notes:
        print(f"note: {note}")
    if regressions:
        print(f"\n{len(regressions)} metric(s) regressed more than "
              f"{args.threshold:.0%} (or went missing):", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        if args.warn_only or os.environ.get(WARN_ONLY_ENV):
            print("warn-only mode: not failing the build", file=sys.stderr)
            return 0
        return 1
    print("benchmark gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
