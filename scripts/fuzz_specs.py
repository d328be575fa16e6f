#!/usr/bin/env python3
"""Bounded differential-fuzz campaign over random scenario specs.

Replays :func:`repro.experiments.fuzz.random_spec` over ``--count``
consecutive seeds starting at ``--seed`` and checks every invariant suite
(byte/packet conservation, sharded ≡ single loop,
determinism across repeats, result-document validity, no
``ConservativeSyncError``).  Exit status 1 if any spec violates an
invariant; the failing seed is printed so
``random_spec(random.Random(seed))`` reproduces it exactly.

Seeds run through the sweep runner (``run_campaign``) in chunks of a few
seeds per worker: ``--workers`` (default: the ``REPRO_CORE_BUDGET``
arbiter) sets the process count without changing any verdict,
``--time-budget`` stops before the next chunk once the wall clock is
spent, and ``--report`` writes the JSON campaign report.  CI's
``fuzz-smoke`` job and the nightly campaign run this same loop.

``--minimize`` shrinks every failing spec with the delta-debugging
minimizer and appends the result to ``--corpus-dir`` (default
``tests/corpus/``), where tier-1 replays it forever after.

Usage:
    PYTHONPATH=src python scripts/fuzz_specs.py --count 50 --seed 0
    PYTHONPATH=src python scripts/fuzz_specs.py --count 40 --seed 1000 \\
        --shards 3 4 --workers 1
    PYTHONPATH=src python scripts/fuzz_specs.py --count 5000 \\
        --time-budget 3600 --report campaign.json --minimize
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.fuzz import (check_spec, random_spec,  # noqa: E402
                                    run_campaign)

DEFAULT_CORPUS = Path(__file__).resolve().parent.parent / "tests" / "corpus"


def _write_corpus_entry(corpus_dir: Path, seed: int, shard_counts,
                        violations: list[str]) -> Path | None:
    """Minimize the failing seed's spec and persist it as a corpus entry."""
    from repro.experiments.minimize import failure_signature, minimize_spec
    spec = random_spec(random.Random(seed))
    try:
        small = minimize_spec(
            spec, lambda s: check_spec(s, shard_counts=shard_counts))
    except ValueError:
        return None  # not reproducible at corpus shard counts
    corpus_dir.mkdir(parents=True, exist_ok=True)
    slug = re.sub(r"[^a-z0-9]+", "-", small.name.lower()).strip("-")
    path = corpus_dir / f"seed{seed}-{slug}.json"
    entry = {
        "schema": 1,
        "name": f"{small.name}-seed{seed}",
        "origin": f"fuzz_specs.py seed {seed}; signature "
                  f"{sorted(failure_signature(violations))}",
        "shard_counts": list(shard_counts),
        "spec": small.to_dict(),
    }
    path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
    return path


def _run_campaign(args) -> int:
    def progress(record: dict) -> None:
        status = "FAIL" if record["violations"] else "ok  "
        print(f"{status} seed={record['seed']} ({record['name']}, "
              f"{record['elapsed_s']:.1f}s)")
        for reason in record["violations"]:
            print(f"  - {reason}")

    report = run_campaign(
        count=args.count, seed=args.seed, duration_s=args.duration,
        shard_counts=args.shards, workers=args.workers,
        time_budget_s=args.time_budget, progress=progress)
    print(f"{report['seeds_checked']}/{args.count} seeds checked, "
          f"{len(report['failures'])} failing, {report['elapsed_s']:.1f}s, "
          f"{report['workers']} worker(s)"
          + (" [stopped early: time budget]" if report["stopped_early"]
             else ""))
    if args.report:
        report_path = Path(args.report)
        report_path.parent.mkdir(parents=True, exist_ok=True)
        report_path.write_text(json.dumps(report, indent=2, sort_keys=True)
                               + "\n")
        print(f"report written to {report_path}")
    _minimize_failures(args, [(f["seed"], f["violations"])
                              for f in report["failures"]])
    return 1 if report["failures"] else 0


def _minimize_failures(args, failures: list[tuple[int, list[str]]]) -> None:
    if not args.minimize or not failures:
        return
    corpus_dir = Path(args.corpus_dir)
    for seed, violations in failures:
        path = _write_corpus_entry(corpus_dir, seed, args.shards, violations)
        if path is not None:
            print(f"minimized seed {seed} -> {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=50,
                        help="number of specs to draw (default 50)")
    parser.add_argument("--seed", type=int, default=0,
                        help="first seed of the consecutive range (default 0)")
    parser.add_argument("--shards", type=int, nargs="+", default=[2],
                        help="shard counts each spec is run at (default: 2)")
    parser.add_argument("--duration", type=float, default=0.4,
                        help="simulated seconds per spec (default 0.4)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: the core budget)")
    parser.add_argument("--time-budget", type=float, default=None,
                        help="stop dispatching new seeds after this many "
                             "wall-clock seconds")
    parser.add_argument("--report", type=str, default=None,
                        help="write the JSON campaign report here")
    parser.add_argument("--minimize", action="store_true",
                        help="shrink every failing spec and append it to the "
                             "corpus directory")
    parser.add_argument("--corpus-dir", type=str, default=str(DEFAULT_CORPUS),
                        help="corpus directory --minimize appends to "
                             "(default: tests/corpus/)")
    return _run_campaign(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
