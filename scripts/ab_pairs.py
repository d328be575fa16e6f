#!/usr/bin/env python3
"""Alternating parent / change pairs of one ledger workload.

Runs the performance ledger's driver contract
(``benchmarks/ledger/run.py --workload W --seed S --trace 0``) ``N`` times
in each of two checkouts, alternating between them (the first run of each
pair alternates too, so slow drift of the machine does not favour one side),
then prints every pair and, per bounded end-to-end metric, each side's median
and quartiles, how many pairs the change won and the median change / parent
ratio.

Each checkout measures its own source tree.  Before the first pair the
script byte-compiles ``src`` and ``benchmarks/ledger`` in both (``python
-m compileall``, with ``PYTHONDONTWRITEBYTECODE`` cleared), so neither side
runs stale bytecode or pays for compiling in its first runs.

Usage:
    python3 scripts/ab_pairs.py PARENT_DIR CHANGE_DIR dense_cell 10
    python3 scripts/ab_pairs.py PARENT_DIR CHANGE_DIR dense_cell 10 --seed 1234
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median, quantiles

#: The ledger's bounded end-to-end metrics; lower is better for each.
METRICS = ("wall_us_per_event", "setup_s", "peak_rss_mb")


def run_driver(checkout: str, workload: str, seed: int) -> dict:
    """One driver run in ``checkout``: ``{metric: value}`` plus its failed
    operations.  The driver exits 1 when an operation failed but still
    prints its report; only a run without a report stops the pairs."""
    command = [sys.executable, os.path.join("benchmarks", "ledger", "run.py"),
               "--workload", workload, "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True)
    lines = done.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{checkout}: driver exited {done.returncode} "
                         f"without a report: {done.stderr.strip()[-400:]}")
    values = {key: entry["value"] for key, entry in report["metrics"].items()}
    values["failed"] = report["failed"]
    return values


def compile_tree(checkout: str) -> None:
    """Byte-compile the sources a ledger run imports in ``checkout``."""
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONDONTWRITEBYTECODE"}
    done = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src",
         os.path.join("benchmarks", "ledger")],
        cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"{checkout}: compileall exited {done.returncode}: "
                         f"{(done.stdout + done.stderr).strip()[-400:]}")


def _quartiles(values: list) -> list:
    return quantiles(values, n=4) if len(values) > 1 else values * 3


def summarize(pairs: list) -> dict:
    """Per metric: each side's quartiles, change wins and median ratio."""
    summary = {}
    for metric in METRICS:
        ratios = [change[metric] / parent[metric]
                  for parent, change in pairs if parent[metric]]
        if ratios:
            summary[metric] = {
                "wins": sum(ratio < 1.0 for ratio in ratios),
                "pairs": len(ratios), "median_ratio": median(ratios),
                "parent_quartiles": _quartiles([p[metric] for p, _ in pairs]),
                "change_quartiles": _quartiles([c[metric] for _, c in pairs])}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("workload", help="ledger workload name")
    parser.add_argument("n", type=int, help="number of pairs")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    for checkout in (args.parent, args.change):
        compile_tree(checkout)
    pairs = []
    for index in range(args.n):
        sides = ["parent", "change"] if index % 2 == 0 else ["change", "parent"]
        result = {side: run_driver(getattr(args, side), args.workload,
                                   args.seed)
                  for side in sides}
        pairs.append((result["parent"], result["change"]))
        print(f"pair {index + 1:>2} ({sides[0]} first): " + "  ".join(
            f"{metric} {result['parent'][metric]:.4g} -> "
            f"{result['change'][metric]:.4g}" for metric in METRICS),
            flush=True)
    failed = sum(p["failed"] + c["failed"] for p, c in pairs)
    summary = summarize(pairs)
    print(f"{args.workload}, {len(pairs)} alternating pairs, seed {args.seed}, "
          f"failed operations {failed}")
    for metric, row in summary.items():
        parent, change = row["parent_quartiles"], row["change_quartiles"]
        print(f"  {metric:<18} parent {parent[1]:.4g} [{parent[0]:.4g}-"
              f"{parent[2]:.4g}]  change {change[1]:.4g} [{change[0]:.4g}-"
              f"{change[2]:.4g}]  median ratio {row['median_ratio']:.3f}  "
              f"change ahead in {row['wins']}/{row['pairs']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
