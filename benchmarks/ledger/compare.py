"""Compare two ledger files: is B worse than A, and can we tell?

One row per workload x end-to-end metric.  ``change`` is ``(B - A) / A``.
A row is ``worse`` when B's median is worse than A's by more than the
metric's bound, and ``unresolved`` -- not ``ok`` -- when the repeats'
inter-quartile spread on either side exceeds the bound, unless every repeat
of B reads better than every repeat of A.  Simulated metrics repeat exactly,
so their spread is 0 and their bound is a plain tripwire.
"""

from __future__ import annotations

import json
import math
import sys

from definition import END_TO_END
from stats import iqr_share


def verdict(metric: dict, a: dict, b: dict) -> dict:
    """One comparison row for ``metric`` given both sides' entries."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    value_a, value_b = a["value"], b["value"]
    if value_a == value_b:
        change = 0.0
    elif value_a == 0:
        change = math.copysign(math.inf, value_b)
    else:
        change = (value_b - value_a) / abs(value_a)
    worsening = change if lower else -change
    spread = max(iqr_share(a["repeats"]), iqr_share(b["repeats"]))
    if lower:
        clear_win = max(b["repeats"]) < min(a["repeats"])
    else:
        clear_win = min(b["repeats"]) > max(a["repeats"])
    if spread > bound and not clear_win:
        outcome = "unresolved"
    elif worsening > bound:
        outcome = "worse"
    else:
        outcome = "ok"
    return {"metric": metric["name"], "unit": metric["unit"], "a": value_a,
            "b": value_b, "change": change, "bound": bound, "spread": spread,
            "verdict": outcome}


def compare_documents(a: dict, b: dict) -> list:
    """Rows for every workload and end-to-end metric both files carry."""
    rows = []
    for name, result_a in a["workloads"].items():
        result_b = b["workloads"].get(name)
        if result_b is None:
            continue
        for metric in END_TO_END:
            entry_a = result_a["end_to_end"].get(metric["name"])
            entry_b = result_b["end_to_end"].get(metric["name"])
            if entry_a is None or entry_b is None:
                continue
            rows.append({"workload": name, **verdict(metric, entry_a, entry_b)})
    return rows


def format_rows(rows: list) -> str:
    lines = [f"{'workload':<20}{'metric':<34}{'A':>12}{'B':>12}"
             f"{'change':>9}{'bound':>7}{'spread':>8}  verdict"]
    for row in rows:
        lines.append(
            f"{row['workload']:<20}{row['metric']:<34}{row['a']:>12.5g}"
            f"{row['b']:>12.5g}{row['change']:>+9.3f}{row['bound']:>7.2f}"
            f"{row['spread']:>8.3f}  {row['verdict']}")
    counts = {outcome: sum(row["verdict"] == outcome for row in rows)
              for outcome in ("ok", "worse", "unresolved")}
    lines.append(f"{len(rows)} rows: {counts['ok']} ok, {counts['worse']} "
                 f"worse, {counts['unresolved']} unresolved")
    return "\n".join(lines)


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, "r", encoding="utf-8") as handle:
            documents.append(json.load(handle))
    rows = compare_documents(*documents)
    print(format_rows(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0
