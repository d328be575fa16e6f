"""Derived tables over figure rows: the comparisons the paper's claims state.

:func:`~repro.experiments.figures.run_figure` returns one row per run.  The
claims compare runs: L4Span against no marker (Figs. 9 and 24), L4Span
against TC-RAN (Fig. 12), and the marker's cost against the plain RAN
(Table 1).  Each function here pairs a figure's rows and reports the change.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable


def _relative_pct(baseline: float, value: float) -> float:
    return 100.0 * (value - baseline) / baseline if baseline > 0 else 0.0


_sweep_cell = operator.itemgetter("cc", "channel", "ues", "rlc_queue", "wan_rtt_ms")


def improvement_table(rows: Iterable[dict]) -> list[dict]:
    """Pair up the ±L4Span Fig. 9/24 rows into the paper's headline reductions."""
    rows = list(rows)
    out = []
    for row in rows:
        if not row["l4span"]:
            continue
        baseline = next((r for r in rows if not r["l4span"]
                         and _sweep_cell(r) == _sweep_cell(row)), None)
        if baseline is None or math.isnan(baseline["owd_median_ms"]):
            continue
        owd = baseline["owd_median_ms"]
        out.append({"cc": row["cc"], "channel": row["channel"], "ues": row["ues"],
                    "rlc_queue": row["rlc_queue"],
                    "owd_reduction_pct": (100.0 * (owd - row["owd_median_ms"]) / owd
                                          if owd > 0 else 0.0),
                    "throughput_change_pct": _relative_pct(
                        baseline["per_ue_tput_median_mbps"],
                        row["per_ue_tput_median_mbps"])})
    return out


def throughput_improvement(rows: list[dict]) -> list[dict]:
    """L4Span-vs-TC-RAN throughput improvement per (cc, channel, rtt) of Fig. 12."""
    out = []
    for row in rows:
        if row["marker"] != "l4span":
            continue
        baseline = next((r for r in rows if r["marker"] == "tcran"
                         and r["cc"] == row["cc"]
                         and r["channel"] == row["channel"]
                         and r["wan_rtt_ms"] == row["wan_rtt_ms"]), None)
        if baseline is None or baseline["throughput_mbps"] <= 0:
            continue
        out.append({"cc": row["cc"], "channel": row["channel"],
                    "improvement_pct": _relative_pct(baseline["throughput_mbps"],
                                                     row["throughput_mbps"])})
    return out


def overhead_summary(rows: list[dict]) -> list[dict]:
    """Relative overhead of L4Span versus the plain RAN per Table 1 state."""
    out = []
    for state in ("idle", "busy"):
        baseline = next(r for r in rows
                        if r["state"] == state and r["marker"] == "none")
        with_l4span = next(r for r in rows
                           if r["state"] == state and r["marker"] == "l4span")
        out.append({"state": state,
                    "cpu_overhead_pct": _relative_pct(baseline["wall_seconds"],
                                                      with_l4span["wall_seconds"]),
                    "memory_overhead_pct": _relative_pct(baseline["peak_memory_mb"],
                                                         with_l4span["peak_memory_mb"]),
                    "handler_share_pct": with_l4span["handler_share_pct"]})
    return out
