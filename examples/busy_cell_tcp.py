#!/usr/bin/env python3
"""A busy cell: many UEs downloading concurrently with different TCPs.

Reproduces a scaled-down slice of the paper's Fig. 9: several UEs run
concurrent bulk downloads with Prague, BBRv2 or CUBIC over a static or mobile
channel, with and without L4Span, and the per-UE one-way delay and throughput
are reported.

Run with::

    python examples/busy_cell_tcp.py [num_ues] [duration_s]
"""

from __future__ import annotations

import sys

from repro.experiments.comparisons import improvement_table
from repro.experiments.figures import run_figure
from repro.experiments.report import format_table


def main() -> None:
    num_ues = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    duration = float(sys.argv[2]) if len(sys.argv) > 2 else 5.0
    rows = run_figure("fig9", cc_names=("prague", "cubic"),
                      ue_counts=(num_ues,), duration_s=duration)
    print(f"Concurrent downloads, {num_ues} UEs, {duration:.0f} s per run\n")
    print(format_table(rows, columns=["cc", "channel", "l4span",
                                      "owd_median_ms", "owd_p90_ms",
                                      "per_ue_tput_median_mbps"]))
    print("\nL4Span improvement per configuration:\n")
    print(format_table(improvement_table(rows)))


if __name__ == "__main__":
    main()
