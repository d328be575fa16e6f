#!/usr/bin/env python3
"""Tuning the sojourn-time threshold tau_s (the paper's Fig. 19).

Sweeps the L4S marking threshold from 1 ms to 100 ms on a single busy UE and
prints the resulting RTT / rate trade-off, showing why the paper settles on
10 ms: small thresholds under-fill the MAC scheduler's buffer and sacrifice
throughput, large thresholds buy nothing but latency.

Run with::

    python examples/threshold_tuning.py
"""

from __future__ import annotations

from repro.experiments.figures import run_figure
from repro.experiments.report import format_table


def main() -> None:
    rows = run_figure("fig19", thresholds_ms=(1.0, 5.0, 10.0, 50.0),
                      duration_s=5.0)
    print("Sojourn-threshold sweep (TCP Prague, 1 UE)\n")
    print(format_table(rows))
    best = min(rows, key=lambda r: (r["rtt_mean_ms"]
                                    - 2.0 * r["rate_sum_mbps"]))
    print(f"\nBest latency/throughput balance in this sweep: "
          f"{best['threshold_ms']:.0f} ms")


if __name__ == "__main__":
    main()
