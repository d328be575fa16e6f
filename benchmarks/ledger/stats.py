"""The few order statistics the ledger reports, defined once."""

from __future__ import annotations

import math
import statistics

#: Percentiles the picker may choose from, ascending.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)

#: A tail percentile is only reported with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile (the smallest sample with ``pct`` % at or below)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def highest_percentile(count: int) -> float:
    """The highest of :data:`PERCENTILES` leaving >= 10 samples beyond it.

    100 samples support p90 (10 beyond), 1000 support p99; below 20 samples
    only the median is reported.
    """
    chosen = PERCENTILES[0]
    for pct in PERCENTILES:
        if count * (100.0 - pct) / 100.0 >= MIN_SAMPLES_BEYOND - 1e-9:
            chosen = pct
    return chosen


def iqr_share(values) -> float:
    """Inter-quartile distance as a share of the median (the driver's spread)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / mid if mid else 0.0
