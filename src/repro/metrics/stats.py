"""Summary statistics matching the way the paper reports results.

The evaluation figures use box plots whose centre is the median, box edges
the 25th/75th percentiles and whiskers the 10th/90th percentiles
(Fig. 9 caption); :func:`box_stats` produces exactly those five numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0-100) of ``values``; NaN for an empty input."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=float), q))


@dataclass(frozen=True)
class BoxStats:
    """Median, quartiles and 10/90 whiskers of a sample."""

    median: float
    p25: float
    p75: float
    p10: float
    p90: float
    mean: float
    count: int


def box_stats(values: Sequence[float]) -> BoxStats:
    """Compute the paper's box-plot statistics for a sample."""
    if len(values) == 0:
        nan = float("nan")
        return BoxStats(nan, nan, nan, nan, nan, nan, 0)
    array = np.asarray(values, dtype=float)
    return BoxStats(median=float(np.median(array)),
                    p25=float(np.percentile(array, 25)),
                    p75=float(np.percentile(array, 75)),
                    p10=float(np.percentile(array, 10)),
                    p90=float(np.percentile(array, 90)),
                    mean=float(np.mean(array)),
                    count=int(array.size))


def cdf_points(values: Sequence[float],
               max_points: Optional[int] = 200) -> list[tuple[float, float]]:
    """(value, cumulative fraction) pairs suitable for plotting a CDF."""
    if len(values) == 0:
        return []
    array = np.sort(np.asarray(values, dtype=float))
    fractions = np.arange(1, array.size + 1) / array.size
    if max_points is not None and array.size > max_points:
        indices = np.linspace(0, array.size - 1, max_points).astype(int)
        array = array[indices]
        fractions = fractions[indices]
    return list(zip(array.tolist(), fractions.tolist()))


def summarize(values: Iterable[float]) -> dict:
    """A compact summary dict (count, mean, median, p10/p90, min, max)."""
    values = list(values)
    if not values:
        return {"count": 0}
    array = np.asarray(values, dtype=float)
    return {
        "count": int(array.size),
        "mean": float(np.mean(array)),
        "median": float(np.median(array)),
        "p10": float(np.percentile(array, 10)),
        "p90": float(np.percentile(array, 90)),
        "min": float(np.min(array)),
        "max": float(np.max(array)),
    }


def reduction_percent(baseline: float, improved: float) -> float:
    """Relative reduction, in percent, of ``improved`` versus ``baseline``.

    Matches the paper's "reduces one-way delay by up to 98%" phrasing.
    Returns 0 for a non-positive baseline.
    """
    if baseline <= 0:
        return 0.0
    return 100.0 * (baseline - improved) / baseline
