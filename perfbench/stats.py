"""Summary statistics shared by the runner, the spread check and the self-tests."""

from __future__ import annotations

import statistics

import numpy as np

# Percentiles a timing may be reported at, in rising order.
PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)


def tail_percentile(n: int):
    """The highest percentile that has at least ten of ``n`` samples beyond it.

    ``None`` when even the median has fewer than ten samples above it.
    """
    best = None
    for p in PERCENTILES:
        beyond = round(n * (100.0 - p) / 100.0, 6)  # 99.9 is not exact in binary
        if beyond >= 10:
            best = p
    return best


def percentile(values, p: float) -> float:
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


def median(values) -> float:
    return percentile(values, 50.0)


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles(n=4)`` gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
