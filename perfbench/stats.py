"""Order statistics: the median, the tail percentile rule and the quartile spread."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, highest first.  The reported tail is the highest
# one that leaves at least MIN_BEYOND samples above it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the q-th percentile of n samples."""
    return max(1, math.ceil(round(q / 100.0 * n, 9)))  # round: 99.9 % of 10000 is 9990


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - _rank(n, q)


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least MIN_BEYOND samples beyond it."""
    for q in TAIL_PERCENTILES:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q % at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), q) - 1]


def percentile_label(q: float) -> str:
    return f"p{q:g}"


def timing_summary(values) -> dict:
    """Median and rule-chosen tail of a list of timings, with the sample count."""
    n = len(values)
    out = {"n": n, "p50": statistics.median(values) if n else None,
           "tail_q": tail_percentile(n), "tail": None}
    if out["tail_q"] is not None:
        out["tail"] = percentile(values, out["tail_q"])
    return out


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles(n=4)`` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
