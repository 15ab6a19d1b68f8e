"""Summary arithmetic for the benchmark: medians, tail percentiles and ratios.

A timing distribution is reported as its median plus the highest percentile
that still has at least ``MIN_BEYOND`` samples beyond it, together with the
sample count.  Percentiles come from a fixed ladder so that two runs of the
benchmark report the same percentile whenever they have similar counts.
"""

from __future__ import annotations

import statistics

# Candidate tail percentiles, in tenths of a percent (999 = p99.9).
TAIL_LADDER = (999, 990, 950, 900, 750, 500)
MIN_BEYOND = 10


def nearest_rank(sorted_values: list[float], per_mille: int) -> float:
    """Nearest-rank percentile: the value at rank ceil(p * n) of the sorted samples."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = -(-per_mille * len(sorted_values) // 1000)
    return sorted_values[max(rank, 1) - 1]


def tail_per_mille(n: int) -> int | None:
    """Highest ladder percentile with at least MIN_BEYOND of n samples above its rank."""
    for per_mille in TAIL_LADDER:
        rank = -(-per_mille * n // 1000)
        if n - rank >= MIN_BEYOND:
            return per_mille
    return None


def distribution(values: list[float]) -> dict[str, float]:
    """Median, tail percentile and sample count of a timing distribution.

    ``tail_pct`` names the percentile reported as ``tail``; both are 0 when
    there are too few samples for any ladder percentile, and every field is
    0 for an empty distribution.
    """
    if not values:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "n": 0}
    ordered = sorted(values)
    per_mille = tail_per_mille(len(ordered))
    return {
        "p50": statistics.median(ordered),
        "tail": nearest_rank(ordered, per_mille) if per_mille else 0.0,
        "tail_pct": per_mille / 10 if per_mille else 0.0,
        "n": len(ordered),
    }


def ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, or 0.0 when the base is zero (nothing attempted)."""
    return numerator / denominator if denominator else 0.0
