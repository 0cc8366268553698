"""Summary statistics used by the benchmark report."""

from __future__ import annotations

import statistics

# A tail percentile needs this many samples strictly above it.
TAIL_BEYOND = 10


def tail(samples) -> tuple[float, float]:
    """Highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(percentile, value)``: the value is the order statistic with
    exactly ten samples ranked above it, and the percentile is the share of
    samples at or below that rank.  Fewer than eleven samples have no such
    percentile and raise ``ValueError``.
    """
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        raise ValueError(
            f"a tail percentile needs at least {TAIL_BEYOND + 1} samples, got {len(ordered)}"
        )
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def median(samples) -> float:
    return float(statistics.median(samples))
