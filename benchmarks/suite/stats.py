"""Order statistics the suite reports: medians, guarded percentiles, spreads."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

MIN_BEYOND = 10  # samples that must lie beyond a reported percentile


def median(samples: Sequence[float]) -> float:
    """The median (reported for every timing, whatever the sample count)."""
    return float(statistics.median(samples))


def percentile(samples: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (nearest rank), refused on thin tails.

    A tail percentile is noise unless enough samples lie beyond it, so
    this raises :class:`ValueError` when fewer than ``MIN_BEYOND`` do —
    p90 needs 100 samples, p99 needs 1000.
    """
    if not 0 < p < 100:
        raise ValueError(f"percentile must be in (0, 100), got {p}")
    n = len(samples)
    rank = math.ceil(p / 100.0 * n)  # 1-based nearest rank
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {n} samples has {max(n - rank, 0)} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return float(sorted(samples)[rank - 1])


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf
