"""Pure summary arithmetic behind the end-to-end metrics.

Kept free of any runtime import so the rules can be tested on their own.
"""

from __future__ import annotations

import statistics
from typing import List, Sequence, Tuple

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least :data:`TAIL_BEYOND` samples
    beyond it.

    Nearest-rank percentiles: the p-th percentile of ``n`` sorted samples
    is the ``ceil(p * n / 100)``-th smallest.  The highest rank ``k`` that
    leaves ``n - k >= TAIL_BEYOND`` samples above it is
    ``k = n - TAIL_BEYOND``, which is the ``100 * k / n`` percentile.

    Returns:
        ``(value, percentile, n)``.

    Raises:
        ValueError: with :data:`TAIL_BEYOND` samples or fewer there is
            no such percentile.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples for a tail, got {n}")
    k = n - TAIL_BEYOND
    return sorted(samples)[k - 1], 100.0 * k / n, n


def retention(repeats: Sequence[Tuple[Sequence[int], Sequence[float]]]) -> float:
    """Late-run throughput over early-run throughput.

    Each repeat is ``(batch_trips, batch_seconds)`` in serving order.  Its
    batches are cut into fifths; the first fifth is warm-up (the reorder
    buffer holds back ~``lateness_s`` of traffic at the start, which
    inflates early rates) and is skipped.  The early window is the second
    fifth, the late window the last fifth.  Trips and seconds of each
    window are summed over the repeats before dividing, so a host hiccup
    in one repeat's window is diluted rather than picked.

    Raises:
        ValueError: when a repeat has fewer than five batches, or
            misaligned inputs.
    """
    early_trips = early_s = late_trips = late_s = 0.0
    for trips, seconds in repeats:
        n = len(trips)
        if n < 5 or len(seconds) != n:
            raise ValueError(
                f"retention needs >= 5 aligned batches, got {n}/{len(seconds)}"
            )
        fifth = n // 5
        early_trips += sum(trips[fifth : 2 * fifth])
        early_s += sum(seconds[fifth : 2 * fifth])
        late_trips += sum(trips[n - fifth :])
        late_s += sum(seconds[n - fifth :])
    return (late_trips / late_s) / (early_trips / early_s)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def pooled(lists: Sequence[Sequence[float]]) -> List[float]:
    return [v for values in lists for v in values]
