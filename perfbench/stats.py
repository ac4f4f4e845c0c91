"""Summary statistics of the serving benchmark (pure Python, no crypto).

The rules of the benchmark's reporting live here so the harness tests
can pin them on synthetic numbers:

* a timing's tail is reported at p99 only when at least
  :data:`MIN_BEYOND` samples lie beyond it; otherwise at the highest
  percentile that still has that many (``tail_percentile``);
* a failed or refused request enters a latency distribution as
  ``+inf``, so failures can only push percentiles up.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Optional, Sequence, Tuple

#: samples that must lie strictly beyond a reported tail percentile
MIN_BEYOND = 10

#: the tail percentile reported when the sample supports it
TAIL_TARGET = 0.99


#: the median; ``inf`` entries (failed requests) sort last like any
#: other large value, so they raise it only once they are half the sample
median = statistics.median


def tail_percentile(count: int) -> Optional[float]:
    """Highest percentile (<= p99) with ``MIN_BEYOND`` samples beyond it.

    Under nearest rank the ``q``-quantile of ``count`` samples sits at
    rank ``ceil(q * count)``, leaving ``count - ceil(q * count)`` samples
    strictly beyond it.  Returns ``None`` when even the rank leaving
    exactly ``MIN_BEYOND`` behind it does not exist.
    """
    if count < MIN_BEYOND + 1:
        return None
    if count - math.ceil(TAIL_TARGET * count) >= MIN_BEYOND:
        return TAIL_TARGET
    return (count - MIN_BEYOND) / count


def tail(values: Iterable[float]) -> Tuple[float, float, int]:
    """``(percentile, value, samples beyond)`` of a latency sample."""
    data = sorted(values)
    q = tail_percentile(len(data))
    if q is None:
        raise ValueError(
            f"{len(data)} samples cannot support a tail percentile with "
            f"{MIN_BEYOND} samples beyond it"
        )
    rank = max(1, math.ceil(q * len(data)))
    return q, data[rank - 1], len(data) - rank


#: share of a sample dropped at each end by :func:`trimmed_mean`
TRIM = 0.1


def trimmed_mean(values: Iterable[float], trim: float = TRIM) -> float:
    """Mean of the sample without its lowest and highest ``trim`` shares.

    For costs sampled through a phase on a host that switches between a
    fast and a slow speed: the median jumps from one speed to the other
    as their shares cross one half, while this moves with the shares,
    and a rare pause (a full collection) still drops out.
    """
    data = sorted(values)
    cut = int(trim * len(data))
    return statistics.fmean(data[cut:len(data) - cut])


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
