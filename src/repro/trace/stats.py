"""Distribution utilities: CDFs and summary statistics.

Figures 3, 4 and 8/11 of the paper are all empirical CDF plots; these
helpers compute them in the exact form the benchmark harness prints.
"""

from __future__ import annotations

import bisect
from typing import Sequence, Tuple

from ..errors import TraceError


def cdf_at(samples: Sequence[float], value: float) -> float:
    """Percentage of *samples* that are ``<= value``."""
    if not samples:
        raise TraceError("cannot evaluate a CDF with no samples")
    ordered = sorted(samples)
    return 100.0 * bisect.bisect_right(ordered, value) / len(ordered)


def percentile(samples: Sequence[float], pct: float) -> float:
    """The *pct*-th percentile (0..100) by linear interpolation."""
    if not samples:
        raise TraceError("cannot take a percentile of no samples")
    if not 0.0 <= pct <= 100.0:
        raise TraceError(f"percentile out of range: {pct}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = pct / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def mean(samples: Sequence[float]) -> float:
    """Arithmetic mean."""
    if not samples:
        raise TraceError("cannot average no samples")
    return sum(samples) / len(samples)


def confidence_interval_95(samples: Sequence[float]) -> Tuple[float, float]:
    """Mean and 95 % confidence half-width (normal approximation).

    The paper's error bars (Figs. 6, 9) use 95 % confidence intervals;
    this mirrors them.  Returns ``(mean, half_width)``; the half-width is
    0 for fewer than two samples.
    """
    m = mean(samples)
    n = len(samples)
    if n < 2:
        return m, 0.0
    variance = sum((x - m) ** 2 for x in samples) / (n - 1)
    half_width = 1.96 * (variance / n) ** 0.5
    return m, half_width
