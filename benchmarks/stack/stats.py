"""Percentiles, run-to-run spread and the comparison rules.

The rules are the ones of the `choosing-metrics` guide: a timing is a
median plus the highest percentile that still has ten samples beyond it;
a spread is the distance between the quartiles of repeated runs as a share
of their median; a metric whose spread exceeds its bound is *unresolved*,
not unchanged; a gain needs nine tenths of the pairs and a median shift
larger than the parent's own spread.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

__all__ = [
    "Comparison",
    "compare_metric",
    "harmonic_mean",
    "highest_supported_percentile",
    "percentile",
    "quartiles",
    "spread",
]

#: percentiles a report may name, lowest first
TAIL_LADDER = (90.0, 95.0, 99.0, 99.9)
SAMPLES_BEYOND = 10


def percentile(samples, q: float) -> float:
    """Linear-interpolated ``q``-th percentile; ``inf`` samples (failed or
    shed requests) sort last, so enough of them push the tail to ``inf``."""
    data = sorted(samples)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    if pos == lo or math.isinf(data[hi]):
        return float(data[lo] if pos == lo else data[hi])
    return float(data[lo] + (data[hi] - data[lo]) * (pos - lo))


def highest_supported_percentile(n: int) -> float:
    """The highest rung of :data:`TAIL_LADDER` with at least ten of ``n``
    samples beyond it; 50 when even p90 has fewer (report the median
    alone)."""
    best = 50.0
    for q in TAIL_LADDER:
        if n * (100.0 - q) / 100.0 >= SAMPLES_BEYOND - 1e-9:
            best = q
    return best


def harmonic_mean(values) -> float:
    values = list(values)
    return len(values) / sum(1.0 / v for v in values)


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them; one value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


@dataclass(frozen=True)
class Comparison:
    """Parent (``a``) against change (``b``) on one (workload, metric)."""

    a_median: float
    b_median: float
    a_spread: float
    b_spread: float
    change: float
    """Signed share of the parent's median by which ``b`` is *worse*
    (negative = better), whatever the metric's direction."""
    bound: float
    wins: int
    pairs: int
    verdict: str
    """``regression`` | ``unresolved`` | ``gain`` | ``within-bound``"""


def compare_metric(a, b, *, better: str, bound: float) -> Comparison:
    """Apply the guide's rules to the repeated runs ``a`` and ``b``."""
    a, b = list(a), list(b)
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_med = quartiles(b)[1]
    change = sign * (b_med - a_med) / abs(a_med) if a_med else math.inf
    pairs = min(len(a), len(b))
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    a_spread, b_spread = spread(a), spread(b)
    all_better = max(sign * y for y in b) < min(sign * x for x in a)
    if (
        wins * 10 >= 9 * pairs
        and pairs >= 10
        and abs(b_med - a_med) > (a_q3 - a_q1)
    ):
        verdict = "gain"
    elif change > bound:
        verdict = "regression"
    elif max(a_spread, b_spread) > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "within-bound"
    return Comparison(
        a_med, b_med, a_spread, b_spread, change, bound, wins, pairs, verdict,
    )
