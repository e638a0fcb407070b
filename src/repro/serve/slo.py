"""Latency accounting and SLO evaluation for the query service.

The registry's histograms are great for scraping but quantize latency
into fixed buckets; SLO verdicts want exact order statistics. The broker
therefore also streams every completed request's latency into a bounded
:class:`LatencyWindow` (reservoir of the most recent ``window`` samples,
split by result source), from which :func:`percentile` computes exact
p50/p99 and :class:`SloPolicy` renders a pass/fail verdict — the object
``repro serve-bench`` and the CI gate consume.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass, fields

import numpy as np

from repro.util.ints import check_count

__all__ = ["LatencyWindow", "SloPolicy", "percentile"]


def percentile(samples, q: float) -> float:
    """Exact q-th percentile (0..100) of ``samples``; NaN when empty.

    Uses the 'lower' interpolation so small sample sets report a latency
    that was actually observed rather than an average of two.
    """
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.size == 0:
        return float("nan")
    return float(np.percentile(arr, q, method="lower"))


class LatencyWindow:
    """Sliding window of request latencies, split by result source.

    Each source keeps its newest ``window`` latencies. :meth:`record`
    appends one sample, :meth:`record_many` a sequence of one source. A
    window that is filled from pending facts (the broker's, DESIGN.md
    §14) overrides :meth:`_fold_pending`, which every reader —
    :meth:`samples`, :meth:`summary`, :attr:`count` — runs before it
    takes the window lock.
    """

    def __init__(self, window: int = 100_000) -> None:
        self.window = check_count("window", window)
        self._samples: dict[str, deque] = {}
        self._lock = threading.Lock()
        self._count = 0

    def _fold_pending(self) -> None:
        """Bring pending samples in; a plain window has none."""

    @property
    def count(self) -> int:
        """Samples recorded so far (monotone; unaffected by ``window``)."""
        self._fold_pending()
        with self._lock:
            return self._count

    def record(self, source: str, latency_s: float) -> None:
        self.record_many(source, (float(latency_s),))

    def record_many(self, source: str, latencies) -> None:
        """Append a sequence of latencies of one source, in order."""
        with self._lock:
            bucket = self._samples.get(source)
            if bucket is None:
                bucket = self._samples[source] = deque(maxlen=self.window)
            bucket.extend(latencies)
            self._count += len(latencies)

    def _latencies(self, source: str | None) -> list[float]:
        """Latencies of one source or of all (lock held)."""
        if source is not None:
            return list(self._samples.get(source, ()))
        return [lat for bucket in self._samples.values() for lat in bucket]

    def samples(self, source: str | None = None) -> list[float]:
        """Samples of one source, or all sources merged (``None``).

        Merged order is per-source insertion order: each source's samples
        appear oldest-first, sources in first-record order.
        """
        self._fold_pending()
        with self._lock:
            return self._latencies(source)

    def summary(self) -> dict[str, float | int]:
        """p50/p99/mean over all sources plus per-source p50s."""
        self._fold_pending()
        with self._lock:
            merged = self._latencies(None)
            by_source = {s: self._latencies(s) for s in sorted(self._samples)}
        row: dict[str, float | int] = {
            "requests": len(merged),
            "p50_s": percentile(merged, 50),
            "p99_s": percentile(merged, 99),
            "mean_s": float(np.mean(merged)) if merged else float("nan"),
        }
        for source, samples in by_source.items():
            row[f"p50_{source}_s"] = percentile(samples, 50)
        return row


@dataclass(frozen=True)
class SloPolicy:
    """Service-level objectives; ``None`` disables a bound, and any other
    bound must be a finite number >= 0.

    ``p50_s``/``p99_s`` bound the merged latency percentiles,
    ``min_hit_rate`` bounds the cache hit rate from below, and
    ``max_shed_fraction`` bounds sheds over offered load. :meth:`check`
    returns the list of violations (empty = SLOs met) against a report
    row as produced by ``QueryBroker.report()``.
    """

    p50_s: float | None = None
    p99_s: float | None = None
    min_hit_rate: float | None = None
    max_shed_fraction: float | None = None

    def __post_init__(self) -> None:
        # a NaN bound compares false both ways: it would pass every run
        for f in fields(self):
            bound = getattr(self, f.name)
            if bound is not None and not (math.isfinite(bound) and bound >= 0):
                raise ValueError(
                    f"{f.name} must be a finite number >= 0, got {bound!r}")

    def check(self, report: dict) -> list[str]:
        violations: list[str] = []

        def over(key: str, bound: float | None) -> None:
            value = report.get(key)
            if bound is not None and value is not None and value > bound:
                violations.append(f"{key} {value:.6f} > SLO {bound:.6f}")

        over("p50_s", self.p50_s)
        over("p99_s", self.p99_s)
        if self.min_hit_rate is not None:
            hit_rate = report.get("cache_hit_rate")
            if hit_rate is not None and hit_rate < self.min_hit_rate:
                violations.append(
                    f"cache_hit_rate {hit_rate:.3f} < SLO {self.min_hit_rate:.3f}"
                )
        if self.max_shed_fraction is not None:
            offered = report.get("offered", 0)
            shed = report.get("shed", 0)
            if offered:
                fraction = shed / offered
                if fraction > self.max_shed_fraction:
                    violations.append(
                        f"shed fraction {fraction:.3f} > SLO "
                        f"{self.max_shed_fraction:.3f}"
                    )
        return violations
