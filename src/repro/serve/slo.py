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

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

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

    Each sample carries its record-time timestamp (from the injectable
    ``clock`` — the broker passes its own, so fake-clock tests and the
    burn-rate monitor see one time base). :meth:`samples` keeps returning
    bare latencies; :meth:`recent` is the time-windowed view the
    multi-window burn-rate monitor (:mod:`repro.obs.burnrate`) consumes.

    :meth:`record` stamps a sample now; :meth:`record_stamped` takes
    samples stamped earlier. A window that is filled from pending facts
    (the broker's, DESIGN.md §14) overrides :meth:`_fold_pending`, which
    every reader — :meth:`samples`, :meth:`recent`, :meth:`summary`,
    :attr:`count` — runs before it takes the window lock.
    """

    def __init__(
        self,
        window: int = 100_000,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = int(window)
        self.clock = clock
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
        self.record_stamped(source, ((self.clock(), float(latency_s)),))

    def record_stamped(self, source: str, rows) -> None:
        """Append a sequence of ``(timestamp, latency_s)`` rows of one
        source, in order."""
        with self._lock:
            bucket = self._samples.get(source)
            if bucket is None:
                bucket = self._samples[source] = deque(maxlen=self.window)
            bucket.extend(rows)
            self._count += len(rows)

    def _latencies(self, source: str | None) -> list[float]:
        """Bare latencies of one source or of all (lock held)."""
        if source is not None:
            return [lat for _, lat in self._samples.get(source, ())]
        return [lat for bucket in self._samples.values() for _, lat in bucket]

    def samples(self, source: str | None = None) -> list[float]:
        """Samples of one source, or all sources merged (``None``).

        Merged order is per-source insertion order: each source's samples
        appear oldest-first, sources in first-record order.
        """
        self._fold_pending()
        with self._lock:
            return self._latencies(source)

    def recent(
        self, window_s: float, *, now: float | None = None
    ) -> list[tuple[str, float, float]]:
        """Samples recorded within the last ``window_s`` seconds, as
        ``(source, timestamp, latency_s)`` rows (per-source insertion
        order, sources in first-record order)."""
        self._fold_pending()
        with self._lock:
            cutoff = (self.clock() if now is None else now) - float(window_s)
            return [
                (source, t, lat)
                for source, bucket in self._samples.items()
                for t, lat in bucket
                if t >= cutoff
            ]

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
    """Service-level objectives; ``None`` disables a bound.

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
