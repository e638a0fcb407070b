"""Metrics registry: counters, gauges and histograms with Prometheus output.

A tiny in-process registry in the Prometheus data model. The tracer feeds
it per-record counters (records, bytes, wall/simulated seconds by kind) and
end-of-run gauges (the flat :meth:`~repro.runtime.metrics.Metrics.summary`);
benches and the CLI consume :meth:`MetricsRegistry.snapshot`, and
``--metrics-out`` writes :meth:`MetricsRegistry.prometheus_text` — the
standard text exposition format, scrapable as a node-exporter-style file.

Thread safety: all mutators and readers share one registry lock, so
:meth:`~MetricsRegistry.snapshot` / :meth:`~MetricsRegistry.prometheus_text`
see one *consistent* cut — a histogram's ``_sum``/``_count`` can never
disagree with its buckets under concurrent :meth:`~MetricsRegistry.observe`
(the serving plane observes from several worker threads at once). The
lock is uncontended in the hot path: the tracer batches per-record
counters and flushes once at :meth:`~repro.obs.tracer.Tracer.finish`.

**Collectors** (the client-library idea): a writer that would rather not
pay a registry call per event keeps its own facts and registers
``collect`` with :meth:`~MetricsRegistry.add_collector`. Every reader —
:meth:`~MetricsRegistry.snapshot`, :meth:`~MetricsRegistry.prometheus_text`,
:meth:`~MetricsRegistry.exemplars` — runs the collectors under the
registry lock before it takes its cut, so the consistent cut includes
every folded fact. The serving plane's terminal accounting and its cache
mirrors are collectors; :meth:`~MetricsRegistry.observe_many` is their
batch write, bit for bit the same as that many ``observe`` calls.

Histograms optionally carry **exemplars** (DESIGN.md §14): the most
recent ``exemplar=`` reference observed per bucket — the serving plane
passes request ids, linking each latency bucket to a concrete request
whose wide event explains it. Exemplars ride on :meth:`snapshot` and
:meth:`~MetricsRegistry.exemplars`; :meth:`prometheus_text` stays the
classic text format (exemplars are an OpenMetrics extension; keeping the
exposition classic keeps every scraper and our CI checker happy).

No external dependency: the exposition format is a few lines of string
formatting, which keeps the registry importable everywhere the simulator
runs.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from itertools import accumulate, repeat
from typing import Any, Iterable, Mapping

__all__ = ["MetricsRegistry", "DEFAULT_BUCKETS", "escape_label_value"]

DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0
)
"""Histogram bucket upper bounds in seconds (durations are the main use)."""

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> _LabelKey:
    """Canonical hashable form of a label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text-format spec:
    backslash, double quote and line feed — in that order, so the
    backslashes introduced for ``"`` and ``\\n`` are not re-escaped."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_text(key: _LabelKey) -> str:
    """Render a label key as Prometheus ``{k="v",...}`` (empty for none)."""
    if not key:
        return ""
    inner = ",".join(f'{k}="{escape_label_value(v)}"' for k, v in key)
    return "{" + inner + "}"


def _fmt_value(value: float) -> str:
    """Format a sample value the way Prometheus text exposition expects."""
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class MetricsRegistry:
    """Counters, gauges and histograms keyed by (name, label set).

    Metric names follow Prometheus conventions (``snake_case``, counters
    end in ``_total``). All three families share one namespace; registering
    the same name under two families is an error.
    """

    def __init__(self) -> None:
        # re-entrant: collectors run under it and write through inc/observe
        self._lock = threading.RLock()
        self._collectors: list = []
        self._types: dict[str, str] = {}
        self._help: dict[str, str] = {}
        self._counters: dict[str, dict[_LabelKey, float]] = {}
        self._gauges: dict[str, dict[_LabelKey, float]] = {}
        self._hists: dict[str, dict[_LabelKey, dict[str, Any]]] = {}
        self._buckets: dict[str, tuple[float, ...]] = {}

    # ------------------------------------------------------------------
    def _register(self, name: str, family: str, help_: str | None) -> None:
        seen = self._types.get(name)
        if seen is None:
            self._types[name] = family
            if help_:
                self._help[name] = help_
        elif seen != family:
            raise ValueError(
                f"metric {name!r} already registered as {seen}, not {family}"
            )

    def inc(
        self, name: str, value: float = 1.0, *, help: str | None = None, **labels
    ) -> None:
        """Increment counter ``name`` (monotone; negative deltas rejected)."""
        if value < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        with self._lock:
            self._register(name, "counter", help)
            series = self._counters.setdefault(name, {})
            series[key] = series.get(key, 0.0) + float(value)

    def set_gauge(
        self, name: str, value: float, *, help: str | None = None, **labels
    ) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        key = _label_key(labels)
        with self._lock:
            self._register(name, "gauge", help)
            self._gauges.setdefault(name, {})[key] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        *,
        buckets: Iterable[float] | None = None,
        help: str | None = None,
        exemplar: str | None = None,
        **labels,
    ) -> None:
        """Record one observation into histogram ``name``.

        ``buckets`` (upper bounds, ascending) is fixed at the histogram's
        first observation; later calls reuse it. ``exemplar`` (e.g. a
        request id) is remembered per bucket — the most recent reference
        observed in each — and surfaces via :meth:`exemplars` /
        :meth:`snapshot`, linking latency buckets back to wide events.
        """
        self.observe_many(
            name, (value,), buckets=buckets, help=help,
            exemplars=None if exemplar is None else (exemplar,), **labels,
        )

    def observe_many(
        self, name: str, values, *, buckets: Iterable[float] | None = None,
        help: str | None = None, exemplars=None, **labels,
    ) -> None:
        """:meth:`observe` each of ``values`` in order, under one lock:
        the same bucket counts, the same float ``sum`` (added in order),
        the same last-write-wins exemplar per bucket. ``exemplars``, when
        given, is aligned with ``values`` (``None`` entries carry none)."""
        key = _label_key(labels)
        with self._lock:
            self._register(name, "histogram", help)
            bounds = self._buckets.setdefault(name, tuple(
                buckets if buckets is not None else DEFAULT_BUCKETS))
            h = self._hists.setdefault(name, {}).setdefault(key, {
                "counts": [0] * len(bounds), "sum": 0.0, "count": 0,
                "exemplars": {}})
            n, total = len(bounds), h["sum"]
            tight = [0] * (n + 1)  # per tightest covering bound; n: none
            last: dict[int, tuple] = {}
            for value, ref in zip(values, exemplars or repeat(None)):
                j = bisect_left(bounds, value) if value == value else n
                tight[j] += 1
                total += float(value)
                if ref is not None:
                    last[j] = (ref, value)
            h["sum"], h["count"] = total, h["count"] + len(values)
            # the counts are cumulative, as the text format's ``le`` is
            for j, covered in enumerate(accumulate(tight[:n])):
                h["counts"][j] += covered
            for j, (ref, value) in last.items():
                # the slot is the tightest covering bound, +Inf past all
                slot = _fmt_value(bounds[j]) if j < n else "+Inf"
                h["exemplars"][slot] = {"ref": str(ref), "value": float(value)}

    def add_collector(self, collect) -> None:
        """Run ``collect(registry)`` under the registry lock ahead of every
        read (and of :meth:`collect`); it writes its pending facts through
        the ordinary mutators. It is handed the registry rather than
        holding it, so a collector makes no reference cycle and its owner
        is freed as soon as it is dropped."""
        self._collectors.append(collect)  # one atomic append

    def collect(self) -> None:
        """Fold every collector's pending facts now."""
        with self._lock:
            for collect in self._collectors:
                collect(self)

    # ------------------------------------------------------------------
    def exemplars(self, name: str, **labels) -> dict[str, dict[str, Any]]:
        """Exemplars of one histogram series: ``{le: {ref, value}}``.

        Empty when the histogram (or series) is unknown or no observation
        carried an ``exemplar=`` reference.
        """
        key = _label_key(labels)
        with self._lock:
            self.collect()
            h = self._hists.get(name, {}).get(key)
            if h is None:
                return {}
            return {
                slot: dict(ex) for slot, ex in h.get("exemplars", {}).items()
            }

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict view of every series (consumed by benches and tests).

        Counter/gauge samples are keyed ``name{k="v"}``; histograms expose
        ``sum``/``count``/``buckets`` (and ``exemplars``, when any were
        observed) sub-dicts under the bare name. Taken under the registry
        lock as one consistent cut, after the collectors have folded:
        no concurrently-running ``observe`` can make ``sum``/``count``
        disagree with the bucket counts.
        """
        out: dict[str, Any] = {}
        with self._lock:
            self.collect()
            for family in (self._counters, self._gauges):
                for name, series in family.items():
                    for key, value in series.items():
                        out[name + _label_text(key)] = value
            for name, series in self._hists.items():
                bounds = self._buckets[name]
                for key, h in series.items():
                    base = name + _label_text(key)
                    row: dict[str, Any] = {
                        "sum": h["sum"],
                        "count": h["count"],
                        "buckets": {
                            _fmt_value(b): c for b, c in zip(bounds, h["counts"])
                        },
                    }
                    if h.get("exemplars"):
                        row["exemplars"] = {
                            slot: dict(ex)
                            for slot, ex in h["exemplars"].items()
                        }
                    out[base] = row
        return out

    def prometheus_text(self) -> str:
        """Render every metric in the Prometheus text exposition format.

        Rendered under the registry lock — one consistent cut, same
        guarantee as :meth:`snapshot`.
        """
        lines: list[str] = []
        with self._lock:
            self.collect()
            for name in sorted(self._types):
                family = self._types[name]
                if name in self._help:
                    lines.append(f"# HELP {name} {self._help[name]}")
                lines.append(f"# TYPE {name} {family}")
                if family == "counter":
                    series = self._counters.get(name, {})
                    for key in sorted(series):
                        lines.append(
                            f"{name}{_label_text(key)} {_fmt_value(series[key])}"
                        )
                elif family == "gauge":
                    series = self._gauges.get(name, {})
                    for key in sorted(series):
                        lines.append(
                            f"{name}{_label_text(key)} {_fmt_value(series[key])}"
                        )
                else:
                    bounds = self._buckets[name]
                    for key, h in sorted(self._hists.get(name, {}).items()):
                        # ``counts`` is already cumulative (observe() bumps every
                        # bucket whose bound covers the value), as the text
                        # format's ``le`` semantics require.
                        for bound, count in zip(bounds, h["counts"]):
                            le = _label_key(dict(key) | {"le": _fmt_value(bound)})
                            lines.append(
                                f"{name}_bucket{_label_text(le)} {count}"
                            )
                        inf = _label_key(dict(key) | {"le": "+Inf"})
                        lines.append(
                            f"{name}_bucket{_label_text(inf)} {h['count']}"
                        )
                        lines.append(
                            f"{name}_sum{_label_text(key)} {_fmt_value(h['sum'])}"
                        )
                        lines.append(f"{name}_count{_label_text(key)} {h['count']}")
        return "\n".join(lines) + "\n"
