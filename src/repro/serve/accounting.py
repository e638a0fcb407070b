"""Telemetry of the serving plane (DESIGN.md §11/§14).

Everything the service *says* about itself has one owner here: the
service tracer, the metrics registry and the wide-event log (built from
the broker's ``trace=`` and ``events=``, with the clock they imply), the
report tallies, the :class:`~repro.serve.slo.LatencyWindow`, the metric
names with their help strings, the request/batch/resilience tracer
spans and :meth:`ServeAccounting.report`. A policy states a fact once —
``count("retries", n)`` — as one ``registry.inc``: the registry's
counters *are* the tallies, and :meth:`~ServeAccounting.tally` and
:meth:`~ServeAccounting.report` read them back
(:meth:`~repro.obs.registry.MetricsRegistry.read`), so the two cannot
disagree. :meth:`ServeAccounting.terminal` is the single exit of every
request (answered, failed, cancelled or shed) and the package's only
``events.emit`` call: "one wide event per request" is structural.

A terminal completion is **one fact** appended to a ledger —
``(outcome, latency, request id, retried_ok)``, atoms only, no lock
taken. A registry collector folds the pending facts, in arrival order,
into the window, ``serve_requests_total``, ``serve_retried_ok_total``
and ``serve_request_latency_seconds`` (bit for bit what per-request
``inc`` / ``observe`` calls would have left) whenever something reads
any of them, or once :data:`FOLD_AT` facts are pending. The wide event
is a flat record too (:mod:`repro.serve.events`), folded into its dict
when the stream is read.

Lock order of a fold: registry → window. It runs under the registry lock
(every registry reader takes it first) and takes the window's inside it;
nothing here takes them the other way round.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import deque
from functools import partial

from repro.obs.registry import MetricsRegistry
from repro.serve.events import HitContext, WideEventLog
from repro.serve.slo import LatencyWindow

__all__ = ["FOLD_AT", "HitContext", "ServeAccounting"]

#: pending terminal facts at which ``terminal`` folds the ledger itself
FOLD_AT = 1024

#: tally -> (registry counter, help): the counter is the tally
_COUNTS = {
    "shed": ("serve_shed_total", "requests shed by admission control"),
    "batches": ("serve_batches_total", "executed batches"),
    "solves": ("serve_solves_total", "fresh engine solves"),
    "retries": ("serve_retries_total",
                "requests re-queued for another solve attempt"),
    "hedges": ("serve_hedges_total",
               "hedged re-attempts launched for stragglers"),
    "retried_ok": ("serve_retried_ok_total",
                   "requests that succeeded after at least one retry"),
    "updates": ("serve_updates_total",
                "update batches applied to the serving graph"),
    "repairs": ("serve_repairs_total",
                "hot cache roots carried across snapshots by incremental repair"),
    "repair_fallbacks": (
        "serve_repair_fallbacks_total",
        "hot-root repairs that fell back to cold (dirty region too large)",
    ),
}

_GAUGES = {
    "serve_queue_depth": "queued requests awaiting a batch",
    "serve_snapshot_id": "current serving snapshot",
}

_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class _FoldedWindow(LatencyWindow):
    """The broker's latency window: filled only by the ledger's fold, so
    each reader first folds through the registry. It holds the registry
    weakly — the registry's collector holds the window — so no cycle
    keeps a dropped broker's samples alive."""

    def __init__(self, registry) -> None:
        super().__init__()
        self._registry = weakref.ref(registry)

    def _fold_pending(self) -> None:
        registry = self._registry()
        if registry is not None:
            registry.collect()


def _fold(ledger: deque, window, registry) -> None:
    """Collector: replay the pending facts, in arrival order, into the
    window and the request counter, ``retried_ok`` counter and latency
    histogram of their outcome (registry lock held)."""
    groups: dict[str, tuple[list, list]] = {}
    retried_ok = 0
    for _ in range(len(ledger)):  # later appends wait for the next fold
        outcome, latency, ref, ok = ledger.popleft()
        group = groups.get(outcome)
        if group is None:
            group = groups[outcome] = ([], [])
        group[0].append(latency)
        group[1].append(ref)
        retried_ok += ok
    for outcome, (latencies, _) in groups.items():
        window.record_many(outcome, latencies)
    if retried_ok:
        series, help_ = _COUNTS["retried_ok"]
        registry.inc(series, retried_ok, help=help_)
    for outcome, (latencies, refs) in groups.items():
        registry.inc("serve_requests_total", len(latencies), outcome=outcome,
                     help="completed requests by outcome")
        registry.observe_many(
            "serve_request_latency_seconds", latencies, source=outcome,
            help="end-to-end request latency", exemplars=refs)


class ServeAccounting:
    """Tracer, registry, event log, tallies, spans and wide events of one
    broker. ``trace`` is an optional :class:`~repro.obs.tracer.TraceConfig`
    (a tracer for ``machine`` is built; its registry and wall clock are
    the service's), ``events`` a :class:`~repro.serve.events.WideEventLog`,
    a path (a log writing there) or ``True`` (in memory). The ledger is a
    ``deque``: appends from several workers are atomic."""

    def __init__(self, *, machine=None, trace=None, events=None) -> None:
        self.tracer = None
        if trace is not None:
            from repro.obs.tracer import Tracer

            self.tracer = Tracer(machine, trace)
            self.registry = self.tracer.registry
            self.clock = self.tracer.wall_now
        else:
            self.registry = MetricsRegistry()
            self.clock = time.perf_counter
        if events is not None and not isinstance(events, WideEventLog):
            events = WideEventLog(None if events is True else str(events))
        self.events = events
        self.latency = _FoldedWindow(self.registry)
        self._t_start = self.clock()
        self._trace_lock = threading.Lock()
        self._ledger: deque = deque()
        self.registry.add_collector(partial(_fold, self._ledger, self.latency))

    # ------------------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        """Bump tally ``name``: its registry counter."""
        series, help_ = _COUNTS[name]
        self.registry.inc(series, n, help=help_)

    def tally(self, name: str) -> int:
        """Tally ``name``, read off its counter (pending facts folded)."""
        (series,) = self.registry.read(_COUNTS[name][0]).values()
        return int(sum(series.values()))

    def gauge(self, name: str, value: float) -> None:
        self.registry.set_gauge(name, value, help=_GAUGES[name])

    def solve_failed(self, failure_class: str) -> None:
        self.registry.inc("serve_solve_failures_total", **{"class": failure_class},
                          help="failed solve attempts by failure class")

    def span(self, name: str, cat: str, ts: float, dur: float, **args) -> None:
        """Append one finished span to the service tracer (the tracer's
        own ``begin``/``end`` time themselves and nest on one thread's
        stack; these spans carry given times from several workers)."""
        tracer = self.tracer
        if tracer is None:
            return
        event = {
            "type": "span", "name": name, "cat": cat, "ts": ts,
            "dur": max(dur, 0.0), "sim_ts": tracer.sim_t, "sim_dur": 0.0,
            "depth": 0, "args": args,
        }
        with self._trace_lock:
            tracer.events.append(event)

    # ------------------------------------------------------------------
    def batch_done(
        self, batch_id: int, batch: list, t0: float, wall: float,
        stats: dict, depth: int,
    ) -> None:
        """One executed batch: tallies, histograms, depth gauge, span."""
        self.count("batches")
        self.count("solves", stats["solves"])
        self.registry.observe(
            "serve_batch_size", len(batch), buckets=_BATCH_SIZE_BUCKETS,
            help="requests per executed batch",
        )
        self.registry.observe(
            "serve_batch_wall_seconds", wall,
            help="wall-clock duration of batch execution",
        )
        self.gauge("serve_queue_depth", depth)
        if self.tracer is not None:
            self.span(
                f"batch-{batch_id}", "batch", t0, wall, requests=len(batch),
                solves=stats["solves"], cache_hits=stats["hits"],
                timeouts=stats["timeouts"], retries=stats["retries"],
                request_ids=[
                    req.ctx.request_id for req in batch if req.ctx is not None
                ],
            )

    def terminal(
        self, ctx, outcome: str, latency: float, *, source: str | None = None,
        attempts: int = 0, stale_ok: bool = False, degraded: bool = False,
    ) -> None:
        """The one exit of every request; ``ctx`` is its
        :class:`~repro.obs.request.RequestContext`, a :class:`HitContext`
        or None (nothing armed). ``outcome="shed"`` is the admission
        refusal: counted as shed, not as a completed request (no latency
        sample, no ``serve_requests_total``), still one event.
        """
        if outcome == "shed":
            self.count("shed")
            if ctx is not None:
                ctx.note_shed()
        else:
            # atoms only: a pending fact keeps no context alive
            self._ledger.append((
                outcome, latency, None if ctx is None else ctx.request_id,
                source is not None and attempts > 1))
            if len(self._ledger) >= FOLD_AT:
                self.registry.collect()
            if self.tracer is not None:  # a tracer mints every context
                self.span(
                    "request", "request", ctx.submitted_at, latency,
                    root=ctx.root, outcome=outcome, request_id=ctx.request_id,
                )
        if ctx is not None and self.events is not None:
            record = (outcome, source, latency, attempts, stale_ok, degraded)
            # a hit's fields go in flat: its record is a tuple of atoms
            self.events.emit(
                (ctx if type(ctx) is HitContext else (ctx,)) + record)

    def close(self, queue_depth: int) -> None:
        """Shutdown: write the event log and the trace artifacts."""
        if self.events is not None and self.events.path is not None:
            self.events.write()
        if self.tracer is not None:
            from repro.obs.export import finalize_trace

            self.gauge("serve_queue_depth", queue_depth)
            finalize_trace(self.tracer)

    # ------------------------------------------------------------------
    def report(
        self, *, offered: int, queue_depth: int, snapshot_id: int,
        snapshots_resident: int, cache_stats,
    ) -> dict:
        """Flat service report; the broker supplies what only the
        pipeline knows (admissions, queue, serving snapshot, cache)."""
        cut = self.registry.read(
            "serve_requests_total", "serve_batch_size",
            *(series for series, _ in _COUNTS.values()))
        tally = {name: int(sum(cut[series].values()))
                 for name, (series, _) in _COUNTS.items()}
        outcomes = sorted(
            (dict(key)["outcome"], int(n))
            for key, n in cut["serve_requests_total"].items())
        completed = sum(n for _, n in outcomes)
        batches = tally["batches"]
        row = {
            "offered": offered,
            "completed": completed,
            "shed": tally["shed"],
            "batches": batches,
            "solves": tally["solves"],
            "retries": tally["retries"],
            "hedges": tally["hedges"],
            "retried_ok": tally["retried_ok"],
            "mean_batch_size": (sum(cut["serve_batch_size"].values()) / batches
                                if batches else 0.0),
            "queue_depth": queue_depth,
            "snapshot_id": snapshot_id,
            "updates": tally["updates"],
            "repairs": tally["repairs"],
            "repair_fallbacks": tally["repair_fallbacks"],
            "snapshots_resident": snapshots_resident,
            **{f"outcome_{k}": v for k, v in outcomes},
            "cache_hit_rate": cache_stats.hit_rate,
            "cache_bytes": cache_stats.bytes_in_use,
            "cache_evictions": cache_stats.evictions,
            "cache_quarantined": cache_stats.quarantined,
            "negative_hits": cache_stats.negative_hits,
            **self.latency.summary(),
        }
        if self.events is not None:
            row["wide_events"] = self.events.emitted
        wall = self.clock() - self._t_start
        row["wall_s"] = wall
        row["throughput_qps"] = completed / wall if wall > 0 else 0.0
        return row
