"""Terminal accounting of the serving plane (DESIGN.md §11/§14).

Everything the service *says* about itself has one owner here: the
report tallies, the :class:`~repro.serve.slo.LatencyWindow`, the metric
names with their help strings, the request/batch/resilience tracer
spans, the wide events and :meth:`ServeAccounting.report`. The broker
states a fact once — ``count("retries", n)`` — and the tally, the
registry series and the report row are one table entry, so they cannot
disagree. :meth:`ServeAccounting.terminal` is the single exit of every
request (answered, failed, cancelled or shed) and the package's only
``events.emit`` call: "one wide event per request" is structural.
"""

from __future__ import annotations

import threading

from repro.serve.slo import LatencyWindow

__all__ = ["ServeAccounting"]

#: tally -> (registry counter, help); ``None`` keeps a tally report-only
_COUNTS = {
    "shed": ("serve_shed_total", "requests shed by admission control"),
    "batches": ("serve_batches_total", "executed batches"),
    "batched_requests": None,
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


class ServeAccounting:
    """Tallies, registry series, spans and wide events of one broker.

    ``registry`` is a :class:`~repro.obs.registry.MetricsRegistry`,
    ``tracer`` and ``events`` the service tracer and the
    :class:`~repro.serve.events.WideEventLog` (or None), ``clock`` the
    broker's (latency samples and ``wall_s`` share its time base). One
    lock guards the tallies; registry, window and event log keep theirs.
    """

    def __init__(self, *, registry, tracer, events, clock) -> None:
        self.registry = registry
        self.tracer = tracer
        self.events = events
        self.latency = LatencyWindow(clock=clock)
        self.clock = clock
        self._t_start = clock()
        self._lock = threading.Lock()
        self._trace_lock = threading.Lock()
        self._tally = dict.fromkeys(_COUNTS, 0)
        self._outcomes: dict[str, int] = {}

    # ------------------------------------------------------------------
    def _publish(self, name: str, n: int) -> None:
        series = _COUNTS[name]
        if series is not None:
            self.registry.inc(series[0], n, help=series[1])

    def count(self, name: str, n: int = 1) -> None:
        """Bump tally ``name`` and its registry series, as one fact."""
        with self._lock:
            self._tally[name] += n
        self._publish(name, n)

    def tally(self, name: str) -> int:
        with self._lock:
            return self._tally[name]

    def gauge(self, name: str, value: float) -> None:
        self.registry.set_gauge(name, value, help=_GAUGES[name])

    def solve_failed(self, failure_class: str) -> None:
        self.registry.inc(
            "serve_solve_failures_total",
            help="failed solve attempts by failure class",
            **{"class": failure_class},
        )

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
        with self._lock:
            self._tally["batches"] += 1
            self._tally["batched_requests"] += len(batch)
            self._tally["solves"] += stats["solves"]
        self._publish("batches", 1)
        self._publish("solves", stats["solves"])
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
        self, req, outcome: str, latency: float, *, source: str | None = None,
        attempts: int = 0, stale_ok: bool = False, degraded: bool = False,
    ) -> None:
        """The one exit of every request. ``outcome="shed"`` is the
        admission refusal: counted as shed, not as a completed request
        (no latency sample, no ``serve_requests_total``), still one event.
        """
        ctx = req.ctx
        if outcome == "shed":
            self.count("shed")
            if ctx is not None:
                ctx.note_shed()
        else:
            retried_ok = source is not None and attempts > 1
            with self._lock:
                self._outcomes[outcome] = self._outcomes.get(outcome, 0) + 1
                self._tally["retried_ok"] += retried_ok
            if retried_ok:
                self._publish("retried_ok", 1)
            self.latency.record(outcome, latency)
            self.registry.inc(
                "serve_requests_total", outcome=outcome,
                help="completed requests by outcome",
            )
            self.registry.observe(
                "serve_request_latency_seconds", latency, source=outcome,
                help="end-to-end request latency",
                exemplar=ctx.request_id if ctx is not None else None,
            )
            if self.tracer is not None:
                ids = {} if ctx is None else {"request_id": ctx.request_id}
                self.span(
                    "request", "request", req.submitted_at, latency,
                    root=req.root, outcome=outcome, **ids,
                )
        if ctx is not None and self.events is not None:
            self.events.emit(
                ctx.wide_event(
                    outcome=outcome, source=source, latency_s=latency,
                    attempts_total=attempts, stale_ok=stale_ok,
                    degraded=degraded,
                )
            )

    # ------------------------------------------------------------------
    def report(
        self, *, offered: int, queue_depth: int, snapshot_id: int,
        snapshots_resident: int, cache_stats,
    ) -> dict:
        """Flat service report; the broker supplies what only the
        pipeline knows (admissions, queue, serving snapshot, cache)."""
        with self._lock:
            tally = dict(self._tally)
            outcomes = sorted(self._outcomes.items())
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
            "mean_batch_size": (
                tally["batched_requests"] / batches if batches else 0.0
            ),
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
