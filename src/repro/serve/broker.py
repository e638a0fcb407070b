"""QueryBroker: the embeddable SSSP query service (DESIGN.md §11/§12).

Request path::

    submit ──▶ admission control ──▶ distance cache ──▶ micro-batcher
                  │ (bounded queue)       │ (hit: done)      │ (EDF order)
                  ▼                       ▼                  ▼
           ServiceOverload          QueryFuture        worker pool
                                                  (per-request isolation,
                                                   retries, breaker ladder)

One broker serves one (graph, config, machine) triple — the coordinates
the distance cache is keyed under; run one broker per graph/config pair
you serve. Queries for the same root arriving in one batch window are
*coalesced* into a single solve; different per-request deadlines are
never coalesced (a strict budget must not fail a lax request). Answers
are bit-identical to offline :func:`~repro.core.solver.solve_sssp` on
every path — cache hit, cache miss, batched, retried and degraded —
because the engine is deterministic and the cache stores engine output
verbatim.

Live graphs (DESIGN.md §15): :meth:`QueryBroker.apply_updates` applies
an :class:`~repro.dynamic.updates.UpdateBatch` through a
:class:`~repro.dynamic.versioner.GraphVersioner` and swaps the current
snapshot under a **drain-free epoch handoff** — no barrier, no paused
traffic. Every request is pinned to the snapshot current at admission:
its cache key is ``(snapshot_id, root)``, its solve runs a per-snapshot
:class:`~repro.core.solver.BatchSolver`, its paths extract against its
snapshot's graph, and its wide event carries the ``snapshot_id`` — so
no request ever observes a mixed snapshot. Old snapshots stay resident
while requests are pinned to them and are retired (solver, graph, cache
entries) once the last pinned request completes and retention lapses.
Hot cached roots can optionally be **repaired in place** across the
handoff via :func:`~repro.dynamic.repair.repair_sssp` — incrementally
fixed distances, bit-identical to a fresh solve on the new snapshot.

Resilience (DESIGN.md §12): a failing, stalling or corrupted root fails
**only its own request** — batch-mates complete normally. Failed solve
groups go through the :class:`~repro.serve.retry.RetryPolicy` (capped
exponential backoff back into the batcher, budgeted hedged re-attempts
for stragglers) before a typed terminal error. A per-failure-class
:class:`~repro.serve.breaker.CircuitBreaker` trips on consecutive
failures; while open the broker walks the degradation ladder — cache
hits flagged ``stale_ok``, bounded-exact Bellman-Ford fallback on small
graphs, typed :class:`~repro.serve.request.ServiceUnavailable` otherwise
— and cache reads re-verify their checksums. Chaos
(:class:`~repro.serve.chaos.ChaosPlan`) injects deterministic faults
underneath all of it for replayable scenario tests.

Overload sheds at admission with a typed
:class:`~repro.serve.request.ServiceOverload`; shutdown drains: admitted
requests complete — including in-flight retries, which drain waits for
and abort cancels — new ones are refused. Telemetry flows into a
:class:`~repro.obs.registry.MetricsRegistry` (queue depth, batch size,
latency histograms, cache/shed/retry/breaker counters) and — when a
:class:`~repro.obs.tracer.TraceConfig` is given — into per-request,
per-batch and resilience tracer spans written at shutdown.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.core.paths import build_parent_tree, extract_path
from repro.core.solver import BatchSolver, run_validation
from repro.dynamic.repair import repair_sssp
from repro.dynamic.versioner import GraphVersioner
from repro.obs.request import RequestContext, request_id
from repro.runtime.watchdog import SolveTimeout
from repro.serve.batcher import MicroBatcher
from repro.serve.events import WideEventLog
from repro.serve.breaker import BreakerConfig, CircuitBreaker
from repro.serve.cache import DistanceCache
from repro.serve.chaos import ChaosPlan, ChaosSolver
from repro.serve.request import (
    QueryFuture,
    QueryRequest,
    QueryResult,
    ServiceOverload,
    ServiceShutdown,
    ServiceUnavailable,
    SolveCorrupted,
)
from repro.serve.retry import RetryPolicy
from repro.serve.slo import LatencyWindow

__all__ = ["QueryBroker"]

_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

_UNSET = object()


def _classify(exc: BaseException) -> str:
    """Map an attempt failure onto the breaker/retry failure taxonomy."""
    if isinstance(exc, SolveTimeout):
        return "timeout"
    if isinstance(exc, SolveCorrupted):
        return "corrupt"
    return "error"


class QueryBroker:
    """Batched, cached, admission-controlled SSSP query service.

    Parameters
    ----------
    graph:
        The served graph (preprocessing is hoisted once via
        :class:`~repro.core.solver.BatchSolver`).
    algorithm, delta, config, machine, num_ranks, threads_per_rank:
        Solver/machine coordinates, as for ``solve_sssp``.
    capacity:
        Bound on queued requests; submits beyond it shed with
        :class:`ServiceOverload`.
    max_batch_size:
        Size trigger of the micro-batcher.
    flush_interval_s:
        Latency trigger: the longest a queued request waits for its
        batch to fill.
    num_workers:
        Worker threads executing batches. ``0`` is manual mode — nothing
        runs until :meth:`process_once` is called — which tests and
        single-threaded embeddings use for determinism.
    cache_bytes:
        Byte budget of the distance cache (``0`` disables caching).
    default_deadline:
        :class:`~repro.runtime.watchdog.DeadlineConfig` applied to
        requests that do not carry their own.
    retry:
        Optional :class:`~repro.serve.retry.RetryPolicy`. ``None`` (the
        default) keeps the pre-resilience behavior: first failure is
        terminal.
    breaker:
        Optional :class:`~repro.serve.breaker.BreakerConfig` (the broker
        builds the breaker on its own clock) or a ready
        :class:`~repro.serve.breaker.CircuitBreaker` (tests inject one
        with a fake clock). Enables cache checksums and the degradation
        ladder.
    chaos:
        Optional :class:`~repro.serve.chaos.ChaosPlan`; solves then run
        through a :class:`~repro.serve.chaos.ChaosSolver` (exposed as
        ``broker.chaos``) injecting the plan's deterministic faults.
    verify:
        Post-solve result verification, as ``solve_sssp``'s ``validate``
        (``"structural"`` is the cheap production shape). A failed check
        becomes the ``corrupt`` failure class.
    negative_ttl_s:
        TTL of negative-cache tombstones for timed-out roots (0 = off):
        within the TTL, requests for a recently timed-out root fail fast
        with :class:`~repro.runtime.watchdog.SolveTimeout`.
    trace:
        Optional :class:`~repro.obs.tracer.TraceConfig`; per-request,
        per-batch and resilience spans are recorded and artifacts
        written at shutdown.
    registry:
        Optional external :class:`~repro.obs.registry.MetricsRegistry`;
        defaults to the tracer's (when tracing) or a fresh one.
    events:
        Optional wide-event sink: a
        :class:`~repro.serve.events.WideEventLog`, a path (a log writing
        there at shutdown is built), or ``True`` (in-memory log). Arms
        request-scoped observability (DESIGN.md §14): every request gets
        a :class:`~repro.obs.request.RequestContext` propagated through
        batcher/solve/retry/breaker, one wide event per terminal
        completion, request-id exemplars on the latency histograms, and
        request ids on batch/solve spans. ``None`` (default) keeps the
        whole machinery unbuilt — zero cost. A tracer alone also mints
        contexts so its spans can carry request ids.
    snapshot_retention:
        How many graph snapshots the live-graph versioner keeps resident
        (see :meth:`apply_updates`). Requests pinned to an
        out-of-retention snapshot still complete — retirement of their
        solver, graph and cache entries is deferred until the last
        pinned request resolves.
    """

    def __init__(
        self,
        graph,
        *,
        algorithm: str = "opt",
        delta: int = 25,
        config=None,
        machine=None,
        num_ranks: int = 8,
        threads_per_rank: int = 8,
        capacity: int = 256,
        max_batch_size: int = 16,
        flush_interval_s: float = 0.002,
        num_workers: int = 1,
        cache_bytes: int = 64 << 20,
        default_deadline=None,
        retry: RetryPolicy | None = None,
        breaker=None,
        chaos: ChaosPlan | None = None,
        verify: bool | str = False,
        negative_ttl_s: float = 0.0,
        trace=None,
        registry=None,
        events=None,
        snapshot_retention: int = 4,
    ) -> None:
        if num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        self.graph = graph
        self._solver = BatchSolver(
            graph,
            algorithm=algorithm,
            delta=delta,
            config=config,
            machine=machine,
            num_ranks=num_ranks,
            threads_per_rank=threads_per_rank,
        )
        # Live-graph state: snapshot lineage, per-snapshot solvers/graphs,
        # and pin counts for the drain-free epoch handoff. Snapshot 0 is
        # the construction graph; a broker that never applies updates
        # pays nothing beyond the (0, root) cache-key tuples.
        self.versioner = GraphVersioner(
            graph,
            machine=self._solver.machine,
            config=self._solver.config,
            retention=snapshot_retention,
        )
        self._solver_kwargs = dict(
            algorithm=self._solver.algorithm,
            config=self._solver.config,
            machine=self._solver.machine,
        )
        self._snapshot_id = 0
        self._graphs = {0: graph}
        self._solvers = {0: self._solver}
        self._snapshot_inflight: dict[int, int] = {}
        self._retire_pending: set[int] = set()
        self._update_lock = threading.Lock()
        self._updates = 0
        self._repairs = 0
        self._repair_fallbacks = 0
        self.default_deadline = default_deadline
        self._tracer = None
        if trace is not None and getattr(trace, "enabled", True):
            from repro.obs.tracer import Tracer

            self._tracer = Tracer(self._solver.machine, trace)
        if registry is not None:
            self.registry = registry
        elif self._tracer is not None:
            self.registry = self._tracer.registry
        else:
            from repro.obs.registry import MetricsRegistry

            self.registry = MetricsRegistry()
        self._clock = (
            self._tracer.wall_now if self._tracer is not None else time.perf_counter
        )
        self._retry = retry
        self._verify = verify
        if breaker is None:
            self._breaker = None
        elif isinstance(breaker, BreakerConfig):
            self._breaker = CircuitBreaker(
                breaker, clock=self._clock, registry=self.registry
            )
        else:
            self._breaker = breaker
        self.chaos = (
            ChaosSolver(self._solver, chaos, registry=self.registry)
            if chaos is not None
            else None
        )
        self.cache = DistanceCache(
            cache_bytes,
            registry=self.registry,
            checksum=self._breaker is not None,
            negative_ttl_s=negative_ttl_s,
            clock=self._clock,
        )
        self._batcher = MicroBatcher(
            capacity=capacity,
            max_batch_size=max_batch_size,
            flush_interval_s=flush_interval_s,
            clock=self._clock,
        )
        if events is None:
            self.events = None
        elif isinstance(events, WideEventLog):
            self.events = events
        elif events is True:
            self.events = WideEventLog()
        else:
            self.events = WideEventLog(str(events))
        # Request contexts ride with events *or* spans; with neither
        # armed, no context is ever minted (the zero-cost path).
        self._ctx_armed = self.events is not None or self._tracer is not None
        self._next_request_seq = 0
        self.latency = LatencyWindow(clock=self._clock)
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._trace_lock = threading.Lock()
        self._closed = False
        self._aborted = False
        self._inflight = 0
        self._uncompleted = 0  # admitted, not yet terminally resolved
        self._next_batch_id = 0
        self._offered = 0
        self._shed = 0
        self._batches = 0
        self._batched_requests = 0
        self._solves = 0
        self._retries = 0
        self._hedges = 0
        self._retried_ok = 0
        self._outcomes: dict[str, int] = {}
        self._t_start = self._clock()
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"sssp-serve-{i}", daemon=True
            )
            for i in range(num_workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return self._batcher.depth

    @property
    def capacity(self) -> int:
        return self._batcher.capacity

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def manual(self) -> bool:
        """True when no worker threads run (``num_workers=0``)."""
        return not self._workers

    @property
    def tracer(self):
        """The service tracer (None unless constructed with ``trace=``)."""
        return self._tracer

    @property
    def breaker(self) -> CircuitBreaker | None:
        """The circuit breaker (None unless constructed with ``breaker=``)."""
        return self._breaker

    def _degraded_now(self) -> bool:
        """Breaker-degraded state; also arms cache read verification
        while degraded (checksummed entries re-verify on every read)."""
        if self._breaker is None:
            return False
        degraded = self._breaker.degraded
        self.cache.verify_get = degraded
        return degraded

    # ------------------------------------------------------------------
    # Submission (the client-facing edge)
    # ------------------------------------------------------------------
    def submit(
        self,
        root: int,
        *,
        targets=(),
        deadline=_UNSET,
        latency_budget_s: float | None = None,
    ) -> QueryFuture:
        """Admit one query; returns its :class:`QueryFuture`.

        Admission control happens here, synchronously: an out-of-range
        root or target raises ``ValueError``, a closed broker raises
        :class:`ServiceShutdown`, and a full queue sheds with
        :class:`ServiceOverload` — the queue never grows past its bound.
        A cache hit completes the future before ``submit`` returns.
        ``latency_budget_s`` declares the request's latency SLO; the
        batcher schedules tight budgets earliest-deadline-first.
        """
        if self._closed:
            raise ServiceShutdown("broker is shut down")
        n = self.graph.num_vertices
        root = int(root)
        if not 0 <= root < n:
            raise ValueError(f"root {root} out of range (n={n})")
        targets = tuple(int(t) for t in targets)
        for t in targets:
            if not 0 <= t < n:
                raise ValueError(f"path target {t} out of range (n={n})")
        if deadline is _UNSET:
            deadline = self.default_deadline
        req = QueryRequest(
            root,
            targets,
            deadline,
            submitted_at=self._clock(),
            latency_budget_s=latency_budget_s,
        )
        with self._lock:
            self._offered += 1
            self._uncompleted += 1
            # Pin the request to the snapshot current *now*; pin count and
            # snapshot read share the lock with apply_updates' swap, so a
            # request is never pinned to a half-installed snapshot.
            req.snapshot_id = self._snapshot_id
            self._snapshot_inflight[req.snapshot_id] = (
                self._snapshot_inflight.get(req.snapshot_id, 0) + 1
            )
            if self._ctx_armed:
                seq = self._next_request_seq
                self._next_request_seq += 1
        if self._ctx_armed:
            req.ctx = RequestContext(
                request_id(seq),
                root,
                submitted_at=req.submitted_at,
                snapshot_id=req.snapshot_id,
            )
        stale = self._degraded_now()
        cached = self.cache.get((req.snapshot_id, root))
        if cached is not None:
            if req.ctx is not None:
                req.ctx.note_cache("stale_hit" if stale else "hit")
                if stale:
                    req.ctx.note_degraded(
                        "stale_cache", self._breaker.open_classes()
                    )
            self._complete(
                req, cached, source="cache", batch_id=None, stale_ok=stale
            )
            return req.future
        try:
            depth = self._batcher.put(req)
        except ServiceOverload:
            with self._lock:
                self._shed += 1
                self._uncompleted -= 1
                self._idle.notify_all()
            self._snapshot_unpin(req.snapshot_id)
            self.registry.inc(
                "serve_shed_total", help="requests shed by admission control"
            )
            if req.ctx is not None and self.events is not None:
                req.ctx.note_shed()
                self.events.emit(
                    req.ctx.wide_event(
                        outcome="shed",
                        source=None,
                        latency_s=self._clock() - req.submitted_at,
                        attempts_total=0,
                    )
                )
            raise
        self.registry.set_gauge(
            "serve_queue_depth", depth, help="queued requests awaiting a batch"
        )
        return req.future

    def submit_many(self, roots, **kwargs) -> list[QueryFuture]:
        """Admit a k-root query; one future per root, in input order."""
        return [self.submit(int(r), **kwargs) for r in roots]

    def query(
        self, root: int, *, targets=(), deadline=_UNSET,
        latency_budget_s: float | None = None,
        timeout: float | None = None,
    ) -> QueryResult:
        """Synchronous convenience: submit and wait for the answer."""
        future = self.submit(
            root, targets=targets, deadline=deadline,
            latency_budget_s=latency_budget_s,
        )
        # Manual mode: nobody else will run the batch (or its retries).
        while not self._workers and not future.done():
            if self.process_once(block=True) == 0:
                break
        return future.result(timeout)

    def query_many(self, roots, **kwargs) -> list[QueryResult]:
        """Synchronous k-root query; results in input order."""
        timeout = kwargs.pop("timeout", None)
        futures = self.submit_many(roots, **kwargs)
        while not self._workers and any(not f.done() for f in futures):
            if self.process_once(block=True) == 0:
                break
        return [f.result(timeout) for f in futures]

    # ------------------------------------------------------------------
    # Batch execution (the worker edge)
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            batch = self._batcher.take(block=True)
            if batch is None:
                # Closed and empty — but a group failing *right now* in
                # another worker may still requeue a retry past the
                # closed batcher. Only exit once nothing can come back.
                if self._retry is None or self._aborted:
                    return
                with self._idle:
                    if self._uncompleted == 0:
                        return
                    self._idle.wait(timeout=0.002)
                continue
            self._execute_batch(batch)

    def process_once(self, *, block: bool = False) -> int:
        """Manual mode: take and execute one batch inline.

        Returns the number of requests served (0 = nothing ready). Safe
        to call alongside worker threads, but intended for
        ``num_workers=0`` embeddings and deterministic tests.
        """
        batch = self._batcher.take(block=block)
        if batch is None:
            return 0
        self._execute_batch(batch)
        return len(batch)

    def _execute_batch(self, batch: list) -> None:
        with self._lock:
            self._inflight += len(batch)
            batch_id = self._next_batch_id
            self._next_batch_id += 1
        t0 = self._clock()
        stats = {"hits": 0, "solves": 0, "timeouts": 0, "retries": 0}
        try:
            stale = self._degraded_now()
            # Coalesce: requests sharing (root, deadline, snapshot) share
            # one solve — cross-snapshot coalescing would hand one
            # snapshot's distances to a request pinned to another.
            groups: dict[tuple, list[QueryRequest]] = {}
            for req in batch:
                groups.setdefault(req.coalesce_key, []).append(req)
            to_solve: list[tuple[tuple, list[QueryRequest]]] = []
            for key, reqs in groups.items():
                # Re-check the cache at dispatch: an earlier batch may have
                # populated this root after these requests were queued.
                cached = self.cache.peek((key[2], key[0]))
                if cached is not None:
                    stats["hits"] += len(reqs)
                    for req in reqs:
                        if req.ctx is not None:
                            req.ctx.note_batch(batch_id)
                            req.ctx.note_cache(
                                "stale_hit" if stale else "hit"
                            )
                            if stale:
                                req.ctx.note_degraded(
                                    "stale_cache",
                                    self._breaker.open_classes(),
                                )
                        self._complete(
                            req, cached, source="cache", batch_id=batch_id,
                            stale_ok=stale,
                        )
                else:
                    for req in reqs:
                        if req.ctx is not None:
                            req.ctx.note_batch(batch_id)
                    to_solve.append((key, reqs))
            for key, reqs in to_solve:
                # Per-group isolation: one root's failure reaches only
                # its own requests; the rest of the batch proceeds.
                self._solve_group(key, reqs, batch_id, stats)
        except Exception as exc:  # defensive: never strand a future
            for req in batch:
                if not req.future.done():
                    self._fail(req, exc, outcome="error")
        finally:
            wall = self._clock() - t0
            with self._lock:
                self._inflight -= len(batch)
                self._batches += 1
                self._batched_requests += len(batch)
                self._solves += stats["solves"]
                self._idle.notify_all()
            self.registry.inc("serve_batches_total", help="executed batches")
            self.registry.inc(
                "serve_solves_total", stats["solves"],
                help="fresh engine solves",
            )
            self.registry.observe(
                "serve_batch_size",
                len(batch),
                buckets=_BATCH_SIZE_BUCKETS,
                help="requests per executed batch",
            )
            self.registry.observe(
                "serve_batch_wall_seconds", wall,
                help="wall-clock duration of batch execution",
            )
            self.registry.set_gauge("serve_queue_depth", self._batcher.depth)
            self._trace_span(
                f"batch-{batch_id}",
                "batch",
                t0,
                wall,
                requests=len(batch),
                solves=stats["solves"],
                cache_hits=stats["hits"],
                timeouts=stats["timeouts"],
                retries=stats["retries"],
                request_ids=[
                    req.ctx.request_id
                    for req in batch
                    if req.ctx is not None
                ],
            )

    # ------------------------------------------------------------------
    # Resilient solve path
    # ------------------------------------------------------------------
    def _graph_for(self, snapshot_id: int):
        """The pinned snapshot's graph (resident while any request pins it)."""
        with self._lock:
            return self._graphs[snapshot_id]

    def _solver_for(self, snapshot_id: int) -> BatchSolver:
        """The pinned snapshot's solver, built lazily on first solve.

        One preprocessing per snapshot: the solver is built over the
        versioner's memoised context (the one hot-root repair already
        uses), so the weight sort and the tables are paid once. A
        vertex-splitting config solves on a different graph than the
        snapshot's and a snapshot may have left the versioner's retention
        window while still pinned here; both build from the graph.

        Construction runs outside the broker lock; a concurrent builder
        loses the ``setdefault`` race and its solver is discarded — both
        are equivalent."""
        with self._lock:
            solver = self._solvers.get(snapshot_id)
            graph = self._graphs.get(snapshot_id)
        if solver is not None:
            return solver
        if graph is None:
            raise KeyError(f"snapshot {snapshot_id} is no longer resident")
        ctx = None
        if not self._solver.config.inter_split:
            try:
                ctx = self.versioner.context_for(snapshot_id)
            except KeyError:  # out of the retention window, still pinned here
                pass
        if ctx is not None:
            built = BatchSolver.from_context(ctx, algorithm=self._solver.algorithm)
        else:
            built = BatchSolver(graph, **self._solver_kwargs)
        with self._lock:
            return self._solvers.setdefault(snapshot_id, built)

    def _snapshot_unpin(self, snapshot_id: int) -> None:
        """Drop one pin; run any deferred retirement when the last pin
        for an already-superseded snapshot drops."""
        sid = int(snapshot_id)
        retire = False
        with self._lock:
            left = self._snapshot_inflight.get(sid, 0) - 1
            if left <= 0:
                self._snapshot_inflight.pop(sid, None)
                if sid in self._retire_pending:
                    self._retire_pending.discard(sid)
                    self._solvers.pop(sid, None)
                    self._graphs.pop(sid, None)
                    retire = True
            else:
                self._snapshot_inflight[sid] = left
        if retire:
            self.cache.evict_snapshot(sid)

    def _retire_snapshot(self, snapshot_id: int) -> None:
        """Release a snapshot the versioner pruned. Deferred while any
        in-flight request is still pinned to it (the request keeps its
        graph and solver until terminal completion)."""
        sid = int(snapshot_id)
        with self._lock:
            if self._snapshot_inflight.get(sid, 0) > 0:
                self._retire_pending.add(sid)
                return
            self._solvers.pop(sid, None)
            self._graphs.pop(sid, None)
        self.cache.evict_snapshot(sid)

    def apply_updates(
        self,
        batch,
        *,
        repair_hot_roots: int = 0,
        max_dirty_fraction: float = 0.25,
    ) -> dict:
        """Apply an :class:`~repro.dynamic.updates.UpdateBatch` and swap
        the serving snapshot — a drain-free epoch handoff.

        The new snapshot is built and (optionally) hot cache roots are
        repaired *before* the swap, so requests keep landing on the old
        snapshot until the new one is fully ready; the swap itself is one
        pointer update under the broker lock, shared with ``submit``'s
        pin — no request ever observes a half-installed graph. Snapshots
        pruned by the versioner's retention window are retired once their
        last pinned request completes.

        With ``repair_hot_roots > 0`` the most-recently-used cached roots
        of the outgoing snapshot are carried over by incremental repair
        (:func:`~repro.dynamic.repair.repair_sssp`) instead of starting
        the new epoch cold; repaired distances are bit-identical to a
        fresh solve, so the carried entries are *correct* cache entries,
        not approximations. Roots whose dirty region exceeds
        ``max_dirty_fraction`` fall back to cold (counted, not repaired).

        Returns a report dict; concurrent callers serialise on an update
        lock (last writer's snapshot serves).
        """
        with self._lock:
            if self._closed:
                raise ServiceShutdown("broker is shut down")
        with self._update_lock:
            old_id = self._snapshot_id
            snapshot, retired = self.versioner.apply(batch)
            repaired = 0
            fallbacks = 0
            if repair_hot_roots > 0 and self.cache.byte_budget > 0:
                ctx = self.versioner.context_for(snapshot.snapshot_id)
                hot = [
                    key
                    for key in reversed(self.cache.roots())
                    if isinstance(key, tuple) and key[0] == old_id
                ][: int(repair_hot_roots)]
                for key in hot:
                    dist = self.cache.peek(key)
                    if dist is None:
                        continue
                    rr = repair_sssp(
                        ctx,
                        key[1],
                        dist,
                        snapshot.delta,
                        max_dirty_fraction=max_dirty_fraction,
                    )
                    if rr.fallback:
                        fallbacks += 1
                        continue
                    self.cache.put(
                        (snapshot.snapshot_id, key[1]),
                        rr.distances,
                        cost_s=rr.wall_time_s,
                    )
                    repaired += 1
            with self._lock:
                self._snapshot_id = snapshot.snapshot_id
                self.graph = snapshot.graph
                self._graphs[snapshot.snapshot_id] = snapshot.graph
                self._updates += 1
                self._repairs += repaired
                self._repair_fallbacks += fallbacks
            for sid in retired:
                self._retire_snapshot(sid)
            self.registry.inc(
                "serve_updates_total",
                help="update batches applied to the serving graph",
            )
            if repaired:
                self.registry.inc(
                    "serve_repairs_total", repaired,
                    help="hot cache roots carried across snapshots by "
                    "incremental repair",
                )
            if fallbacks:
                self.registry.inc(
                    "serve_repair_fallbacks_total", fallbacks,
                    help="hot-root repairs that fell back to cold "
                    "(dirty region too large)",
                )
            self.registry.set_gauge(
                "serve_snapshot_id", snapshot.snapshot_id,
                help="current serving snapshot",
            )
            return {
                "snapshot_id": snapshot.snapshot_id,
                "parent_id": snapshot.parent_id,
                "batch_size": batch.size,
                "num_edges": snapshot.graph.num_undirected_edges,
                "repaired": repaired,
                "repair_fallbacks": fallbacks,
                "retired": list(retired),
            }

    def _raw_solve(self, root: int, deadline, attempt: int, snapshot_id: int):
        """One solve attempt through the chaos layer (when configured)."""
        solver = self._solver_for(snapshot_id)
        if self.chaos is not None:
            return self.chaos.solve(
                root, deadline=deadline, attempt=attempt, solver=solver
            )
        return solver.solve(root, deadline=deadline)

    def _attempt_solve(self, root: int, deadline, attempt: int, snapshot_id: int):
        """One (possibly hedged) solve attempt, verified when configured.

        Returns ``(result, used_attempt)`` — ``used_attempt`` differs
        from ``attempt`` exactly when a hedged re-attempt won, so the
        request context records the attempt whose chaos draw actually
        produced the answer.

        Hedging: with ``retry.hedge_after_s`` set, the primary attempt
        runs in a side thread; if it straggles past the threshold and
        hedge budget remains, a re-attempt (at ``attempt + 1``, so a
        chaos ``slow``/fault draw does not repeat) runs inline and its
        result is preferred. Raises the attempt's failure otherwise.
        """
        policy = self._retry
        if policy is None or not policy.hedging:
            return self._finish_attempt(
                self._raw_solve(root, deadline, attempt, snapshot_id),
                root,
                attempt,
                snapshot_id,
            )
        box: dict = {}
        done = threading.Event()

        def run_primary() -> None:
            try:
                box["res"] = self._raw_solve(root, deadline, attempt, snapshot_id)
            except BaseException as exc:  # noqa: BLE001 — relayed below
                box["exc"] = exc
            finally:
                done.set()

        thread = threading.Thread(
            target=run_primary, name=f"sssp-hedge-primary-{root}", daemon=True
        )
        thread.start()
        if not done.wait(policy.hedge_after_s):
            with self._lock:
                hedge = self._hedges < policy.hedge_budget
                if hedge:
                    self._hedges += 1
            if hedge:
                self.registry.inc(
                    "serve_hedges_total",
                    help="hedged re-attempts launched for stragglers",
                )
                self._trace_span(
                    "hedge", "resilience", self._clock(), 0.0,
                    root=root, attempt=attempt,
                )
                try:
                    res = self._raw_solve(root, deadline, attempt + 1, snapshot_id)
                    return self._finish_attempt(res, root, attempt + 1, snapshot_id)
                except BaseException:  # noqa: BLE001 — fall back to primary
                    done.wait()
                    if "res" in box:
                        return self._finish_attempt(
                            box["res"], root, attempt, snapshot_id
                        )
                    raise
        done.wait()
        if "exc" in box:
            raise box["exc"]
        return self._finish_attempt(box["res"], root, attempt, snapshot_id)

    def _finish_attempt(self, res, root: int, attempt: int, snapshot_id: int):
        """Post-attempt verification; a failed check is ``corrupt``.
        Returns ``(res, attempt)`` so callers know which attempt won."""
        if self._verify:
            try:
                run_validation(
                    res.distances, self._graph_for(snapshot_id), root, self._verify
                )
            except Exception as exc:
                raise SolveCorrupted(root, attempt, str(exc)) from exc
        return res, attempt

    def _chaos_draw(self, root: int, attempt: int) -> str | None:
        """The chaos plan's draw for (root, attempt), None without chaos.
        Pure and cheap — safe to re-query for the request context."""
        if self.chaos is None:
            return None
        return self.chaos.plan.draw(root, attempt)

    def _note_attempt(
        self, reqs: list, attempt: int, decision: str, outcome: str
    ) -> None:
        """Record one solve attempt on every coalesced request's context."""
        if reqs[0].ctx is None:
            return
        draw = self._chaos_draw(reqs[0].root, attempt)
        for req in reqs:
            req.ctx.note_attempt(attempt, decision, draw, outcome)

    def _solve_group(
        self, key: tuple, reqs: list, batch_id: int, stats: dict
    ) -> None:
        """Solve one coalesce group with isolation, breaker and retries."""
        root, deadline, snapshot_id = key
        attempt = max(req.attempts for req in reqs)
        if self.cache.negative((snapshot_id, root), count=len(reqs)):
            stats["timeouts"] += len(reqs)
            exc = SolveTimeout(
                "negative-cached: root recently timed out", root=root
            )
            for req in reqs:
                if req.ctx is not None:
                    req.ctx.note_negative()
                self._fail(req, exc, outcome="timeout")
            return
        decision = (
            self._breaker.acquire() if self._breaker is not None else "primary"
        )
        if decision == "degraded":
            self._serve_degraded(root, reqs, batch_id, stats, snapshot_id)
            return
        t0 = self._clock()
        try:
            res, used_attempt = self._attempt_solve(
                root, deadline, attempt, snapshot_id
            )
        except Exception as exc:
            if isinstance(exc, SolveTimeout) and exc.root is None:
                exc.root = root
            failure_class = _classify(exc)
            self._note_attempt(reqs, attempt, decision, failure_class)
            if self._breaker is not None:
                self._breaker.on_result(decision, failure_class)
            self.registry.inc(
                "serve_solve_failures_total",
                help="failed solve attempts by failure class",
                **{"class": failure_class},
            )
            consumed = attempt + 1
            if (
                self._retry is not None
                and not self._aborted
                and self._retry.allows(failure_class, consumed)
            ):
                self._requeue_group(reqs, consumed, failure_class, stats)
                return
            if failure_class == "timeout":
                self.cache.note_timeout((snapshot_id, root))
                stats["timeouts"] += len(reqs)
            for req in reqs:
                self._fail(req, exc, outcome=failure_class)
            return
        self._note_attempt(reqs, used_attempt, decision, "ok")
        if self._breaker is not None:
            self._breaker.on_result(decision, None)
        stats["solves"] += 1
        self._trace_span(
            "solve", "solve", t0, self._clock() - t0,
            root=root, attempt=used_attempt, batch_id=batch_id,
            request_ids=[
                req.ctx.request_id for req in reqs if req.ctx is not None
            ],
        )
        self.cache.put(
            (snapshot_id, root), res.distances, cost_s=res.wall_time_s
        )
        for i, req in enumerate(reqs):
            self._complete(
                req,
                res.distances,
                source="solve" if i == 0 else "coalesced",
                batch_id=batch_id,
                sssp=res,
                attempts=req.attempts + 1,
            )

    def _requeue_group(
        self, reqs: list, consumed: int, failure_class: str, stats: dict
    ) -> None:
        """Send a failed group back through the batcher with backoff."""
        delay = self._retry.backoff(consumed)
        ready_at = self._clock() + delay
        stats["retries"] += len(reqs)
        with self._lock:
            self._retries += len(reqs)
        self.registry.inc(
            "serve_retries_total", len(reqs),
            help="requests re-queued for another solve attempt",
        )
        self._trace_span(
            "retry", "resilience", self._clock(), 0.0,
            root=reqs[0].root, attempt=consumed,
            failure_class=failure_class, backoff_s=delay,
        )
        for req in reqs:
            req.attempts = consumed
            # submitted_at shares the batcher's clock, so passing it as
            # enqueued_at keeps the latency flush anchored to when the
            # request first entered the system, not the retry instant.
            self._batcher.requeue(
                req, ready_at=ready_at, enqueued_at=req.submitted_at
            )
        with self._idle:
            self._idle.notify_all()

    def _serve_degraded(
        self, root: int, reqs: list, batch_id: int, stats: dict,
        snapshot_id: int,
    ) -> None:
        """The open-breaker ladder for a group with no cache entry:
        bounded-exact fallback on small graphs, typed refusal otherwise.
        Ladder outcomes never feed the breaker's state machine — they do
        not exercise the primary path it is protecting."""
        cfg = self._breaker.config
        open_classes = self._breaker.open_classes()
        graph = self._graph_for(snapshot_id)
        if graph.num_vertices <= cfg.degrade_max_vertices:
            res = self._solver_for(snapshot_id).solve_degraded(
                root, max_supersteps=cfg.degrade_supersteps
            )
            stats["solves"] += 1
            self.cache.put(
                (snapshot_id, root), res.distances, cost_s=res.wall_time_s
            )
            for req in reqs:
                if req.ctx is not None:
                    req.ctx.note_degraded("bounded_exact", open_classes)
                self._complete(
                    req,
                    res.distances,
                    source="degraded",
                    batch_id=batch_id,
                    sssp=res,
                    attempts=req.attempts + 1,
                    degraded=True,
                )
            return
        exc = ServiceUnavailable(root, open_classes)
        for req in reqs:
            if req.ctx is not None:
                req.ctx.note_degraded("refused", open_classes)
            self._fail(req, exc, outcome="unavailable")

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _paths(
        self,
        root: int,
        distances: np.ndarray,
        targets: tuple[int, ...],
        snapshot_id: int,
    ) -> dict[int, list[int] | None]:
        if not targets:
            return {}
        parent = build_parent_tree(
            self._graph_for(snapshot_id), distances, root
        )
        out: dict[int, list[int] | None] = {}
        for t in targets:
            path = extract_path(parent, root, t)
            out[t] = path if path else None
        return out

    def _complete(
        self,
        req: QueryRequest,
        distances: np.ndarray,
        *,
        source: str,
        batch_id: int | None,
        sssp=None,
        attempts: int = 1,
        stale_ok: bool = False,
        degraded: bool = False,
    ) -> None:
        latency = self._clock() - req.submitted_at
        result = QueryResult(
            root=req.root,
            distances=distances,
            source=source,
            latency_s=latency,
            batch_id=batch_id,
            paths=self._paths(
                req.root, distances, req.targets, req.snapshot_id
            ),
            sssp=sssp,
            attempts=attempts,
            stale_ok=stale_ok,
            degraded=degraded,
            request_id=req.ctx.request_id if req.ctx is not None else None,
            snapshot_id=req.snapshot_id,
        )
        if attempts > 1:
            with self._lock:
                self._retried_ok += 1
            self.registry.inc(
                "serve_retried_ok_total",
                help="requests that succeeded after at least one retry",
            )
        self._account(
            req, source, latency,
            source=source, attempts=attempts,
            stale_ok=stale_ok, degraded=degraded,
        )
        req.future.set_result(result)

    def _fail(self, req: QueryRequest, error: BaseException, *, outcome: str) -> None:
        latency = self._clock() - req.submitted_at
        self._account(req, outcome, latency, attempts=req.attempts)
        req.future.set_error(error)

    def _account(
        self,
        req: QueryRequest,
        outcome: str,
        latency: float,
        *,
        source: str | None = None,
        attempts: int = 0,
        stale_ok: bool = False,
        degraded: bool = False,
    ) -> None:
        """Terminal accounting — the single point every completion and
        failure passes through exactly once, which is what makes the
        "one wide event per request" invariant structural."""
        with self._lock:
            self._outcomes[outcome] = self._outcomes.get(outcome, 0) + 1
            self._uncompleted -= 1
            self._idle.notify_all()
        self._snapshot_unpin(req.snapshot_id)
        self.latency.record(outcome, latency)
        self.registry.inc(
            "serve_requests_total", outcome=outcome,
            help="completed requests by outcome",
        )
        self.registry.observe(
            "serve_request_latency_seconds", latency, source=outcome,
            help="end-to-end request latency",
            exemplar=req.ctx.request_id if req.ctx is not None else None,
        )
        span_args = {"root": req.root, "outcome": outcome}
        if req.ctx is not None:
            span_args["request_id"] = req.ctx.request_id
        self._trace_span(
            "request", "request", req.submitted_at, latency, **span_args
        )
        if req.ctx is not None and self.events is not None:
            self.events.emit(
                req.ctx.wide_event(
                    outcome=outcome,
                    source=source,
                    latency_s=latency,
                    attempts_total=attempts,
                    stale_ok=stale_ok,
                    degraded=degraded,
                )
            )

    def _trace_span(
        self, name: str, cat: str, ts: float, dur: float, **args
    ) -> None:
        tracer = self._tracer
        if tracer is None:
            return
        event = {
            "type": "span",
            "name": name,
            "cat": cat,
            "ts": ts,
            "dur": max(dur, 0.0),
            "sim_ts": tracer.sim_t,
            "sim_dur": 0.0,
            "depth": 0,
            "args": dict(args),
        }
        with self._trace_lock:
            tracer.events.append(event)

    # ------------------------------------------------------------------
    # Drain and shutdown
    # ------------------------------------------------------------------
    def _drain_manual(self, deadline: float | None) -> bool:
        """Manual-mode drain: execute the backlog inline, riding out
        retry backoffs, until nothing admitted remains unresolved."""
        while True:
            served = self.process_once(block=False)
            with self._idle:
                if self._uncompleted == 0:
                    return True
            if served:
                continue
            if deadline is not None and time.monotonic() >= deadline:
                return False
            # A retry's ready_at lies in the future; yield briefly.
            time.sleep(0.0005)

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every admitted request has terminally completed —
        including requests currently being retried or hedged; a future is
        never leaked. In manual mode (``num_workers=0``) this *executes*
        the backlog inline. Returns False if ``timeout`` expired first.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        if not self._workers:
            return self._drain_manual(deadline)
        with self._idle:
            while self._uncompleted:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(timeout=remaining)
        return True

    def shutdown(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the service. Idempotent.

        With ``drain=True`` (graceful): new submits are refused, every
        already-admitted request completes — retries included — workers
        exit, trace/metrics artifacts are written. With ``drain=False``:
        queued requests (and pending retries) fail with
        :class:`ServiceShutdown`; requests already inside a batch still
        complete (a batch is never abandoned mid-flight) but no new
        retry attempts are launched.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if not drain:
                self._aborted = True
        if not drain:
            for req in self._batcher.cancel_pending():
                self._fail(
                    req,
                    ServiceShutdown("broker shut down before execution"),
                    outcome="cancelled",
                )
        self._batcher.close()
        if not self._workers:
            if drain:
                self._drain_manual(
                    None if timeout is None else time.monotonic() + timeout
                )
        else:
            for worker in self._workers:
                worker.join(timeout)
        if not drain:
            # A group that was mid-failure during the abort may have
            # requeued a retry after cancel_pending ran; sweep again so
            # no future is ever leaked.
            for req in self._batcher.cancel_pending():
                self._fail(
                    req,
                    ServiceShutdown("broker shut down before execution"),
                    outcome="cancelled",
                )
        if self.events is not None and self.events.path is not None:
            self.events.write()
        if self._tracer is not None:
            from repro.obs.export import finalize_trace

            self.registry.set_gauge("serve_queue_depth", self._batcher.depth)
            finalize_trace(self._tracer)

    def __enter__(self) -> "QueryBroker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(drain=True)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> dict:
        """Flat service report: traffic, latency percentiles, cache, SLO
        inputs (consumed by ``repro serve-bench`` and the benchmarks)."""
        with self._lock:
            completed = sum(self._outcomes.values())
            row = {
                "offered": self._offered,
                "completed": completed,
                "shed": self._shed,
                "batches": self._batches,
                "solves": self._solves,
                "retries": self._retries,
                "hedges": self._hedges,
                "retried_ok": self._retried_ok,
                "mean_batch_size": (
                    self._batched_requests / self._batches
                    if self._batches
                    else 0.0
                ),
                "queue_depth": self._batcher.depth,
                "snapshot_id": self._snapshot_id,
                "updates": self._updates,
                "repairs": self._repairs,
                "repair_fallbacks": self._repair_fallbacks,
                "snapshots_resident": len(self._graphs),
                **{
                    f"outcome_{k}": v
                    for k, v in sorted(self._outcomes.items())
                },
            }
        row["cache_hit_rate"] = self.cache.stats.hit_rate
        row["cache_bytes"] = self.cache.stats.bytes_in_use
        row["cache_evictions"] = self.cache.stats.evictions
        row["cache_quarantined"] = self.cache.stats.quarantined
        row["negative_hits"] = self.cache.stats.negative_hits
        row.update(self.latency.summary())
        if self.events is not None:
            row["wide_events"] = self.events.emitted
        wall = self._clock() - self._t_start
        row["wall_s"] = wall
        row["throughput_qps"] = completed / wall if wall > 0 else 0.0
        return row
