"""QueryBroker: the embeddable SSSP query service (DESIGN.md §11/§12).

The broker is the request pipeline and nothing else::

    submit ──▶ cache ──▶ micro-batcher ──▶ coalesce ──▶ breaker ──▶ lineage ──▶ attempt
      │ (admission:   │ (hit: done)  (EDF order)   (one solve   (ladder    (cached      │
      ▼  bounded queue)                             per group)   rung?)    ancestor?)   ▼
    ServiceOverload                                                   complete / fail / retry

Every other fact has one owner it asks: *which snapshots are resident*
— :class:`~repro.dynamic.versioner.GraphVersioner` (pins; the serving
pointer is itself a pin); *one solve attempt* — chaos draw, hedge,
verification, failure class — :class:`~repro.serve.attempt.AttemptRunner`;
*what the service says about itself* — tallies, registry series, spans,
wide events, ``report()`` —
:class:`~repro.serve.accounting.ServeAccounting`; *which ladder rung
answers while degraded* — :func:`~repro.serve.breaker.ladder_rung`.

One broker serves one (graph, config, machine) triple — the coordinates
the distance cache is keyed under. Queries for the same root taken in
one batch (they queued behind a busy worker) are *coalesced* into a
single solve; different per-request deadlines are never coalesced (a
strict budget must not fail a lax request). Answers are bit-identical to
offline :func:`~repro.core.solver.solve_sssp` on every path — cache hit, cache
miss, batched, retried and degraded — because the engine is
deterministic and the cache stores engine output verbatim.

Live graphs (DESIGN.md §15): :meth:`QueryBroker.apply_updates` applies
an :class:`~repro.dynamic.updates.UpdateBatch` through the versioner and
swaps the serving snapshot under a **drain-free epoch handoff** — no
barrier, no paused traffic. Every request is pinned to the snapshot
serving at admission: its cache key is ``(snapshot_id, root)``, its solve
runs that snapshot's :class:`~repro.core.solver.BatchSolver`, its paths
extract against that snapshot's graph and its wide event carries the
``snapshot_id`` — no request ever observes a mixed snapshot. A
superseded snapshot is retired (graph, context, solver) with its last
pin; its cache entries and its delta outlive it by ``retention - 1``
updates, as seeds nobody can be served from. Hot cached roots can be
**repaired in place** across the handoff
(:func:`~repro.dynamic.repair.repair_sssp`), bit-identical to a fresh
solve on the new snapshot; any other root is repaired on first read —
the **lineage tier** of the miss path takes the root's entry under the
nearest ancestor snapshot within ``versioner.reach`` updates, resident
or retired, and repairs it onto the pinned snapshot under the composed
delta, before a solve is considered.

Resilience (DESIGN.md §12): a failing, stalling or corrupted root fails
**only its own request**. Failed solve groups go through the
:class:`~repro.serve.retry.RetryPolicy` (capped exponential backoff back
into the batcher, budgeted hedges) before a typed terminal error; a
per-failure-class :class:`~repro.serve.breaker.CircuitBreaker` trips on
consecutive failures, and while it is open requests are answered from
the degradation ladder and cache reads re-verify their checksums.
Overload sheds at admission with a typed
:class:`~repro.serve.request.ServiceOverload`; shutdown drains: admitted
requests complete — including in-flight retries, which drain waits for
and abort cancels — new ones are refused.
"""

from __future__ import annotations

import threading
import time

from repro.core.paths import build_parent_tree, extract_path
from repro.core.solver import BatchSolver
from repro.dynamic.repair import check_dirty_fraction, repair_sssp
from repro.dynamic.versioner import GraphVersioner
from repro.obs.request import RequestContext, request_id
from repro.runtime.watchdog import SolveTimeout
from repro.serve.accounting import HitContext, ServeAccounting
from repro.serve.attempt import AttemptRunner, classify
from repro.serve.batcher import MicroBatcher
from repro.serve.breaker import BreakerConfig, CircuitBreaker, ladder_rung
from repro.serve.cache import DistanceCache
from repro.serve.chaos import ChaosPlan
from repro.serve.events import WideEventLog
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
from repro.util.ints import vertex_id

__all__ = ["QueryBroker"]

_UNSET = object()


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
        Bound on one micro-batcher take: a free worker takes every ready
        request, up to this many.
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
        Optional :class:`~repro.serve.chaos.ChaosPlan`; solve attempts
        then run through the chaos layer injecting the plan's faults
        (exposed as ``broker.chaos``: its fault ``log`` and ``summary()``).
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
        (see :meth:`apply_updates`). A snapshot some request is still
        pinned to outlives the window: it is retired — graph, context,
        solver — when the last pinned request resolves. Cache entries
        of a retired snapshot stay ``snapshot_retention - 1`` further
        updates (under the same byte budget, least recently used) for
        the lineage tier to repair from; they are never served.
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
        num_workers: int = 1,
        cache_bytes: int = 64 << 20,
        default_deadline=None,
        retry: RetryPolicy | None = None,
        breaker=None,
        chaos: ChaosPlan | None = None,
        verify: bool | str = False,
        negative_ttl_s: float = 0.0,
        trace=None,
        events=None,
        snapshot_retention: int = 4,
    ) -> None:
        if num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        self.graph = graph
        # Snapshot 0 is the construction graph; its solver also resolves
        # the (algorithm, config, machine) every later snapshot reuses.
        self._solver = BatchSolver(
            graph, algorithm=algorithm, delta=delta, config=config,
            machine=machine, num_ranks=num_ranks,
            threads_per_rank=threads_per_rank,
        )
        self._solvers = {0: self._solver}
        # Snapshot residency lives in the versioner. The serving pointer
        # is itself a pin, so the snapshot new requests land on can never
        # be retired under them; a broker that never applies updates pays
        # nothing beyond the (0, root) cache-key tuples.
        self.versioner = GraphVersioner(
            graph, machine=self._solver.machine, config=self._solver.config,
            retention=snapshot_retention,
        )
        self.versioner.pin(0)
        self._snapshot_id = 0
        self._update_lock = threading.Lock()
        self.default_deadline = default_deadline
        #: the service tracer (None unless constructed with ``trace=``)
        self.tracer = None
        if trace is not None and getattr(trace, "enabled", True):
            from repro.obs.tracer import Tracer

            self.tracer = Tracer(self._solver.machine, trace)
            self.registry = self.tracer.registry
        else:
            from repro.obs.registry import MetricsRegistry

            self.registry = MetricsRegistry()
        self._clock = time.perf_counter if self.tracer is None else self.tracer.wall_now
        if events is not None and not isinstance(events, WideEventLog):
            events = WideEventLog(None if events is True else str(events))
        self.events = events
        self._acct = ServeAccounting(
            registry=self.registry, tracer=self.tracer, events=self.events,
            clock=self._clock,
        )
        self.latency = self._acct.latency
        self._retry = retry
        if isinstance(breaker, BreakerConfig):
            breaker = CircuitBreaker(breaker, clock=self._clock, registry=self.registry)
        #: the circuit breaker (None unless constructed with ``breaker=``)
        self.breaker = breaker
        self._attempts = AttemptRunner(
            chaos=chaos, retry=retry, verify=verify, accounting=self._acct
        )
        self.chaos = self._attempts.chaos
        self.cache = DistanceCache(
            cache_bytes, registry=self.registry, clock=self._clock,
            checksum=self.breaker is not None, negative_ttl_s=negative_ttl_s,
        )
        self._batcher = MicroBatcher(
            capacity=capacity, max_batch_size=max_batch_size, clock=self._clock,
        )
        # Request contexts ride with events *or* spans; with neither
        # armed, no context is ever minted (the zero-cost path).
        self._ctx_armed = self.events is not None or self.tracer is not None
        # One lock for the pipeline's own state: the serving pointer, the
        # admission counters and the per-snapshot solvers. It is shared
        # by submit's pin and apply_updates' swap.
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._closed = False
        self._aborted = False
        self._offered = 0
        self._uncompleted = 0  # admitted, not yet terminally resolved
        self._next_request_seq = 0
        self._next_batch_id = 0
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

    def report(self) -> dict:
        """Flat service report: traffic, latency percentiles, cache, SLO
        inputs (consumed by ``repro serve-bench`` and the benchmarks)."""
        with self._lock:
            offered, snapshot_id = self._offered, self._snapshot_id
        return self._acct.report(
            offered=offered, queue_depth=self._batcher.depth,
            snapshot_id=snapshot_id, cache_stats=self.cache.stats,
            snapshots_resident=len(self.versioner.ids()),
        )

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

        Admission control happens here, synchronously: a root or target
        that is not an in-range integer vertex id raises ``ValueError``, a
        closed broker raises :class:`ServiceShutdown`, and a full queue
        sheds with :class:`ServiceOverload` — the queue never grows past
        its bound. A cache hit returns a future born complete; it mints
        no request and never enters the pipeline — only its snapshot pin
        outlives the cache read, to its paths.
        ``latency_budget_s`` declares the request's latency SLO; the
        batcher schedules tight budgets earliest-deadline-first.
        """
        if self._closed:
            raise ServiceShutdown("broker is shut down")
        n = self.graph.num_vertices
        root = vertex_id(root, n)
        if type(targets) is not tuple or targets:  # () has nothing to check
            targets = tuple(vertex_id(t, n, "path target") for t in targets)
        if deadline is _UNSET:
            deadline = self.default_deadline
        submitted_at = self._clock()
        with self._lock:
            self._offered += 1
            # Pin the request to the snapshot serving *now*; the pointer
            # read and the pin share the lock with apply_updates' swap,
            # so a request is never pinned to a half-installed snapshot.
            snapshot_id = self._snapshot_id
            self.versioner.pin(snapshot_id)
            seq = self._next_request_seq
            self._next_request_seq += self._ctx_armed  # ids mint when armed
        degraded = self._arm_degraded_reads()
        cached = self.cache.get((snapshot_id, root))
        if cached is not None:
            rung = ladder_rung(self.breaker, degraded, cached=True) if degraded else None
            ctx = None
            if self._ctx_armed:
                ctx = HitContext(
                    request_id(seq), root, snapshot_id, submitted_at, rung,
                    self.breaker.open_classes() if rung else (),
                )
            result = self._answer(
                ctx, root, targets, snapshot_id, submitted_at, cached,
                source="cache", stale_ok=rung is not None,
            )
            self._unpin(snapshot_id)
            return QueryFuture.completed(result)
        req = QueryRequest(
            root, targets, deadline, submitted_at=submitted_at,
            latency_budget_s=latency_budget_s, snapshot_id=snapshot_id,
        )
        if self._ctx_armed:
            req.ctx = RequestContext(
                request_id(seq), root, submitted_at=submitted_at,
                snapshot_id=snapshot_id,
            )
        with self._lock:
            self._uncompleted += 1
        try:
            depth = self._batcher.put(req)
        except BaseException as exc:
            # Whatever put raised, the request is not queued: give back
            # its count and its pin, or drain() waits for it forever. A
            # full queue is the shed — offered load with its one event; a
            # batcher closed by a racing shutdown never admitted it.
            shed = isinstance(exc, ServiceOverload)
            self._release(req, offered=shed)
            if shed:
                self._acct.terminal(req.ctx, "shed", self._clock() - submitted_at)
            raise
        self._acct.gauge("serve_queue_depth", depth)
        return req.future

    def submit_many(self, roots, **kwargs) -> list[QueryFuture]:
        """Admit a k-root query; one future per root, in input order. Every
        root is checked before the first is admitted."""
        n = self.graph.num_vertices
        roots = [vertex_id(r, n) for r in roots]
        return [self.submit(r, **kwargs) for r in roots]

    def _pump(self, futures: list) -> None:
        """Manual mode: nobody else will run the batches (or their
        retries) these futures wait for, so run them here."""
        while any(not f.done() for f in futures):
            if self.process_once(block=True) == 0:
                break

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
        if not self._workers:
            self._pump([future])
        return future.result(timeout)

    def query_many(self, roots, **kwargs) -> list[QueryResult]:
        """Synchronous k-root query; results in input order."""
        timeout = kwargs.pop("timeout", None)
        futures = self.submit_many(roots, **kwargs)
        if not self._workers:
            self._pump(futures)
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

    def _arm_degraded_reads(self) -> bool:
        """Read the breaker ahead of a cache read and arm the cache for
        it (while degraded, checksummed entries re-verify on every read);
        returns the degraded flag the read is then served under."""
        if self.breaker is None:
            return False
        degraded = self.breaker.degraded
        if self.cache.verify_get is not degraded:
            self.cache.verify_get = degraded
        return degraded

    def _execute_batch(self, batch: list) -> None:
        with self._lock:
            batch_id = self._next_batch_id
            self._next_batch_id += 1
        t0 = self._clock()
        stats = {"hits": 0, "solves": 0, "timeouts": 0, "retries": 0}
        try:
            degraded = self._arm_degraded_reads()
            # Coalesce: requests sharing (root, deadline, snapshot) share
            # one solve — cross-snapshot coalescing would hand one
            # snapshot's distances to a request pinned to another.
            groups: dict[tuple, list[QueryRequest]] = {}
            for req in batch:
                if req.ctx is not None:
                    req.ctx.note_batch(batch_id)
                groups.setdefault(req.coalesce_key, []).append(req)
            to_solve: list[tuple[tuple, list[QueryRequest]]] = []
            for key, reqs in groups.items():
                # Re-check the cache at dispatch: an earlier batch may have
                # populated this root after these requests were queued.
                cached = self.cache.peek((key[2], key[0]))
                if cached is None:
                    to_solve.append((key, reqs))
                    continue
                stats["hits"] += len(reqs)
                # a dispatch-time hit; while degraded, the ladder's top rung
                rung = ladder_rung(self.breaker, degraded, cached=True)
                for req in reqs:
                    if req.ctx is not None:
                        req.ctx.note_cache("stale_hit" if rung else "hit")
                        if rung:
                            req.ctx.note_degraded(rung, self.breaker.open_classes())
                    self._complete(
                        req, cached, source="cache", batch_id=batch_id,
                        stale_ok=rung is not None,
                    )
            for key, reqs in to_solve:
                # Per-group isolation: one root's failure reaches only
                # its own requests; the rest of the batch proceeds.
                self._solve_group(key, reqs, batch_id, stats)
        except Exception as exc:  # defensive: never strand a future
            for req in batch:
                if not req.future.done():
                    self._fail(req, exc, outcome="error")
        finally:
            self._acct.batch_done(
                batch_id, batch, t0, self._clock() - t0, stats,
                self._batcher.depth,
            )

    # ------------------------------------------------------------------
    # Resilient solve path
    # ------------------------------------------------------------------
    def _solver_for(self, snapshot_id: int) -> BatchSolver:
        """The snapshot's solver, built lazily on first solve.

        One preprocessing per snapshot: the solver adopts the versioner's
        memoised context (the one hot-root repair already uses; a pin
        keeps it past the retention window). Only a vertex-splitting
        config, which solves on a different graph than the snapshot's,
        builds from the graph. Construction runs outside the broker lock;
        a concurrent builder loses the ``setdefault`` race and its
        equivalent solver is discarded."""
        with self._lock:
            solver = self._solvers.get(snapshot_id)
        if solver is not None:
            return solver
        base = self._solver
        if base.config.inter_split:
            built = BatchSolver(
                self.versioner.get(snapshot_id).graph, algorithm=base.algorithm,
                config=base.config, machine=base.machine,
            )
        else:
            built = BatchSolver.from_context(
                self.versioner.context_for(snapshot_id), algorithm=base.algorithm
            )
        with self._lock:
            return self._solvers.setdefault(snapshot_id, built)

    def _retire(self, retired: list) -> None:
        """Evict what the broker keys on snapshots the versioner retired
        (it reports each id once: from ``apply``, or from the ``unpin``
        that released a snapshot already outside the window). Solvers go
        at once. Cache entries stay for as long as the versioner's deltas
        reach their snapshot — nothing can pin a retired snapshot, so
        they are never served, only read by the lineage tier as seeds —
        and are swept once it is more than ``versioner.reach`` updates
        old (at once when ``snapshot_retention=1``)."""
        floor = self.versioner.current_id - self.versioner.reach
        with self._lock:
            for sid in retired:
                self._solvers.pop(sid, None)
        # ``floor - 1`` aged out with this update; a late unpin may
        # release a snapshot that aged out long ago.
        for sid in (floor - 1, *retired):
            if sid < floor and sid not in self.versioner:
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
        pin — no request ever observes a half-installed graph. The
        pointer's own pin moves with it: taken on the new snapshot before
        the swap, dropped on the old one after — the old snapshot retires
        once it is outside the retention window and unpinned.

        With ``repair_hot_roots > 0`` the most-recently-used cached roots
        of the outgoing snapshot are carried over by incremental repair
        (:func:`~repro.dynamic.repair.repair_sssp`) instead of starting
        the new epoch cold; repaired distances are bit-identical to a
        fresh solve, so the carried entries are *correct* cache entries,
        not approximations. Roots whose dirty region exceeds
        ``max_dirty_fraction`` fall back to cold (counted, not repaired);
        a NaN or negative fraction raises ``ValueError`` before the batch
        is applied.

        Returns a report dict (``retired``: what this call retired);
        concurrent callers serialise on an update lock (last writer's
        snapshot serves).
        """
        check_dirty_fraction(max_dirty_fraction)
        with self._lock:
            if self._closed:
                raise ServiceShutdown("broker is shut down")
        with self._update_lock:
            old_id = self._snapshot_id
            snapshot, retired = self.versioner.apply(batch)
            new_id = snapshot.snapshot_id
            repaired = fallbacks = 0
            if repair_hot_roots > 0 and self.cache.byte_budget > 0:
                hot = [
                    key
                    for key in reversed(self.cache.roots())
                    if isinstance(key, tuple) and key[0] == old_id
                ][: int(repair_hot_roots)]
                for key in hot:
                    dist = self.cache.peek(key)
                    if dist is None:
                        continue
                    rr = self._repair(
                        snapshot, key[1], dist, snapshot.delta,
                        max_dirty_fraction=max_dirty_fraction,
                    )
                    if rr.fallback:
                        fallbacks += 1
                        continue
                    self.cache.put(
                        (new_id, key[1]), rr.distances, cost_s=rr.wall_time_s
                    )
                    repaired += 1
            self.versioner.pin(new_id)
            with self._lock:
                self._snapshot_id = new_id
                self.graph = snapshot.graph
            retired = retired + self.versioner.unpin(old_id)
            self._retire(retired)
            self._acct.count("updates")
            if repaired:
                self._acct.count("repairs", repaired)
            self._acct.gauge("serve_snapshot_id", new_id)
            return {
                "snapshot_id": new_id,
                "parent_id": snapshot.parent_id,
                "batch_size": batch.size,
                "num_edges": snapshot.graph.num_undirected_edges,
                "repaired": repaired,
                "repair_fallbacks": fallbacks,
                "retired": retired,
            }

    def _repair(self, snapshot, root: int, dist, delta, **gate):
        """``dist`` — exact for ``root`` on the ancestor ``delta`` starts
        from — repaired onto ``snapshot``. Both repair sites, the hot-root
        loop of an update and the lineage tier of a read, come through
        here: one place counts a fallback, and the call goes through this
        module's ``repair_sssp`` attribute, the one a span recorder
        wraps."""
        ctx = self.versioner.context_for(snapshot.snapshot_id)
        rr = repair_sssp(ctx, root, dist, delta, **gate)
        if rr.fallback:
            self._acct.count("repair_fallbacks")
        return rr

    def _serve_lineage(
        self, snap, key: tuple, reqs: list, batch_id: int
    ) -> bool:
        """The lineage tier (DESIGN.md §15): answer a miss by repairing
        the nearest cached ancestor, and say whether that happened.

        Look back from ``snap`` (the group's pinned snapshot) at most
        ``versioner.reach`` updates for the newest snapshot — resident or
        retired — that still holds ``root``'s exact distances, and repair
        them onto ``snap`` in one call under the net delta between the
        two: the tested primitive, so the answer is bit-identical to a
        solve. Nothing is pinned: a delta on the way may have aged out
        (``KeyError``), the repair may trip the dirty gate, the
        ``verify=`` check may reject the result — each returns False and
        the caller solves as if the tier were not there. The answer is
        cached under the pinned (hence resident) snapshot. Like the
        degradation ladder, the tier never feeds the breaker, draws no
        chaos and notes no attempt."""
        root, _, snapshot_id = key
        t0 = self._clock()
        oldest = max(snapshot_id - self.versioner.reach, 0)
        for ancestor in range(snapshot_id - 1, oldest - 1, -1):
            dist = self.cache.peek((ancestor, root))
            if dist is not None:
                break
        else:
            return False  # nobody solved this root within reach
        try:
            delta = self.versioner.delta_between(ancestor, snapshot_id)
            rr = self._repair(snap, root, dist, delta)
            if rr.fallback:
                return False
            self._attempts.verified(rr, snap.graph, root, 0)
        except (KeyError, SolveCorrupted):
            return False
        dist = rr.distances
        self.cache.put((snapshot_id, root), dist, cost_s=self._clock() - t0)
        for i, req in enumerate(reqs):
            if req.ctx is not None:
                req.ctx.note_lineage(ancestor, snapshot_id - ancestor, rr.dirty)
            self._complete(
                req, dist, source="coalesced" if i else "repair",
                batch_id=batch_id,
            )
        return True

    def _note_attempt(
        self, reqs: list, attempt: int, decision: str, outcome: str
    ) -> None:
        """Record one solve attempt on every coalesced request's context."""
        if reqs[0].ctx is None:
            return
        draw = self._attempts.draw(reqs[0].root, attempt)
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
            exc = SolveTimeout("negative-cached: root recently timed out", root=root)
            for req in reqs:
                if req.ctx is not None:
                    req.ctx.note_negative()
                self._fail(req, exc, outcome="timeout")
            return
        decision = (
            self.breaker.acquire() if self.breaker is not None else "primary"
        )
        snap = self.versioner.get(snapshot_id)
        graph = snap.graph
        rung = ladder_rung(
            self.breaker, decision == "degraded",
            cached=False, num_vertices=graph.num_vertices,
        )
        if rung is not None:
            self._serve_degraded(rung, key, reqs, batch_id, stats)
            return
        if (
            decision == "primary" and deadline is None and graph.undirected
            and self._serve_lineage(snap, key, reqs, batch_id)
        ):
            return
        t0 = self._clock()
        try:
            res, used_attempt = self._attempts.run(
                self._solver_for(snapshot_id), graph, root, deadline, attempt
            )
        except Exception as exc:
            failure_class = classify(exc)
            self._note_attempt(reqs, attempt, decision, failure_class)
            if self.breaker is not None:
                self.breaker.on_result(decision, failure_class)
            self._acct.solve_failed(failure_class)
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
        if self.breaker is not None:
            self.breaker.on_result(decision, None)
        if self.tracer is not None:
            self._acct.span(
                "solve", "solve", t0, self._clock() - t0,
                root=root, attempt=used_attempt, batch_id=batch_id,
                request_ids=[
                    req.ctx.request_id for req in reqs if req.ctx is not None
                ],
            )
        self._answer_group(key, reqs, res, batch_id, stats)

    def _answer_group(
        self, key: tuple, reqs: list, res, batch_id: int, stats: dict,
        *, degraded: bool = False,
    ) -> None:
        """A fresh answer for a whole group: count it, cache it, complete
        every request — the first as the solve, the rest as coalesced."""
        stats["solves"] += 1
        self.cache.put((key[2], key[0]), res.distances, cost_s=res.wall_time_s)
        # A served answer outlives its snapshot: it keeps no resolver, which
        # would hold the snapshot's graph (its certified buckets' rows keep
        # their push cost only, DESIGN.md §9 rule 5).
        res.metrics.resolver = None
        for i, req in enumerate(reqs):
            source = "degraded" if degraded else "coalesced" if i else "solve"
            self._complete(
                req, res.distances, source=source, batch_id=batch_id,
                sssp=res, attempts=req.attempts + 1, degraded=degraded,
            )

    def _requeue_group(
        self, reqs: list, consumed: int, failure_class: str, stats: dict
    ) -> None:
        """Send a failed group back through the batcher with backoff."""
        delay = self._retry.backoff(consumed)
        now = self._clock()
        stats["retries"] += len(reqs)
        self._acct.count("retries", len(reqs))
        self._acct.span(
            "retry", "resilience", now, 0.0,
            root=reqs[0].root, attempt=consumed,
            failure_class=failure_class, backoff_s=delay,
        )
        for req in reqs:
            req.attempts = consumed
            self._batcher.requeue(req, ready_at=now + delay)
        with self._idle:
            self._idle.notify_all()

    def _serve_degraded(
        self, rung: str, key: tuple, reqs: list, batch_id: int, stats: dict
    ) -> None:
        """The open-breaker ladder for a group with no cache entry:
        bounded-exact fallback on small graphs, typed refusal otherwise.
        Ladder outcomes never feed the breaker's state machine — they do
        not exercise the primary path it is protecting."""
        root, _, snapshot_id = key
        open_classes = self.breaker.open_classes()
        for req in reqs:
            if req.ctx is not None:
                req.ctx.note_degraded(rung, open_classes)
        if rung == "refused":
            exc = ServiceUnavailable(root, open_classes)
            for req in reqs:
                self._fail(req, exc, outcome="unavailable")
            return
        res = self._solver_for(snapshot_id).solve_degraded(
            root, max_supersteps=self.breaker.config.degrade_supersteps
        )
        self._answer_group(key, reqs, res, batch_id, stats, degraded=True)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _paths(
        self, snapshot_id: int, root: int, targets: tuple, distances
    ) -> dict[int, list[int] | None]:
        """Paths to ``targets``, on the pinned snapshot's graph."""
        if not targets:
            return {}
        parent = build_parent_tree(
            self.versioner.get(snapshot_id).graph, distances, root
        )
        return {t: extract_path(parent, root, t) or None for t in targets}

    def _answer(
        self, ctx, root: int, targets: tuple, snapshot_id: int,
        submitted_at: float, distances, *, source: str,
        batch_id: int | None = None, sssp=None, attempts: int = 1,
        stale_ok: bool = False, degraded: bool = False,
    ) -> QueryResult:
        """Time, account and build one answer; the caller releases it."""
        latency = self._clock() - submitted_at
        result = QueryResult(
            root=root, distances=distances, source=source, latency_s=latency,
            batch_id=batch_id, sssp=sssp, attempts=attempts,
            paths=self._paths(snapshot_id, root, targets, distances),
            stale_ok=stale_ok, degraded=degraded, snapshot_id=snapshot_id,
            request_id=None if ctx is None else ctx.request_id,
        )
        self._acct.terminal(
            ctx, source, latency, source=source, attempts=attempts,
            stale_ok=stale_ok, degraded=degraded,
        )
        return result

    def _complete(self, req: QueryRequest, distances, **answer) -> None:
        result = self._answer(
            req.ctx, req.root, req.targets, req.snapshot_id, req.submitted_at,
            distances, **answer,
        )
        self._release(req)
        req.future.set_result(result)

    def _fail(self, req: QueryRequest, error: BaseException, *, outcome: str) -> None:
        self._acct.terminal(
            req.ctx, outcome, self._clock() - req.submitted_at,
            attempts=req.attempts,
        )
        self._release(req)
        req.future.set_error(error)

    def _release(self, req: QueryRequest, *, offered: bool = True) -> None:
        """A counted request leaves the pipeline: off the unresolved
        count drain waits on, off its snapshot (the last pin retires a
        superseded one); ``offered=False``: and out of the offered load."""
        with self._idle:
            self._uncompleted -= 1
            if not offered:
                self._offered -= 1
            self._idle.notify_all()
        self._unpin(req.snapshot_id)

    def _unpin(self, snapshot_id: int) -> None:
        """Drop one pin; the last on a superseded snapshot retires it."""
        retired = self.versioner.unpin(snapshot_id)
        if retired:
            self._retire(retired)

    # ------------------------------------------------------------------
    # Drain and shutdown
    # ------------------------------------------------------------------
    def drain(self, timeout: float | None = None) -> bool:
        """Block until every admitted request has terminally completed —
        including requests currently being retried or hedged; a future is
        never leaked. In manual mode (``num_workers=0``) this *executes*
        the backlog inline, riding out retry backoffs. Returns False if
        ``timeout`` expired first.
        """
        if self._workers:
            with self._idle:
                return self._idle.wait_for(lambda: not self._uncompleted, timeout)
        deadline = None if timeout is None else time.monotonic() + timeout
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

    def _cancel_queued(self) -> None:
        for req in self._batcher.cancel_pending():
            self._fail(
                req, ServiceShutdown("broker shut down before execution"),
                outcome="cancelled",
            )

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
            self._cancel_queued()
        self._batcher.close()
        for worker in self._workers:
            worker.join(timeout)
        if drain and not self._workers:
            self.drain(timeout)
        if not drain:
            # A group that was mid-failure during the abort may have
            # requeued a retry after the first sweep ran; sweep again now
            # that the workers are joined, so no future is ever leaked.
            self._cancel_queued()
        if self.events is not None and self.events.path is not None:
            self.events.write()
        if self.tracer is not None:
            from repro.obs.export import finalize_trace

            self._acct.gauge("serve_queue_depth", self._batcher.depth)
            finalize_trace(self.tracer)

    def __enter__(self) -> "QueryBroker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(drain=True)
