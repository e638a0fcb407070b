"""QueryBroker: the embeddable SSSP query service (DESIGN.md §11/§12).

The broker is the request pipeline and nothing else::

    submit ─▶ pin ─▶ cache ─▶ admission ─▶ coalesce ─▶ attempts ─▶ complete
                       │ hit    (bounded FIFO)  (a group    (negative,   / fail
                       ▼ done                    per root)   ladder,      / requeue
                                                             lineage,
                                                             solve, retry)

It wires four policies, each owning its state and its lock: admission
(:class:`~repro.serve.batcher.MicroBatcher`: the bounded queue, the
offered and unresolved counts, shutdown's flags), attempts
(:class:`~repro.serve.attempt.AttemptRunner`: what becomes of a group
that missed the cache), snapshots (:class:`~repro.serve.snapshots.Snapshots`:
which graph a request is answered on) and telemetry
(:class:`~repro.serve.accounting.ServeAccounting`: what the service says
about itself). Requests for one root taken in one batch are *coalesced*
into one solve (never across deadlines or snapshots). Answers are
bit-identical to offline :func:`~repro.core.solver.solve_sssp` on every
path, and no request observes a mixed graph across
:meth:`QueryBroker.apply_updates` (DESIGN.md §15).
"""

from __future__ import annotations

import threading
import time

from repro.core.solver import BatchSolver
from repro.dynamic.repair import check_dirty_fraction, repair_sssp
from repro.obs.request import RequestContext, request_id
from repro.serve.accounting import HitContext, ServeAccounting
from repro.serve.attempt import AttemptRunner
from repro.serve.batcher import MicroBatcher
from repro.serve.breaker import BreakerConfig, CircuitBreaker, ladder_rung
from repro.serve.chaos import ChaosPlan
from repro.serve.request import (
    QueryFuture, QueryRequest, QueryResult, ServiceOverload, ServiceShutdown,
)
from repro.serve.retry import RetryPolicy
from repro.serve.snapshots import Snapshots
from repro.util.ints import vertex_id

__all__ = ["QueryBroker"]

_UNSET = object()


def _repair(ctx, root: int, distances, delta, **gate):
    """The serving plane's one repair call. It goes through this module's
    ``repair_sssp`` attribute, looked up when called: the one a span
    recorder wraps."""
    return repair_sssp(ctx, root, distances, delta, **gate)


class QueryBroker:
    """Batched, cached, admission-controlled SSSP query service.

    ``graph`` is the served graph; ``algorithm``, ``delta``, ``config``,
    ``machine``, ``num_ranks`` and ``threads_per_rank`` are as for
    ``solve_sssp``. ``num_workers`` threads execute batches (``0`` is
    manual mode: nothing runs until :meth:`process_once`), and
    ``default_deadline`` applies to requests that carry none. Every
    other keyword is forwarded to its owner and documented there:
    ``capacity`` and ``max_batch_size`` to admission
    (:class:`~repro.serve.batcher.MicroBatcher`); ``retry``, ``breaker``
    (a :class:`~repro.serve.breaker.BreakerConfig` is built on the
    broker's clock), ``chaos`` and ``verify`` to attempts
    (:class:`~repro.serve.attempt.AttemptRunner`); ``cache_bytes``,
    ``negative_ttl_s`` and ``snapshot_retention`` to snapshots
    (:class:`~repro.serve.snapshots.Snapshots`); ``trace`` and
    ``events`` to telemetry
    (:class:`~repro.serve.accounting.ServeAccounting`) — with neither,
    no request context is ever minted.
    """

    def __init__(
        self, graph, *,
        algorithm: str = "opt", delta: int = 25, config=None, machine=None,
        num_ranks: int = 8, threads_per_rank: int = 8,
        num_workers: int = 1, default_deadline=None,
        # admission
        capacity: int = 256, max_batch_size: int = 16,
        # attempts
        retry: RetryPolicy | None = None, breaker=None,
        chaos: ChaosPlan | None = None, verify: bool | str = False,
        # snapshots
        cache_bytes: int = 64 << 20, negative_ttl_s: float = 0.0,
        snapshot_retention: int = 4,
        # telemetry
        trace=None, events=None,
    ) -> None:
        if num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        # Snapshot 0's solver also resolves the (algorithm, config,
        # machine) every later snapshot reuses.
        solver = BatchSolver(
            graph, algorithm=algorithm, delta=delta, config=config,
            machine=machine, num_ranks=num_ranks,
            threads_per_rank=threads_per_rank,
        )
        self._acct = acct = ServeAccounting(machine=solver.machine, trace=trace, events=events)
        self.tracer, self.registry, self.events = acct.tracer, acct.registry, acct.events
        self.latency, self._clock = acct.latency, acct.clock
        self.default_deadline = default_deadline
        self._retry = retry
        if isinstance(breaker, BreakerConfig):
            breaker = CircuitBreaker(breaker, clock=self._clock, registry=self.registry)
        self.breaker = breaker
        self._admission = MicroBatcher(
            capacity=capacity, max_batch_size=max_batch_size, clock=self._clock
        )
        self._snapshots = Snapshots(
            graph, solver, retention=snapshot_retention, cache_bytes=cache_bytes,
            negative_ttl_s=negative_ttl_s, breaker=breaker, repair=_repair,
            accounting=acct,
        )
        self.versioner, self.cache = self._snapshots.versioner, self._snapshots.cache
        self._attempts = AttemptRunner(
            chaos=chaos, retry=retry, verify=verify, accounting=acct,
            breaker=breaker, snapshots=self._snapshots, admission=self._admission,
        )
        self.chaos = self._attempts.chaos
        # Request contexts ride with events *or* spans; with neither
        # armed, no context is ever minted (the zero-cost path).
        self._ctx_armed = self.events is not None or self.tracer is not None
        self._workers = [
            threading.Thread(target=self._worker_loop, name=f"sssp-serve-{i}", daemon=True)
            for i in range(num_workers)
        ]
        for worker in self._workers:
            worker.start()

    @property
    def graph(self):
        """The serving snapshot's graph."""
        return self._snapshots.graph

    @property
    def queue_depth(self) -> int:
        return self._admission.depth

    @property
    def closed(self) -> bool:
        return self._admission.closed

    @property
    def manual(self) -> bool:
        """True when no worker threads run (``num_workers=0``)."""
        return not self._workers

    def report(self) -> dict:
        """Flat service report: traffic, latency percentiles, cache, SLO
        inputs (consumed by ``repro serve-bench`` and the benchmarks)."""
        return self._acct.report(
            offered=self._admission.offered, queue_depth=self._admission.depth,
            snapshot_id=self._snapshots.serving, cache_stats=self.cache.stats,
            snapshots_resident=len(self.versioner.ids()))

    def submit(self, root: int, *, targets=(), deadline=_UNSET) -> QueryFuture:
        """Admit one query; returns its :class:`QueryFuture`.

        A root or target that is not an in-range vertex id raises
        ``ValueError``, a closed broker :class:`ServiceShutdown`, a full
        queue sheds with :class:`ServiceOverload`. A cache hit returns a
        future born complete: it never enters the pipeline."""
        n = self._snapshots.num_vertices
        root = vertex_id(root, n)
        if type(targets) is not tuple or targets:  # () has nothing to check
            targets = tuple(vertex_id(t, n, "path target") for t in targets)
        return self._admit(root, targets, deadline)

    def submit_many(self, roots, *, targets=(), deadline=_UNSET) -> list[QueryFuture]:
        """Admit a k-root query; one future per root, in input order. Every
        root is checked, once, before the first is admitted."""
        n = self._snapshots.num_vertices
        roots = [vertex_id(r, n) for r in roots]
        if type(targets) is not tuple or targets:
            targets = tuple(vertex_id(t, n, "path target") for t in targets)
        return [self._admit(r, targets, deadline) for r in roots]

    def _admit(self, root: int, targets: tuple, deadline) -> QueryFuture:
        admission, snapshots = self._admission, self._snapshots
        if admission.closed:
            raise ServiceShutdown("broker is shut down")
        if deadline is _UNSET:
            deadline = self.default_deadline
        submitted_at = self._clock()
        seq = admission.offer()
        snapshot_id = snapshots.pin()
        degraded = self.breaker is not None and snapshots.arm_degraded_reads()
        cached = self.cache.get((snapshot_id, root))
        if cached is not None:
            ctx = (HitContext(request_id(seq), root, snapshot_id, submitted_at)
                   if self._ctx_armed else None)
            result = self._answer(ctx, root, targets, snapshot_id, submitted_at, cached,
                                  source="cache", degraded_read=degraded)
            snapshots.unpin(snapshot_id)
            return QueryFuture.completed(result)
        req = QueryRequest(root, targets, deadline, submitted_at=submitted_at,
                           snapshot_id=snapshot_id)
        if self._ctx_armed:
            req.ctx = RequestContext(request_id(seq), root, submitted_at=submitted_at,
                                     snapshot_id=snapshot_id)
        try:
            depth = admission.put(req)
        except ServiceOverload:  # the shed: offered load, with its one event
            snapshots.unpin(snapshot_id)
            self._acct.terminal(req.ctx, "shed", self._clock() - submitted_at)
            raise
        except BaseException:  # closed by a racing shutdown: never admitted
            admission.withdraw()
            snapshots.unpin(snapshot_id)
            raise
        self._acct.gauge("serve_queue_depth", depth)
        return req.future

    def _pump(self, futures: list) -> None:
        """Manual mode: nobody else will run the batches (or their
        retries) these futures wait for, so run them here."""
        while any(not f.done() for f in futures):
            if self.process_once(block=True) == 0:
                break

    def query(self, root: int, *, targets=(), deadline=_UNSET, timeout=None) -> QueryResult:
        """Synchronous convenience: submit and wait for the answer."""
        future = self.submit(root, targets=targets, deadline=deadline)
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

    def _worker_loop(self) -> None:
        admission = self._admission
        while True:
            batch = admission.take(block=True)
            if batch is not None:
                self._execute_batch(batch)
            # Closed and empty — but a group failing *right now* in
            # another worker may still requeue a retry past the closed
            # batcher. Only exit once nothing can come back.
            elif self._retry is None or admission.aborted or admission.wait_idle(0.002):
                return

    def process_once(self, *, block: bool = False) -> int:
        """Manual mode: take and execute one batch inline; returns the
        number of requests served (0 = nothing ready)."""
        batch = self._admission.take(block=block)
        if batch is None:
            return 0
        self._execute_batch(batch)
        return len(batch)

    def _execute_batch(self, batch: list) -> None:
        batch_id = self._admission.next_batch_id()
        t0 = self._clock()
        stats = {"hits": 0, "solves": 0, "timeouts": 0, "retries": 0}
        try:
            degraded = self.breaker is not None and self._snapshots.arm_degraded_reads()
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
                for req in reqs:
                    self._complete(req, cached, source="cache", batch_id=batch_id,
                                   degraded_read=degraded)
            for key, reqs in to_solve:
                # Per-group isolation: one root's failure reaches only
                # its own requests; the rest of the batch proceeds.
                self._solve_group(key, reqs, batch_id, stats)
        except Exception as exc:  # defensive: never strand a future
            for req in batch:
                if not req.future.done():
                    self._fail(req, exc, outcome="error")
        finally:
            self._acct.batch_done(batch_id, batch, t0, self._clock() - t0, stats,
                                  self._admission.depth)

    def _solve_group(self, key: tuple, reqs: list, batch_id: int, stats: dict) -> None:
        """Apply what :meth:`AttemptRunner.solve` made of one group."""
        verb, value, detail = self._attempts.solve(key, reqs, batch_id)
        if verb == "retry":
            stats["retries"] += len(reqs)
            for req in reqs:
                req.attempts = detail
                self._admission.requeue(req, ready_at=value)
        elif verb == "fail":
            if detail == "timeout":
                stats["timeouts"] += len(reqs)
            for req in reqs:
                self._fail(req, value, outcome=detail)
        elif verb == "repair":
            ancestor, dirty = detail
            for i, req in enumerate(reqs):
                if req.ctx is not None:
                    req.ctx.note_lineage(ancestor, key[2] - ancestor, dirty)
                self._complete(req, value, source="coalesced" if i else "repair",
                               batch_id=batch_id)
        else:
            self._answer_group(key, reqs, value, batch_id, stats,
                               degraded=verb == "degraded")

    def _answer_group(self, key, reqs, res, batch_id, stats, *, degraded=False) -> None:
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
            self._complete(req, res.distances, source=source, batch_id=batch_id,
                           sssp=res, attempts=req.attempts + 1, degraded=degraded)

    def apply_updates(self, batch, *, repair_hot_roots: int = 0,
                      max_dirty_fraction: float = 0.25) -> dict:
        """Apply an :class:`~repro.dynamic.updates.UpdateBatch` and swap
        the serving snapshot — a drain-free epoch handoff, with the
        ``repair_hot_roots`` most recently used cached roots carried over
        by repair (:meth:`Snapshots.apply
        <repro.serve.snapshots.Snapshots.apply>`); returns its report. A
        NaN or negative ``max_dirty_fraction`` raises ``ValueError``
        before the batch is applied."""
        check_dirty_fraction(max_dirty_fraction)
        if self._admission.closed:
            raise ServiceShutdown("broker is shut down")
        return self._snapshots.apply(batch, repair_hot_roots, max_dirty_fraction)

    def _answer(
        self, ctx, root: int, targets: tuple, snapshot_id: int,
        submitted_at: float, distances, *, source: str,
        batch_id: int | None = None, sssp=None, attempts: int = 1,
        degraded: bool = False, degraded_read: bool = False,
    ) -> QueryResult:
        """Time, account and build one answer; the caller releases it.

        The one path of a cached answer (``source="cache"``), at submit
        (``ctx`` a :class:`HitContext` or None) or at dispatch: read
        while the breaker is degraded (``degraded_read``), it is the
        ladder's top rung — flagged ``stale_ok`` and noted as such."""
        rung = None
        if source == "cache":
            if degraded_read:
                rung = ladder_rung(self.breaker, True, cached=True)
            if type(ctx) is HitContext:
                if rung:
                    ctx = ctx._replace(rung=rung, open_classes=self.breaker.open_classes())
            elif ctx is not None:
                ctx.note_cache("stale_hit" if rung else "hit")
                if rung:
                    ctx.note_degraded(rung, self.breaker.open_classes())
        latency = self._clock() - submitted_at
        paths = self._snapshots.paths(snapshot_id, root, targets, distances) if targets else {}
        result = QueryResult(
            root=root, distances=distances, source=source, latency_s=latency,
            batch_id=batch_id, sssp=sssp, attempts=attempts, paths=paths,
            stale_ok=rung is not None, degraded=degraded, snapshot_id=snapshot_id,
            request_id=None if ctx is None else ctx.request_id,
        )
        self._acct.terminal(ctx, source, latency, source=source, attempts=attempts,
                            stale_ok=rung is not None, degraded=degraded)
        return result

    def _complete(self, req: QueryRequest, distances, **answer) -> None:
        result = self._answer(req.ctx, req.root, req.targets, req.snapshot_id,
                              req.submitted_at, distances, **answer)
        self._admission.release()
        self._snapshots.unpin(req.snapshot_id)
        req.future.set_result(result)

    def _fail(self, req: QueryRequest, error: BaseException, *, outcome: str) -> None:
        self._acct.terminal(req.ctx, outcome, self._clock() - req.submitted_at,
                            attempts=req.attempts)
        self._admission.release()
        self._snapshots.unpin(req.snapshot_id)
        req.future.set_error(error)

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every admitted request has terminally completed,
        retries included; in manual mode, *execute* the backlog inline.
        Returns False if ``timeout`` expired first."""
        if self._workers:
            return self._admission.wait_idle(timeout)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            served = self.process_once(block=False)
            if self._admission.wait_idle(0):
                return True
            if served:
                continue
            if deadline is not None and time.monotonic() >= deadline:
                return False
            # A retry's ready_at lies in the future; yield briefly.
            time.sleep(0.0005)

    def _cancel_queued(self) -> None:
        for req in self._admission.cancel_pending():
            self._fail(req, ServiceShutdown("broker shut down before execution"),
                       outcome="cancelled")

    def shutdown(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the service (idempotent): new submits are refused and the
        artifacts written. ``drain=True`` completes every admitted
        request, retries included; ``drain=False`` fails the queued ones
        with :class:`ServiceShutdown` and launches no new retry, while a
        batch already taken still completes."""
        if not self._admission.close(drain=drain):
            return
        if not drain:
            self._cancel_queued()
        for worker in self._workers:
            worker.join(timeout)
        if drain and not self._workers:
            self.drain(timeout)
        if not drain:
            # A group that was mid-failure during the abort may have
            # requeued a retry after the first sweep ran; sweep again now
            # that the workers are joined, so no future is ever leaked.
            self._cancel_queued()
        self._acct.close(self._admission.depth)

    def __enter__(self) -> "QueryBroker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(drain=True)
