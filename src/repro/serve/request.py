"""Request/response types of the query service (DESIGN.md §11).

A query enters the broker as a :class:`QueryRequest` (one root, optional
path targets, optional per-request deadline), travels through the
micro-batcher as-is, and resolves into a :class:`QueryResult` via a
:class:`QueryFuture` the submitter holds. Rejections are *typed*: a full
queue sheds with :class:`ServiceOverload` (the caller can back off and
retry), a closed broker refuses with :class:`ServiceShutdown`, a
deadline trip surfaces the engine's own
:class:`~repro.runtime.watchdog.SolveTimeout` through the future, an
open circuit breaker with no viable fallback refuses with
:class:`ServiceUnavailable`, and a solve whose output fails verification
surfaces :class:`SolveCorrupted` (DESIGN.md §12). Every admitted request
ends in exactly one of these outcomes or a result — the journey harness
(`tests/serve/test_journeys.py`) holds the service to that.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = [
    "ServiceOverload",
    "ServiceShutdown",
    "ServiceUnavailable",
    "SolveCorrupted",
    "QueryRequest",
    "QueryResult",
    "QueryFuture",
]


class ServiceOverload(RuntimeError):
    """The bounded request queue is at capacity; the request was shed.

    Carries the observed ``depth`` and configured ``capacity`` so callers
    (and tests) can reason about the rejection. Shedding at admission is
    the overload policy: the queue never grows past its bound, so queued
    requests keep their latency budget instead of collapsing together.
    """

    def __init__(self, depth: int, capacity: int) -> None:
        super().__init__(
            f"request queue at capacity ({depth}/{capacity}); request shed"
        )
        self.depth = depth
        self.capacity = capacity


class ServiceShutdown(RuntimeError):
    """The broker is shut down (or shutting down) and takes no new work."""


class ServiceUnavailable(RuntimeError):
    """The circuit breaker is open and no degradation path could serve the
    request (no cache entry, graph too large for the bounded-exact
    fallback). Carries the root and the open failure classes so callers
    can distinguish "the service is broken" from "you asked too much"."""

    def __init__(self, root: int, open_classes: tuple[str, ...] = ()) -> None:
        detail = f"service degraded; root {root} not servable"
        if open_classes:
            detail += f" (open breaker classes: {', '.join(open_classes)})"
        super().__init__(detail)
        self.root = root
        self.open_classes = tuple(open_classes)


class SolveCorrupted(RuntimeError):
    """A solve's output failed result verification (structural or
    reference validation) and was discarded before reaching the caller or
    the cache. Terminal form of the ``corrupt`` failure class once the
    retry budget is spent."""

    def __init__(self, root: int, attempt: int, detail: str) -> None:
        super().__init__(
            f"solve output for root {root} failed verification "
            f"(attempt {attempt}): {detail}"
        )
        self.root = root
        self.attempt = attempt
        self.detail = detail


@dataclass
class QueryRequest:
    """One admitted query: a root, optional path targets, a deadline.

    ``submitted_at`` is the broker-clock admission timestamp (seconds);
    request latency is measured from it. ``deadline`` is the per-request
    :class:`~repro.runtime.watchdog.DeadlineConfig` forwarded to the
    engine's watchdog — requests with different deadlines are never
    coalesced into one solve, so a strict budget cannot fail a lax one.
    """

    root: int
    targets: tuple[int, ...] = ()
    deadline: Any = None
    submitted_at: float = 0.0
    future: "QueryFuture" = field(default_factory=lambda: QueryFuture())
    #: wall-clock latency SLO of this request (seconds from submission);
    #: the micro-batcher schedules earliest-deadline-first on
    #: ``submitted_at + latency_budget_s``, so a tight budget jumps FIFO.
    #: None = no budget (FIFO among themselves).
    latency_budget_s: float | None = None
    #: solve attempts already consumed (bumped by the retry machinery
    #: before a request is re-queued).
    attempts: int = 0
    #: request-scoped observability context
    #: (:class:`~repro.obs.request.RequestContext`); minted by the broker
    #: only when wide events or tracing are armed, ``None`` otherwise —
    #: every layer guards its note with one ``is not None`` check.
    ctx: Any = None
    #: graph snapshot this request is pinned to, fixed at admission.
    #: Every stage — cache lookups, solves, path extraction — reads the
    #: pinned snapshot, so a request never observes a mixed graph even
    #: when :meth:`~repro.serve.broker.QueryBroker.apply_updates` lands
    #: mid-flight.
    snapshot_id: int = 0

    @property
    def coalesce_key(self) -> tuple:
        """Requests sharing this key are served by one solve.

        The snapshot id is part of the key: requests pinned to different
        snapshots must never share a solve, even for the same root.
        """
        return (self.root, self.deadline, self.snapshot_id)

    @property
    def deadline_at(self) -> float:
        """Absolute wall-clock deadline used for EDF batch ordering."""
        if self.latency_budget_s is None:
            return float("inf")
        return self.submitted_at + self.latency_budget_s


@dataclass
class QueryResult:
    """The answer to one query.

    ``distances`` is the full distance array from ``root`` (read-only; on
    a cache hit it *is* the cached array — bit-identical to a fresh
    solve). ``paths`` maps each requested target to its vertex sequence
    (root..target inclusive; ``None`` for unreachable targets), extracted
    deterministically from the distances. ``source`` records how the
    answer was produced: ``"cache"``, ``"solve"`` (fresh member of a
    batch), ``"repair"`` (a miss on a live graph answered by repairing the
    nearest cached ancestor snapshot's entry forward — the lineage tier,
    DESIGN.md §15) or ``"coalesced"`` (shared another request's solve or
    repair in the same batch). ``sssp`` is the full
    :class:`~repro.core.solver.SsspResult` for fresh solves, ``None`` for
    cache hits (the cache stores only distances, by byte budget) and for
    repairs (no engine ran: there are no step records to report).
    """

    root: int
    distances: np.ndarray
    source: str
    latency_s: float
    batch_id: int | None = None
    paths: dict[int, list[int] | None] = field(default_factory=dict)
    sssp: Any = None
    #: solve attempts this answer consumed (1 = first try; >1 = retried-ok).
    attempts: int = 1
    #: True when the answer was served from cache while the circuit
    #: breaker was degraded — still bit-identical here (the graph is
    #: immutable), but flagged so callers can apply their own staleness
    #: policy once live graphs land.
    stale_ok: bool = False
    #: True when the answer came from the bounded-exact Bellman-Ford
    #: fallback path (breaker open). Distances are still exact.
    degraded: bool = False
    #: request id of the wide event describing this answer's journey
    #: (``None`` when request-scoped observability is disarmed).
    request_id: str | None = None
    #: graph snapshot the answer was computed against (the request's
    #: pinned snapshot; 0 on a broker that never applied updates).
    snapshot_id: int = 0

    @property
    def cached(self) -> bool:
        return self.source == "cache"

    @property
    def retried(self) -> bool:
        return self.attempts > 1

    def distance_to(self, vertex: int) -> int:
        """Distance to one vertex (``INF`` when unreachable)."""
        return int(self.distances[int(vertex)])


#: the set Event and the Lock every future born complete shares: nothing
#: ever waits on one, and nothing can complete it again
_DONE = threading.Event()
_DONE.set()
_DONE_LOCK = threading.Lock()


class QueryFuture:
    """Completion handle for one submitted query.

    A tiny thread-safe future (no executor dependency): exactly one of
    :meth:`set_result` / :meth:`set_error` is called by the broker;
    :meth:`result` blocks the submitter until then. ``add_done_callback``
    is invoked inline on completion (used by closed-loop workload
    clients). :meth:`completed` makes one born complete — a submit-time
    cache hit — with no ``Event`` or ``Lock`` of its own.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self._result: QueryResult | None = None
        self._error: BaseException | None = None
        self._callbacks: list = []
        self._lock = threading.Lock()

    @classmethod
    def completed(cls, result: QueryResult) -> "QueryFuture":
        """A future already holding ``result``."""
        future = cls.__new__(cls)
        future._event, future._lock = _DONE, _DONE_LOCK
        future._result, future._error, future._callbacks = result, None, []
        return future

    def done(self) -> bool:
        return self._event.is_set()

    def set_result(self, result: QueryResult) -> None:
        with self._lock:
            if self._event.is_set():
                raise RuntimeError("future already completed")
            self._result = result
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)

    def set_error(self, error: BaseException) -> None:
        with self._lock:
            if self._event.is_set():
                raise RuntimeError("future already completed")
            self._error = error
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)

    def add_done_callback(self, callback) -> None:
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    def exception(self) -> BaseException | None:
        """The stored error, or None (does not block; None if pending)."""
        return self._error

    def result(self, timeout: float | None = None) -> QueryResult:
        """Block until completed; re-raise the stored error if any."""
        if not (self._event.is_set() or self._event.wait(timeout)):
            raise TimeoutError("query still pending")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result
