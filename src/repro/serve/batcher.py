"""Micro-batcher: bounded queue with EDF take order.

Admitted requests wait in a bounded queue; a free worker takes **every
ready request at once**, up to ``max_batch_size``. There is no batch
formation window: a batch shares no solver work (each coalesce group is
solved on its own), so holding a lonely request for company would only
add latency. Requests that queue behind a busy worker are taken
together, which is where coalescing of identical roots comes from.
``max_batch_size`` bounds one take, so a second worker and a
tight-deadline request arriving mid-take still see the queue.

Within a take the batch is ordered **earliest-deadline-first**: requests
exposing a ``deadline_at`` (``submitted_at + latency_budget_s``, see
:class:`~repro.serve.request.QueryRequest`) are served tightest-deadline
first, so a late-arriving tight-SLO request jumps older slack ones.
Requests without a budget sort as ``deadline_at = inf`` and keep FIFO
order among themselves — with no budgets anywhere the batcher is FIFO.

Admission control lives here too: :meth:`put` on a full queue raises
:class:`~repro.serve.request.ServiceOverload` instead of growing the
queue — the typed shed the broker surfaces to callers. Retries re-enter
through :meth:`requeue`, which bypasses both the capacity check (the
request was already admitted once) and the closed check (a draining
broker must still finish its retries); a ``ready_at`` in the future holds
the entry back until its backoff expires.

The clock is injectable (``clock=``) so the backoff and EDF policies are
unit-testable without sleeping.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.serve.request import ServiceOverload, ServiceShutdown
from repro.util.ints import check_count

__all__ = ["MicroBatcher"]


@dataclass
class _Entry:
    request: object
    seq: int
    enqueued_at: float
    ready_at: float
    deadline_at: float


class MicroBatcher:
    """Bounded queue of requests with EDF-ordered coalescing take-off.

    ``capacity`` bounds the number of *queued* (not yet taken) requests;
    ``max_batch_size`` bounds one take.
    """

    def __init__(
        self,
        *,
        capacity: int,
        max_batch_size: int,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.capacity = check_count("capacity", capacity)
        self.max_batch_size = check_count("max_batch_size", max_batch_size)
        self.clock = clock
        self._queue: list[_Entry] = []
        self._seq = itertools.count()
        self._closed = False
        self._cond = threading.Condition()

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of queued (not yet taken) requests."""
        with self._cond:
            return len(self._queue)

    def __len__(self) -> int:
        return self.depth

    # ------------------------------------------------------------------
    def _entry(self, request, now: float, ready_at: float | None) -> _Entry:
        return _Entry(
            request=request,
            seq=next(self._seq),
            enqueued_at=now,
            ready_at=now if ready_at is None else float(ready_at),
            deadline_at=float(getattr(request, "deadline_at", float("inf"))),
        )

    def put(self, request) -> int:
        """Admit one request; returns the new depth.

        Raises :class:`ServiceOverload` when the queue is at capacity and
        :class:`ServiceShutdown` when the batcher is closed.
        """
        with self._cond:
            if self._closed:
                raise ServiceShutdown("batcher is closed")
            depth = len(self._queue)
            if depth >= self.capacity:
                raise ServiceOverload(depth, self.capacity)
            self._queue.append(self._entry(request, self.clock(), None))
            self._cond.notify_all()
            return len(self._queue)

    def requeue(self, request, *, ready_at: float | None = None) -> int:
        """Re-admit a retried request, bypassing capacity *and* closed
        state: it was admitted once already (shedding it again would
        double-count the overload) and a draining broker must still
        finish its retries. ``ready_at`` (batcher-clock time) holds the
        entry back until its backoff expires."""
        with self._cond:
            self._queue.append(self._entry(request, self.clock(), ready_at))
            self._cond.notify_all()
            return len(self._queue)

    # ------------------------------------------------------------------
    def _ready(self, now: float) -> list[_Entry]:
        return [e for e in self._queue if e.ready_at <= now]

    def take(self, *, block: bool = True) -> list | None:
        """Take every ready request (1..max_batch_size, EDF order).

        Blocks only while nothing is ready — an empty queue or retries
        still in backoff; returns ``None`` when the batcher is closed and
        empty (the worker's exit signal). With ``block=False``, returns
        the ready batch or ``None`` when nothing is ready.
        """
        with self._cond:
            while True:
                now = self.clock()
                ready = self._ready(now)
                if ready:
                    ready.sort(key=lambda e: (e.deadline_at, e.seq))
                    batch = ready[: self.max_batch_size]
                    taken = {id(e) for e in batch}
                    self._queue = [e for e in self._queue if id(e) not in taken]
                    self._cond.notify_all()
                    for e in batch:
                        # Queue wait is measured per dispatch, from this
                        # entry's own put or requeue.
                        ctx = getattr(e.request, "ctx", None)
                        if ctx is not None:
                            ctx.note_dequeue(now - e.enqueued_at)
                    return [e.request for e in batch]
                if not block or (self._closed and not self._queue):
                    return None
                # Sleep until the next held-back entry becomes ready (or
                # a put/requeue/close notifies).
                pending = [e.ready_at for e in self._queue]
                self._cond.wait(timeout=min(pending) - now if pending else None)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop admissions; queued requests remain takeable (drain)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def cancel_pending(self) -> list:
        """Pop and return every queued request (immediate shutdown)."""
        with self._cond:
            pending, self._queue = self._queue, []
            self._cond.notify_all()
            return [e.request for e in pending]
