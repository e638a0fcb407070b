"""Admission: the bounded queue and what the pipeline counts on it.

:class:`MicroBatcher` is the serving plane's admission policy
(DESIGN.md §11). Admitted requests wait in a bounded queue; a free
worker takes **every ready request at once**, up to ``max_batch_size``,
oldest first. There is no batch formation window: a batch shares no
solver work (each coalesce group is solved on its own), so holding a
lonely request for company would only add latency. Requests that queue
behind a busy worker are taken together, which is where coalescing of
identical roots comes from. ``max_batch_size`` bounds one take, so a
second worker still sees the queue.

:meth:`put` on a full queue raises
:class:`~repro.serve.request.ServiceOverload` instead of growing the
queue — the typed shed the broker surfaces to callers. Retries re-enter
through :meth:`requeue`, which bypasses both the capacity check (the
request was already admitted once) and the closed check (a draining
broker must still finish its retries); a ``ready_at`` in the future
holds the entry back until its backoff expires.

The pipeline's own counts live here too, under the queue's one lock:
the offered load and the admission sequence (:meth:`offer`), the
unresolved requests :meth:`wait_idle` waits on (a successful ``put``
counts one, :meth:`release` gives it back), the batch ids and the
closed and aborted flags of a shutdown (:meth:`close`).

The clock is injectable (``clock=``) so the backoff policy is
unit-testable without sleeping.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Callable, NamedTuple

from repro.serve.request import ServiceOverload, ServiceShutdown
from repro.util.ints import check_count

__all__ = ["MicroBatcher"]


class _Entry(NamedTuple):
    request: object
    enqueued_at: float
    ready_at: float


class MicroBatcher:
    """Bounded FIFO of requests with coalescing take-off and the
    pipeline's admission counts.

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
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        #: set by :meth:`close`; read unlocked by the broker's submit
        self.closed = False
        #: set by ``close(drain=False)``: no further retry is launched
        self.aborted = False
        self.offered = 0
        self._seq = 0
        self._unresolved = 0  # admitted, not yet terminally resolved
        self._batch_ids = itertools.count()

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of queued (not yet taken) requests."""
        with self._cond:
            return len(self._queue)

    def __len__(self) -> int:
        return self.depth

    # ------------------------------------------------------------------
    def offer(self) -> int:
        """Count one offered request; returns its admission sequence
        number (the request id's, when ids are minted)."""
        with self._lock:
            self.offered += 1
            self._seq += 1
            return self._seq - 1

    def withdraw(self) -> None:
        """Take back an offer that was never admitted (a ``put`` that
        lost the race with shutdown): it is not offered load."""
        with self._lock:
            self.offered -= 1

    def put(self, request) -> int:
        """Admit one request as unresolved; returns the new depth.

        Raises :class:`ServiceOverload` when the queue is at capacity and
        :class:`ServiceShutdown` when the batcher is closed.
        """
        with self._cond:
            if self.closed:
                raise ServiceShutdown("batcher is closed")
            depth = len(self._queue)
            if depth >= self.capacity:
                raise ServiceOverload(depth, self.capacity)
            now = self.clock()
            self._queue.append(_Entry(request, now, now))
            self._unresolved += 1
            self._cond.notify_all()
            return depth + 1

    def requeue(self, request, *, ready_at: float | None = None) -> int:
        """Re-admit a retried request, bypassing capacity *and* closed
        state: it was admitted once already (shedding it again would
        double-count the overload) and a draining broker must still
        finish its retries. ``ready_at`` (batcher-clock time) holds the
        entry back until its backoff expires."""
        with self._cond:
            now = self.clock()
            self._queue.append(
                _Entry(request, now, now if ready_at is None else float(ready_at))
            )
            self._cond.notify_all()
            return len(self._queue)

    def release(self) -> None:
        """One admitted request resolved terminally."""
        with self._cond:
            self._unresolved -= 1
            self._cond.notify_all()

    def next_batch_id(self) -> int:
        """The id of the batch about to execute, in dispatch order."""
        return next(self._batch_ids)

    # ------------------------------------------------------------------
    def take(self, *, block: bool = True) -> list | None:
        """Take every ready request (1..max_batch_size, FIFO order).

        Blocks only while nothing is ready — an empty queue or retries
        still in backoff; returns ``None`` when the batcher is closed and
        empty (the worker's exit signal). With ``block=False``, returns
        the ready batch or ``None`` when nothing is ready.
        """
        with self._cond:
            while True:
                now = self.clock()
                batch = [e for e in self._queue if e.ready_at <= now]
                if batch:
                    del batch[self.max_batch_size:]
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
                if not block or (self.closed and not self._queue):
                    return None
                # Sleep until the next held-back entry becomes ready (or
                # a put/requeue/close notifies).
                pending = [e.ready_at for e in self._queue]
                self._cond.wait(timeout=min(pending) - now if pending else None)

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Wait until no admitted request is unresolved; False when
        ``timeout`` expired first (``0``: just look)."""
        with self._cond:
            return self._cond.wait_for(lambda: not self._unresolved, timeout)

    # ------------------------------------------------------------------
    def close(self, *, drain: bool = True) -> bool:
        """Stop admissions; queued requests remain takeable (drain).
        ``drain=False`` also marks the pipeline aborted. Returns False
        when it was already closed."""
        with self._cond:
            if self.closed:
                return False
            self.closed = True
            self.aborted = not drain
            self._cond.notify_all()
            return True

    def cancel_pending(self) -> list:
        """Pop and return every queued request (immediate shutdown)."""
        with self._cond:
            pending, self._queue = self._queue, []
            self._cond.notify_all()
            return [e.request for e in pending]
