"""Request-scoped trace context for the serving plane (DESIGN.md §14).

The PR 4 tracer answers "where does *a solve* spend its time"; the
serving plane needs the orthogonal question answered — "what happened to
*this request*" — across every decision point it crosses: admission,
the cache tiers, the micro-batcher, solve attempts (with their chaos
draws), retries, hedges, the circuit breaker and its degradation
ladder. :class:`RequestContext` is the carrier: the broker mints one per
admitted request (a monotonically increasing ``req-NNNNNN`` id, so ids
are deterministic whenever the submission order is), attaches it to the
:class:`~repro.serve.request.QueryRequest`, and every layer the request
crosses *notes* its decision onto it. At terminal completion the broker
emits the context's :meth:`~RequestContext.wide_event` with its terminal
arguments bound, and the event log folds that into one structured
**wide event** (:mod:`repro.serve.events`) when the stream is read — the
canonical per-request record the journey harness reconciles against
tracer spans, registry counters and the SLO window. Nothing notes on a
context after its terminal completion, so the late fold sees what an
eager one would have.

Pay-for-use, like the rest of ``obs/``: a broker with neither a tracer
nor an event log attached mints no contexts, and every note site is a
single ``ctx is not None`` check. A request answered by the cache at
submit mints none either: nothing would note on it, and its
:class:`~repro.serve.accounting.HitContext` builds the same event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["RequestContext", "request_id"]


def request_id(seq: int) -> str:
    """Render the canonical request id for admission sequence ``seq``."""
    return f"req-{seq:06d}"


# slots: an unread event record keeps its context alive; keep it small
@dataclass(slots=True)
class RequestContext:
    """Everything one request experienced, noted layer by layer.

    Attributes are grouped by the layer that writes them:

    - **broker admission**: ``request_id``, ``root``, ``submitted_at``,
      ``admission`` (``"admitted"`` / ``"shed"``), ``cache_tier`` — the
      cache verdict (``"hit"``, ``"stale_hit"`` while the breaker is
      degraded, ``"miss"``, or ``"lineage"``: a miss answered by
      repairing a cached ancestor snapshot's entry, with ``lineage`` —
      the ancestor's snapshot id, the hops repaired across and the
      vertices they dirtied);
    - **micro-batcher**: ``queue_waits_s`` — one entry per dispatch
      (retries re-enter the queue, so a retried request has several),
      measured from that dispatch's own ``put`` or ``requeue``;
    - **batch execution**: ``batches`` — the batch ids that served this
      request, ``negative`` — failed fast on a negative-cache tombstone;
    - **solve attempts**: ``attempts`` — one record per attempt with the
      breaker ``decision`` (``primary``/``probe``/``degraded``), the
      chaos ``draw`` for that (root, attempt) when chaos is armed, and
      the attempt ``outcome`` (``"ok"`` or a failure class);
    - **degradation ladder**: ``degraded_tier``
      (``"stale_cache"``/``"bounded_exact"``/``"refused"``) and
      ``breaker_open`` — the open classes at the time.

    The context is written by exactly one thread at a time (the request
    is owned by its submitter until queued, then by one worker per
    dispatch), so notes need no locking.
    """

    request_id: str
    root: int
    submitted_at: float = 0.0
    #: graph snapshot the request was pinned to at admission (0 on a
    #: broker that never applied updates). Deterministic under seeded
    #: replay whenever the update schedule is part of the replay.
    snapshot_id: int = 0
    admission: str = "admitted"
    cache_tier: str = "miss"
    negative: bool = False
    batches: list[int] = field(default_factory=list)
    queue_waits_s: list[float] = field(default_factory=list)
    attempts: list[dict[str, Any]] = field(default_factory=list)
    breaker_open: tuple[str, ...] = ()
    degraded_tier: str | None = None
    lineage: dict[str, int] | None = None

    # ------------------------------------------------------------------
    # Note sites, one per layer
    # ------------------------------------------------------------------
    def note_shed(self) -> None:
        """Admission control shed this request (queue at capacity)."""
        self.admission = "shed"

    def note_cache(self, tier: str) -> None:
        """Submit-time cache verdict: ``hit`` / ``stale_hit`` / ``miss``."""
        self.cache_tier = tier

    def note_lineage(self, ancestor: int, hops: int, dirty: int) -> None:
        """The lineage tier answered: ``ancestor``'s cached entry repaired
        across ``hops`` snapshots, dirtying ``dirty`` vertices in all."""
        self.cache_tier = "lineage"
        self.lineage = {"ancestor": ancestor, "hops": hops, "dirty": dirty}

    def note_dequeue(self, wait_s: float) -> None:
        """The micro-batcher took this request after ``wait_s`` queued
        (called by :meth:`~repro.serve.batcher.MicroBatcher.take`)."""
        self.queue_waits_s.append(max(float(wait_s), 0.0))

    def note_batch(self, batch_id: int) -> None:
        """This request was dispatched inside batch ``batch_id``."""
        self.batches.append(int(batch_id))

    def note_negative(self) -> None:
        """Failed fast on a live negative-cache tombstone."""
        self.negative = True

    def note_attempt(
        self,
        attempt: int,
        decision: str,
        draw: str | None,
        outcome: str,
    ) -> None:
        """One solve attempt: breaker ``decision``, chaos ``draw`` (None
        when chaos is off or the draw was clean), and its ``outcome``
        (``"ok"`` or a failure class)."""
        self.attempts.append(
            {
                "attempt": int(attempt),
                "decision": decision,
                "draw": draw,
                "outcome": outcome,
            }
        )

    def note_degraded(self, tier: str, open_classes: tuple[str, ...]) -> None:
        """The degradation ladder served (or refused) this request."""
        self.degraded_tier = tier
        self.breaker_open = tuple(open_classes)

    # ------------------------------------------------------------------
    def wide_event(
        self,
        *,
        outcome: str,
        source: str | None,
        latency_s: float,
        attempts_total: int,
        stale_ok: bool = False,
        degraded: bool = False,
    ) -> dict[str, Any]:
        """Fold the journey into one wide-event dict.

        Decision fields are deterministic under a seeded replay; wall
        timings live under the ``"timing"`` key, which
        :func:`repro.serve.events.canonical_event` strips for the
        replay-identity comparison.
        """
        event = {
            "schema": 1,
            "request_id": self.request_id,
            "root": int(self.root),
            "snapshot_id": int(self.snapshot_id),
            "admission": self.admission,
            "cache_tier": self.cache_tier,
            "negative": self.negative,
            "batches": list(self.batches),
            "attempts": [dict(a) for a in self.attempts],
            "breaker_open": list(self.breaker_open),
            "degraded_tier": self.degraded_tier,
            "outcome": outcome,
            "source": source,
            "attempts_total": int(attempts_total),
            "stale_ok": bool(stale_ok),
            "degraded": bool(degraded),
            "timing": {
                "submitted_at": float(self.submitted_at),
                "latency_s": float(latency_s),
                "queue_waits_s": [float(w) for w in self.queue_waits_s],
            },
        }
        if self.lineage is not None:  # on lineage-served events only
            event["lineage"] = dict(self.lineage)
        return event
