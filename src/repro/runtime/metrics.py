"""Execution counters for the simulated runtime.

Every algorithm run produces a :class:`Metrics` instance: a *step ledger*
with one row per compute/communication/synchronization event, in program
order (:class:`StepRecord` is a row as an object), plus aggregate counters
(relaxations by category, phases, buckets). The cost model
(:mod:`repro.runtime.costmodel`) consumes the rows; the benchmark harness
consumes the aggregates — these are exactly the statistics the paper plots
(number of relaxations, number of phases and buckets, communication
volume, load balance).

Accounting calls reduce nothing on the spot: each queues a *fact* — it
copies the ids and units it was handed (or its per-rank spread, or the one
number a scan gives every rank) to the end of one growable flat buffer per
fact family and appends only ints (ledger row, element count, a tag) to a
list; an allreduce books only its row and count — and
:meth:`Metrics.settle` folds each family in one vectorised pass over its
buffers: one key build, one ``bincount`` and one row max/sum
(:func:`work_grid`, :func:`traffic`). A charge names vertices and a
routed exchange or a delivery vertex pairs; the fold maps every queued id
at once, through the tables of :class:`VertexMaps`, to its hardware
thread, its rank and its lane. Facts
already in rank space (lanes, per-thread rows, per-rank counts) fold as
they are. A fact folded at once (past :data:`LARGE_FACT`, or under an
armed tracer) goes through the same functions as a batch of one. Every
reader settles first (DESIGN.md §9 rule 4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = ["ComputeKind", "StepRecord", "RecoveryStats", "Metrics", "VertexMaps"]
__all__ += ["work_grid", "route_lanes", "traffic"]


class ComputeKind(str, enum.Enum):
    """Category of work inside a step, used for cost weighting and reporting."""

    SHORT_RELAX = "short_relax"
    LONG_PUSH_RELAX = "long_push_relax"
    PULL_REQUEST = "pull_request"
    PULL_RESPONSE = "pull_response"
    BF_RELAX = "bf_relax"
    BUCKET_SCAN = "bucket_scan"


#: Compute kinds that count as relaxations for the paper's work-done metric.
RELAX_KINDS = set(ComputeKind) - {ComputeKind.BUCKET_SCAN}
_BUCKET_SCAN = ComputeKind.BUCKET_SCAN.value
_PHASE_KINDS = ("short", "long", "bf", "recovery")


@dataclass
class StepRecord:
    """One accounted event of a run.

    Attributes
    ----------
    kind:
        What happened (a :class:`ComputeKind` for compute, or the strings
        ``"exchange"`` / ``"allreduce"`` for communication events).
    comp_max:
        Work units on the busiest hardware thread (determines step time).
    comp_total:
        Work units across all threads (determines total work / energy).
    msgs_max:
        Messages sent by the busiest rank (post-aggregation: at most one per
        destination rank per exchange, the SPI model).
    bytes_max:
        Bytes in + out at the busiest rank.
    bytes_total:
        Total bytes moved across the network.
    allreduces:
        Number of allreduce operations in this record.
    phase_kind:
        Which paper-level phase this event belongs to (``"short"``,
        ``"long"``, ``"bf"``, ``"bucket"``) — used for the BktTime/OtherTime
        split of Fig. 10(b)/11(b).
    """

    kind: str
    comp_max: float = 0.0
    comp_total: float = 0.0
    msgs_max: int = 0
    bytes_max: int = 0
    bytes_total: int = 0
    allreduces: int = 0
    phase_kind: str = "other"


@dataclass
class RecoveryStats:
    """Fault-tolerance overhead counters (all zero on a fault-free run).

    Filled in by the SPMD recovery layer (:mod:`repro.spmd.faults`): the
    reliable transport reports retransmissions, the engine reports
    checkpoints, rank restarts and self-healing sweeps.  ``events`` is the
    deterministic fault-injection log — one ``(superstep, round, kind,
    count)`` tuple per injected fault batch — so two runs with the same
    :class:`~repro.spmd.faults.FaultPlan` seed can be compared exactly.
    """

    retries: int = 0
    """Retransmission rounds issued by senders (ack-gap driven)."""
    retransmitted_records: int = 0
    retransmitted_bytes: int = 0
    """Off-node bytes re-sent during recovery (the ``recovery`` phase)."""
    recovery_supersteps: int = 0
    """Extra ack/retry rounds appended to supersteps by the transport."""
    checkpoints_taken: int = 0
    rank_restarts: int = 0
    healing_sweeps: int = 0
    """Post-solve Bellman-Ford sweeps needed to re-validate distances."""
    faults_injected: dict[str, int] = field(default_factory=dict)
    """Count of injected faults by kind (loss/duplicate/reorder/delay/...)."""
    events: list[tuple[int, int, str, int]] = field(default_factory=list)
    """Deterministic fault log: ``(superstep, round, kind, count)``."""

    def note_fault(self, superstep: int, round_: int, kind: str, count: int) -> None:
        """Log ``count`` injected faults of ``kind`` (and tally by kind)."""
        self.faults_injected[kind] = self.faults_injected.get(kind, 0) + count
        self.events.append((superstep, round_, kind, count))

    def summary(self) -> dict[str, int]:
        """Flat overhead summary (merged into :meth:`Metrics.summary`)."""
        return {
            "retries": self.retries,
            "resent_records": self.retransmitted_records,
            "resent_bytes": self.retransmitted_bytes,
            "recovery_supersteps": self.recovery_supersteps,
            "rank_restarts": self.rank_restarts,
            "healing_sweeps": self.healing_sweeps,
        }


LARGE_FACT = 4096
"""A fact with more array elements than this is not queued: it folds at
once, alone, through the same fold as a batch of one — no buffer copy —
straight into its ledger row, and nothing big is kept."""

FLUSH_BUDGET = 1 << 18
"""Pending facts fold once their array elements plus the grid cells they
will fold into exceed this. Both constants: sweep in DESIGN.md §9."""

_FIRST = 64
"""Elements a fact buffer holds before it first grows."""


class VertexMaps(NamedTuple):
    """Where a vertex sits on the simulated machine: the per-graph tables
    a vertex-id fact is mapped through when it folds."""

    thread: np.ndarray | None = None
    """Global hardware thread of each vertex (``ExecutionContext.thread_map``)."""
    rank: np.ndarray | None = None
    """Owning rank of each vertex (``ContiguousPartition.owner_map``)."""
    heavy_threshold: float = float("inf")
    """Intra-node balancing (Section III-E): a vertex charged more units than
    this has them spread evenly over its rank's threads instead."""


def _binned(ids, sizes, weights, width: int) -> np.ndarray:
    """``(K, width)`` grid, ``K = len(sizes)``: run ``i`` of ``ids``
    (``sizes[i]`` of them) binned into row ``i`` with its ``weights`` (one
    each when ``None``), by one ``bincount`` over row-offset ids — so
    within a cell weights add in input order, as a row's own ``bincount``
    adds them. An id outside ``[0, width)`` raises rather than land in a
    neighbour row."""
    k = len(sizes)
    if k > 1:
        if ids.size and not 0 <= ids.min() <= ids.max() < width:
            raise ValueError(f"fact ids must lie in [0, {width})")
        key = np.repeat(np.arange(0, k * width, width), sizes)
        key += ids
        ids = key
    return np.bincount(ids, weights, minlength=k * width).reshape(k, width)


def work_grid(ids, units, sizes, width: int, threads_per_rank: int, maps=None):
    """Per-thread work of compute facts laid end to end, one
    ``float64[width]`` row each: fact ``i`` is the next ``sizes[i]`` of
    ``ids`` and of ``units`` (one each when ``None``).

    Without ``maps`` the ids are hardware threads. With them they are
    vertices — a charge: units on the thread of each vertex
    (``maps.thread``), except that units above ``maps.heavy_threshold``
    are spread evenly over the threads of the vertex's rank instead
    (``maps.rank``; the paper's intra-node strategy: a heavy vertex's
    edges are partitioned among the node's threads).
    """
    t, per_rank = threads_per_rank, None
    if maps is not None:
        if maps.heavy_threshold < float("inf"):
            u = np.ones(ids.size) if units is None else units
            heavy = u > maps.heavy_threshold
            if heavy.any():
                k = len(sizes)
                split = np.bincount(np.repeat(np.arange(k), sizes)[heavy], minlength=k)
                per_rank = _binned(maps.rank[ids[heavy]], split, u[heavy], width // t)
                ids, units, sizes = ids[~heavy], u[~heavy], np.subtract(sizes, split)
        ids = maps.thread[ids]
    grid = _binned(ids, sizes, units, width).astype(np.float64, copy=False)
    if per_rank is not None:
        by_rank = grid.reshape(len(grid), -1, t)
        by_rank += (per_rank / t)[:, :, None]
    return grid


def route_lanes(src, dst, rank: np.ndarray, num_ranks: int) -> np.ndarray:
    """Lane ``owner(src[i])·P + owner(dst[i])`` of every routed record."""
    return rank[src] * num_ranks + rank[dst]


def traffic(lanes, counts, sizes, record_bytes, num_ranks: int):
    """Per-rank ``(messages, bytes)``, ``int64[P]`` rows, of exchange facts
    laid end to end: fact ``i`` is the next ``sizes[i]`` lanes ``src·P +
    dst`` and as many record counts (one each when ``None``; exact below
    2**53), ``record_bytes[i]`` bytes a record. Same-rank lanes — the
    diagonal of the ``P×P`` traffic grid — are free; a rank's bytes are its
    row plus its column, its messages one per lane with traffic (SPI
    aggregation)."""
    p = num_ranks
    grid = _binned(lanes, sizes, counts, p * p).astype(np.int64, copy=False)
    grid[:, :: p + 1] = 0
    grid = grid.reshape(-1, p, p)
    msgs = (grid != 0).sum(axis=2)
    size = np.asarray(record_bytes, dtype=np.int64)[:, None]
    return msgs, (grid.sum(axis=2) + grid.sum(axis=1)) * size


def _spread(values: np.ndarray, sizes, width: int, threads_per_rank: int) -> np.ndarray:
    """``(K, width)`` per-thread work of scans laid end to end: scan ``i``
    is the next ``sizes[i]`` of ``values``, its ranks' work (``P`` of it,
    or one number for every rank), divided evenly over each rank's
    threads."""
    t = threads_per_rank
    copies = np.repeat(np.where(np.equal(sizes, 1), width, t), sizes)
    return np.repeat(values / t, copies).reshape(-1, width)


def _reduced(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max and total of every row (the grid is let go on return)."""
    return grid.max(axis=1), grid.sum(axis=1)


class _Queue:
    """One family's pending facts: their elements laid end to end in
    growable flat buffers (``cols``; ``end`` of ``cap`` in use), and per
    fact only ``(ledger row, element count, tag)`` in ``facts``, the tag
    record bytes or the kind a compute fact counts relaxations of
    (``False`` when it counts none)."""

    __slots__ = ("cols", "cap", "end", "facts", "cells", "dtypes")

    def __init__(self, cells: int, *dtypes) -> None:
        self.cells, self.dtypes = cells, dtypes
        self.clear()

    def clear(self) -> None:
        """Forget every fact and let the buffers go: each fold starts small."""
        self.end, self.facts, self.cap = 0, [], _FIRST
        self.cols = [np.empty(_FIRST, dt) for dt in self.dtypes]

    def grow(self, end: int) -> list[np.ndarray]:
        """The buffers, grown (fourfold: few copies, few fresh pages) to hold
        ``end`` elements; only the elements in use are copied."""
        self.cap = max(end, 4 * self.cap)
        grown = [np.empty(self.cap, c.dtype) for c in self.cols]
        for new, old in zip(grown, self.cols):
            new[: self.end] = old[: self.end]
        self.cols = grown
        return grown

    def taken(self) -> tuple:
        """``(buffers in use, ledger rows, element counts, tags)``."""
        rows, sizes, tags = (list(column) for column in zip(*self.facts))
        return [col[: self.end] for col in self.cols], rows, sizes, tags


_ROW = np.dtype(
    [("comp_max", "f8"), ("comp_total", "f8"), ("msgs_max", "i8"),
     ("bytes_max", "i8"), ("bytes_total", "i8"), ("allreduces", "i8")]
)
"""The numeric columns of a ledger row — :class:`StepRecord`'s, in order."""


# Fact families, the queues of Metrics._facts: charges, routes and
# deliveries name vertices, the other compute and exchange facts threads
# and lanes. A delivery holds two ledger rows, its route's and its charge's.
_CHARGE, _COMPUTE, _SCAN, _ROUTE, _DELIVERY, _EXCHANGE = range(6)


def _checked(src, dst, record_bytes: int) -> tuple[np.ndarray, np.ndarray]:
    """A route's vertex arrays, once they align and its records have a size."""
    src, dst = np.asarray(src), np.asarray(dst)
    if src.shape != dst.shape:
        raise ValueError("source and destination vertices must align")
    if record_bytes < 0:
        raise ValueError("record_bytes must be non-negative")
    return src, dst


@dataclass
class Metrics:
    """Accumulated counters for one algorithm run."""

    num_ranks: int
    threads_per_rank: int

    hybrid_switch_bucket: int = -1
    degraded_to_bf: bool = False
    """True when the watchdog's ``degrade`` policy collapsed the remaining
    buckets into a final Bellman-Ford pass. Surfaced in :meth:`summary` as
    ``degraded`` so report consumers can exclude such runs from comparable
    rows instead of silently mixing them in."""
    per_phase_relaxations: list[tuple[str, int]] = field(default_factory=list)
    """One ``(kind, relaxations)`` row per paper-level phase; the phase
    counters are counts of its rows."""
    recovery: RecoveryStats = field(default_factory=RecoveryStats)
    """Fault-tolerance overhead (all zero unless faults were injected)."""
    tracer: object | None = field(default=None, repr=False, compare=False)
    """Optional :class:`repro.obs.tracer.Tracer` notified of every record
    (set by ``make_context`` when tracing is configured; duck-typed so the
    runtime never imports :mod:`repro.obs`). While one is armed every fact
    folds as it is queued, so the hooks fire at the moments, and with the
    per-thread/per-rank arrays, of an eager reduction."""
    maps: VertexMaps = field(default_factory=VertexMaps, repr=False, compare=False)
    """The tables vertex-id facts fold through (set by ``make_context``; a
    :class:`~repro.runtime.comm.Communicator` supplies its partition's
    owner table when none is set)."""
    resolver: object | None = field(default=None, repr=False, compare=False)
    """Completes :attr:`per_bucket_stats`' deferred rows on their first read."""

    def __post_init__(self) -> None:
        # The ledger. A row's kind and phase kind are known when its fact
        # is queued; its numbers arrive with the fold (_rows grows to fit).
        self._kinds: list[str] = []
        self._phases: list[str] = []
        self._rows = np.zeros(0, dtype=_ROW)
        self._relaxations: dict[str, int] = {}
        # Pending facts by family, each queue knowing the grid cells a fact
        # folds into; what folding them all costs (elements plus cells).
        p, self._width = self.num_ranks, self.num_ranks * self.threads_per_rank
        self._facts = (
            _Queue(self._width, np.int64, np.float64),  # charges: vertices, units
            _Queue(self._width, np.int64, np.float64),  # compute: threads, units
            _Queue(self._width, np.float64),  # scans: per-rank spreads, P each
            _Queue(p * p, np.int64, np.int64),  # routes: source, destination vertices
            _Queue(p * p + self._width, np.int64, np.int64),  # deliveries: the same
            _Queue(p * p, np.int64),  # exchanges: lanes, one record each
        )
        self._allreduces: list[tuple[int, int]] = []  # (ledger row, count)
        self._queued = 0
        self._view: list[StepRecord] | None = None  # `records`, until the next fact
        self._buckets: list[dict[str, int | str]] = []
        self._deferred: list[dict[str, int | str]] = []

    # ------------------------------------------------------------------
    # Recording API (called by algorithms and the communicator)
    # ------------------------------------------------------------------
    def _reserve(self, kind: str, phase_kind: str) -> int:
        """The next ledger row, its kind and phase kind known; its numbers
        arrive with the fold or are written at once."""
        at = len(self._kinds)
        self._kinds.append(kind)
        self._phases.append(phase_kind)
        self._view = None
        return at

    def _queue(self, family: int, kind: str, phase_kind: str, tag, a, b=None, n=None):
        """Queue a fact: copy its ``n`` elements (``a.size`` by default) of
        ``a`` and ``b`` to the end of its family's buffers and reserve the
        next ledger row for it, folding everything queued once the fold
        would take more than :data:`FLUSH_BUDGET` elements and grid cells."""
        queue = self._facts[family]
        start = queue.end
        n = a.size if n is None else n
        cols = queue.cols if start + n <= queue.cap else queue.grow(start + n)
        cols[0][start : start + n] = a
        if b is not None:
            cols[1][start : start + n] = b
        queue.end = start + n
        queue.facts.append((self._reserve(kind, phase_kind), n, tag))
        self._queued += n + queue.cells
        if self._queued > FLUSH_BUDGET:
            self.settle()

    def _append(self, kind: str, phase_kind: str, row: tuple, hook) -> None:
        """Write a row folded at once into the next ledger row (queued facts
        hold theirs already). An armed tracer gets the row and the
        per-thread / per-rank arrays it came from, as from an eager
        reduction, at that moment."""
        at = self._reserve(kind, phase_kind)
        self._room(at + 1)[at] = row
        if hook:
            hook[0](StepRecord(kind, *row, phase_kind), *hook[1:])

    def _compute_now(self, kind: str, phase_kind: str, work, relax: bool) -> None:
        total = float(work.sum())
        relaxed = int(round(total)) if relax else 0
        if relax:
            self._relaxations[kind] += relaxed
        row, tr = (float(work.max()), total, 0, 0, 0, 0), self.tracer
        self._append(kind, phase_kind, row, tr and (tr.on_compute, work, relaxed))

    def _exchange_now(self, phase_kind: str, msgs, byt) -> None:
        row = (0.0, 0.0, int(msgs.max()), int(byt.max()), int(byt.sum()) // 2, 0)
        tr = self.tracer
        self._append("exchange", phase_kind, row, tr and (tr.on_exchange, msgs, byt))

    def _room(self, end: int) -> np.ndarray:
        """The row store, grown (doubling) to hold ``end`` rows."""
        if end > self._rows.size:
            spare = np.zeros(end + self._rows.size, dtype=_ROW)
            self._rows = np.concatenate([self._rows, spare])
        return self._rows

    def _work(self, family: int, name: str, ids, units, phase_kind, relax, maps) -> None:
        """A charge (``maps``: the ids are vertices) or a compute fact
        (``None``: they are threads), queued or, past :data:`LARGE_FACT`
        or under an armed tracer, folded at once."""
        if relax:
            self._relaxations.setdefault(name, 0)
        if ids.size > LARGE_FACT or self.tracer is not None:
            units = None if units is None else np.asarray(units)
            work = work_grid(
                ids, units, [ids.size], self._width, self.threads_per_rank, maps
            )
            return self._compute_now(name, phase_kind, work[0], relax)
        units = 1.0 if units is None else units
        self._queue(family, name, phase_kind, relax and name, ids, units)

    def queue_charge(
        self, kind, vertices, units, phase_kind="other", count_as_relax=False
    ) -> None:
        """Queue a charge: ``units[i]`` work units (one each when ``None``)
        at vertex ``vertices[i]`` (:func:`work_grid` through the ledger's
        maps). Both are copied into the charge buffers; the vertices meet
        the thread and rank tables when they fold, so an id outside the
        graph raises there. ``count_as_relax`` as for :meth:`queue_compute`."""
        name = kind._value_  # ``kind.value``, without the enum property's call
        vertices = np.asarray(vertices)
        self._work(_CHARGE, name, vertices, units, phase_kind, count_as_relax, self.maps)

    def queue_scan(self, spread) -> None:
        """Queue a bucket scan: per-rank vertex counts (a ``[P]`` array) or
        one number for every rank, copied into the scan buffer as they are
        (the one number once, given to every rank when it folds) and spread
        evenly over each rank's threads when it folds."""
        n = getattr(spread, "size", 1)  # P counts, or the one number
        if self.tracer is not None:
            values = np.asarray(spread, dtype=np.float64).reshape(n)
            work = _spread(values, (n,), self._width, self.threads_per_rank)
            return self._compute_now(_BUCKET_SCAN, "bucket", work[0], False)
        self._queue(_SCAN, _BUCKET_SCAN, "bucket", False, spread, n=n)

    def queue_compute(
        self, kind, idx, units, *, phase_kind="other", count_as_relax=False
    ) -> None:
        """Queue a compute fact: ``units[i]`` work units (one each when
        ``None``) on hardware thread ``idx[i]`` (:func:`work_grid` without
        maps), both copied into the compute buffers. ``count_as_relax``
        feeds the row's total work into the relaxation counter of ``kind``
        (which takes its place among the counters now: rows may fold out
        of program order)."""
        self._work(_COMPUTE, kind.value, idx, units, phase_kind, count_as_relax, None)

    def queue_route(self, src, dst, record_bytes: int, phase_kind="other") -> None:
        """Queue a route: one record from the owner of vertex ``src[i]`` to
        the owner of vertex ``dst[i]`` (:func:`route_lanes`, then
        :func:`traffic`). Both are copied into the route buffers; the owners
        are resolved when they fold."""
        src, dst = _checked(src, dst, record_bytes)
        p = self.num_ranks
        if src.size > LARGE_FACT or self.tracer is not None:
            lanes = route_lanes(src, dst, self.maps.rank, p)
            msgs, byt = traffic(lanes, None, (src.size,), (record_bytes,), p)
            return self._exchange_now(phase_kind, msgs[0], byt[0])
        self._queue(_ROUTE, "exchange", phase_kind, record_bytes, src, dst)

    def queue_delivery(
        self, src, dst, record_bytes: int, kind, phase_kind="other"
    ) -> None:
        """Queue a delivered superstep: the route ``(src, dst,
        record_bytes)`` of :meth:`queue_route`, then the charge of one unit
        of ``kind`` per record at vertex ``dst[i]``, counted as relaxations
        (:meth:`queue_charge`) — the two ledger rows they have always made,
        from one copy of each vertex array.

        A superstep past :data:`LARGE_FACT` records folds both rows at once
        from one ``bincount`` of ``rank[src]·P·T + thread[dst]``: its
        ``(P, P, T)`` histogram summed over the threads is the lane grid,
        summed over the source rank the per-thread delivery work (a
        vertex's thread lies on its rank). With a tracer armed, or past
        :data:`LARGE_FACT` under a heavy threshold below one unit, the
        route and the charge fold one after the other."""
        src, dst = _checked(src, dst, record_bytes)
        name, maps = kind._value_, self.maps
        self._relaxations.setdefault(name, 0)
        if self.tracer is None and src.size <= LARGE_FACT:
            # The route's row; the fact's own is the charge's.
            self._reserve("exchange", phase_kind)
            return self._queue(_DELIVERY, name, phase_kind, record_bytes, src, dst)
        if self.tracer is not None or maps.heavy_threshold < 1 or maps.thread is None:
            self.queue_route(src, dst, record_bytes, phase_kind)
            return self.queue_charge(kind, dst, None, phase_kind, count_as_relax=True)
        p, t = self.num_ranks, self.threads_per_rank
        key = maps.rank[src] * (p * t) + maps.thread[dst]
        hist = np.bincount(key, minlength=p * p * t).reshape(p, p, t)
        # Two rank-space folds at once: lane counts, per-thread work.
        lanes = hist.sum(axis=2).ravel()
        msgs, byt = traffic(np.arange(p * p), lanes, (p * p,), (record_bytes,), p)
        self._exchange_now(phase_kind, msgs[0], byt[0])
        self._compute_now(name, phase_kind, hist.sum(axis=0).ravel().astype(float), True)

    def queue_exchange(self, lanes, record_bytes: int, *, phase_kind="other") -> None:
        """Queue an exchange fact: one record on each lane ``lanes[i] =
        src·P + dst`` (:func:`traffic`), copied into the exchange buffer."""
        if record_bytes < 0:
            raise ValueError("record_bytes must be non-negative")
        p = self.num_ranks
        if lanes.size > LARGE_FACT or self.tracer is not None:
            msgs, byt = traffic(lanes, None, (lanes.size,), (record_bytes,), p)
            return self._exchange_now(phase_kind, msgs[0], byt[0])
        self._queue(_EXCHANGE, "exchange", phase_kind, record_bytes, lanes)

    def add_compute(
        self, kind: ComputeKind, thread_work, *, phase_kind="other", count_as_relax=None
    ) -> None:
        """Record compute distributed over hardware threads.

        ``thread_work`` is a flat array of length ``num_ranks *
        threads_per_rank`` with work units (typically edge counts) per
        thread. Its max determines the simulated step time; its sum feeds
        the relaxation counters.
        """
        thread_work = np.asarray(thread_work, dtype=np.float64)
        if thread_work.size != self._width:
            raise ValueError(
                f"thread_work must have {self._width} entries, got {thread_work.size}"
            )
        if count_as_relax is None:
            count_as_relax = kind in RELAX_KINDS
        self.queue_compute(
            kind, np.arange(self._width), thread_work,
            phase_kind=phase_kind, count_as_relax=count_as_relax,
        )

    def add_exchange(self, msgs_per_rank, bytes_per_rank, *, phase_kind="other") -> None:
        """Record one all-to-all exchange from ready per-rank arrays."""
        msgs = np.array(msgs_per_rank, dtype=np.int64)
        byt = np.array(bytes_per_rank, dtype=np.int64)
        if not msgs.shape == byt.shape == (self.num_ranks,):
            raise ValueError(f"need {self.num_ranks} entries per array")
        self._exchange_now(phase_kind, msgs, byt)

    def add_allreduce(self, count: int = 1, *, phase_kind: str = "bucket") -> None:
        """Record ``count`` small allreduce operations."""
        if self.tracer is not None:
            row = (0.0, 0.0, 0, 0, 0, count)
            return self._append("allreduce", phase_kind, row, (self.tracer.on_allreduce,))
        # Its row's one number is known: booked beside the ledger, no buffer.
        self._allreduces.append((self._reserve("allreduce", phase_kind), count))
        self._queued += 1

    def settle(self) -> None:
        """Fold every queued fact into its ledger row (no-op when none are):
        per family one key build, one ``bincount`` over its buffers and one
        row max/sum, each result landing in the row its fact reserved —
        program order. If a fold raises (an id out of range) the facts stay
        queued and every later reader raises too, rather than see rows left
        at zero."""
        if not self._queued:
            return
        p, t, width, maps = self.num_ranks, self.threads_per_rank, self._width, self.maps
        charges, computes, scans, routes, deliveries, exchanges = (
            q.taken() if q.facts else None for q in self._facts
        )
        # Each grid is reduced to its rows' max and total and let go before
        # the next fold allocates: what a fold holds at once stays small.
        work, moved = [], []
        for facts, vertices in ((charges, maps), (computes, None)):
            if facts:
                (ids, units), rows, sizes, kinds = facts
                grid = work_grid(ids, units, sizes, width, t, vertices)
                work.append((rows, kinds, *_reduced(grid)))
        if scans:
            (values,), rows, sizes, _ = scans
            work.append((rows, (), *_reduced(_spread(values, sizes, width, t))))
        if deliveries:  # a delivery's row is its charge's, the one before its route's
            (_, dst), rows, sizes, _ = deliveries
            grid = work_grid(dst, None, sizes, width, t, maps)
            work.append((rows, [self._kinds[row] for row in rows], *_reduced(grid)))
        for facts in (routes, deliveries, exchanges):
            if facts:
                ends, rows, sizes, record_bytes = facts
                lanes = ends[0] if facts is exchanges else route_lanes(*ends, maps.rank, p)
                at = np.array(rows) - (facts is deliveries)
                moved.append((at, *traffic(lanes, None, sizes, record_bytes, p)))
        table = self._room(len(self._kinds))
        for rows, kinds, most, totals in work:
            at = np.array(rows)
            table["comp_max"][at], table["comp_total"][at] = most, totals
            for kind in dict.fromkeys(kinds):
                if kind:  # each row's total, round()ed, counts as relaxations
                    mine = np.rint(totals[[k == kind for k in kinds]])
                    self._relaxations[kind] += int(mine.astype(np.int64).sum())
        for at, msgs, byt in moved:
            table["msgs_max"][at] = msgs.max(axis=1)
            table["bytes_max"][at] = byt.max(axis=1)
            # Each byte is counted at its source and at its destination.
            table["bytes_total"][at] = byt.sum(axis=1) // 2
        if self._allreduces:
            rows, counts = zip(*self._allreduces)
            table["allreduces"][list(rows)] = counts
            self._allreduces = []
        for queue in self._facts:
            queue.clear()
        self._queued = 0

    def note_phase(self, kind: str, relaxations: int) -> None:
        """Record a paper-level phase and its relaxation count (Fig. 4 data)."""
        if kind not in _PHASE_KINDS:
            raise ValueError(f"unknown phase kind {kind!r}")
        self.per_phase_relaxations.append((kind, int(relaxations)))

    def note_bucket(self, stats: dict[str, int | str], deferred: bool = False) -> None:
        """Record per-bucket statistics (Fig. 7 census, push/pull choice);
        a ``deferred`` row is completed by :attr:`resolver` when first read."""
        self._buckets.append(stats)
        if deferred:
            self._deferred.append(stats)

    @property
    def per_bucket_stats(self) -> list[dict[str, int | str]]:
        """One stats dict per processed bucket, deferred rows resolved (left
        as noted without a :attr:`resolver`); the bucket counters are counts
        of its rows and resolve nothing."""
        if self._deferred and self.resolver is not None:
            self.resolver(self._deferred)
            self._deferred = []
        return self._buckets

    # The paper's counters (Figs. 3(a), 4 and 7): counts of the rows above.
    def _phases_of(self, kind: str) -> int:
        return sum(k == kind for k, _ in self.per_phase_relaxations)

    def _buckets_in(self, mode: str) -> int:
        return sum(s.get("mode") == mode for s in self._buckets)

    short_phases = property(lambda self: self._phases_of("short"))
    long_phases = property(lambda self: self._phases_of("long"))
    bf_phases = property(lambda self: self._phases_of("bf"))
    recovery_phases = property(lambda self: self._phases_of("recovery"))
    buckets_processed = property(lambda self: len(self._buckets))
    push_buckets = property(lambda self: self._buckets_in("push"))
    pull_buckets = property(lambda self: self._buckets_in("pull"))

    # ------------------------------------------------------------------
    # Reading the ledger (every reader settles first)
    # ------------------------------------------------------------------
    def columns(self) -> tuple[list[str], list[str], np.ndarray]:
        """The settled ledger by column, read-only: ``(kinds, phase_kinds,
        rows)``, ``rows`` a structured array of :class:`StepRecord`'s numbers."""
        self.settle()
        return self._kinds, self._phases, self._rows[: len(self._kinds)]

    @property
    def records(self) -> list[StepRecord]:
        """The ledger as a list of :class:`StepRecord`, program order. A
        view: built once and kept until the next fact is queued, so reading
        it again is free, and an edit to it never reaches the ledger."""
        if self._view is None:
            kinds, phases, rows = self.columns()
            rows = zip(kinds, phases, rows.tolist())
            self._view = [StepRecord(kind, *row, phase) for kind, phase, row in rows]
        return self._view

    @property
    def relaxations(self) -> dict[str, int]:
        """Relaxation count per compute kind, in order of first occurrence."""
        self.settle()
        return self._relaxations

    @property
    def total_relaxations(self) -> int:
        """Total relaxations, counting pull requests and responses separately
        (the paper's fair-count convention of Section III-C)."""
        return int(sum(self.relaxations.values()))

    @property
    def total_phases(self) -> int:
        """Total phases of all kinds (Fig. 3(a) metric)."""
        return len(self.per_phase_relaxations)

    @property
    def total_bytes(self) -> int:
        """Total bytes moved across the simulated network."""
        return int(self.columns()[2]["bytes_total"].sum())

    @property
    def recovery_bytes(self) -> int:
        """Bytes moved by the recovery layer (retries + healing sweeps)."""
        _, phases, rows = self.columns()
        return int(rows["bytes_total"][[k == "recovery" for k in phases]].sum())

    @property
    def total_allreduces(self) -> int:
        """Total small allreduce operations."""
        return int(self.columns()[2]["allreduces"].sum())

    def relaxations_by_kind(self) -> dict[str, int]:
        """Copy of the per-category relaxation counters."""
        return dict(self.relaxations)

    def summary(self) -> dict[str, int]:
        """Flat summary used by benches and tests."""
        return {
            "relaxations": self.total_relaxations,
            "phases": self.total_phases,
            "short_phases": self.short_phases,
            "long_phases": self.long_phases,
            "bf_phases": self.bf_phases,
            "recovery_phases": self.recovery_phases,
            "buckets": self.buckets_processed,
            "push_buckets": self.push_buckets,
            "pull_buckets": self.pull_buckets,
            "bytes": self.total_bytes,
            "recovery_bytes": self.recovery_bytes,
            "allreduces": self.total_allreduces,
            "hybrid_switch_bucket": self.hybrid_switch_bucket,
            "degraded": self.degraded_to_bf,
            **self.recovery.summary(),
        }
