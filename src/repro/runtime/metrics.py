"""Execution counters for the simulated runtime.

Every algorithm run produces a :class:`Metrics` instance: a *step ledger*
with one row per compute/communication/synchronization event, in program
order (:class:`StepRecord` is a row as an object), plus aggregate counters
(relaxations by category, phases, buckets). The cost model
(:mod:`repro.runtime.costmodel`) consumes the rows; the benchmark harness
consumes the aggregates — these are exactly the statistics the paper plots
(number of relaxations, number of phases and buckets, communication
volume, load balance).

Accounting calls reduce nothing on the spot: each appends a *fact* — a
copy of the ids it was handed — and :meth:`Metrics.settle` folds all queued
facts of a family in one vectorised pass (:func:`fold_charges`,
:func:`fold_compute`, :func:`fold_exchange`). A charge names vertices and a
routed exchange vertex pairs; the fold maps every queued id at once, through
the tables of
:class:`VertexMaps`, to its hardware thread, its rank and its lane. Facts
already in rank space (lanes, per-thread rows, per-rank counts) fold as
they are. Every reader settles first (DESIGN.md §9 rule 4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = ["ComputeKind", "StepRecord", "RecoveryStats", "Metrics", "VertexMaps"]
__all__ += ["fold_charges", "fold_compute", "fold_exchange"]


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
once, alone, through the same fold as a batch of one — no concatenate, no
row offsets — straight into its ledger row, and nothing big is kept."""

FLUSH_BUDGET = 1 << 18
"""Pending facts fold once their array elements plus the grid cells they
will fold into exceed this. Both constants: sweep in DESIGN.md §9."""


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


def _cat(arrays: list) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _weights(units: list, sizes: np.ndarray) -> np.ndarray | None:
    """The ``bincount`` weights of runs of ids (``sizes[i]`` ids each) in
    one buffer: ``None`` when every run counts one per id, else ones filled
    once, the weighted runs' ``units`` written over their places."""
    if len(units) == 1:
        return units[0]
    weighted = [u is not None for u in units]
    if not any(weighted):
        return None
    w = np.ones(sizes.sum())
    w[np.repeat(weighted, sizes)] = np.concatenate([u for u in units if u is not None])
    return w


def _spread(grid: np.ndarray, scans: list, t: int) -> None:
    """Write per-rank work, divided evenly over each rank's ``t`` threads,
    into the grid rows of ``scans``: ``(row, spread)`` pairs, a spread being
    ``[P]`` counts or one number for every rank. The rows are those of facts
    without ids, zero until now (and ``0 + x`` is ``x``), so the shares are
    written in place, broadcast — no row-sized temporary."""
    by_rank = grid.reshape(len(grid), -1, t)
    for counts in (True, False):
        part = [(i, s) for i, s in scans if isinstance(s, np.ndarray) is counts]
        if part:
            rows, spreads = zip(*part)
            share = np.array(spreads) / t
            by_rank[list(rows)] = share[:, :, None] if counts else share[:, None, None]


def _grid(ids, at, sizes, weights, k: int, width: int) -> np.ndarray:
    """``(k, width)`` grid: run ``i`` of ``ids`` (``sizes[i]`` of them)
    binned into row ``at[i]`` with its ``weights`` (one each when
    ``None``), by one ``bincount`` over row-offset ids — so within a cell
    weights add in input order, as a row's own ``bincount`` adds them. An
    id outside ``[0, width)`` raises rather than land in a neighbour row."""
    if k > 1:
        if ids.size and not 0 <= ids.min() <= ids.max() < width:
            raise ValueError(f"fact ids must lie in [0, {width})")
        offset = np.repeat(np.asarray(at) * width, sizes)
        offset += ids
        ids = offset
    return np.bincount(ids, weights, minlength=k * width).reshape(k, width)


def fold_charges(
    charges: list, width: int, threads_per_rank: int, maps: VertexMaps
) -> np.ndarray:
    """Per-thread work of charges, one ``float64[width]`` row each.

    A charge starts ``(vertices, units)``: ``units[i]`` work units (one
    each when ``None``) on the thread of vertex ``vertices[i]``
    (``maps.thread``), except that units above ``maps.heavy_threshold`` are
    spread evenly over the threads of the vertex's rank instead
    (``maps.rank``; the paper's intra-node strategy: a heavy vertex's edges
    are partitioned among the node's threads).
    """
    t, k = threads_per_rank, len(charges)
    if not k:
        return np.zeros((0, width))
    sizes = np.array([c[0].size for c in charges])
    w = _weights([c[1] for c in charges], sizes)
    v = _cat([c[0] for c in charges])
    per_rank = None
    if maps.heavy_threshold < float("inf"):
        u = np.ones(v.size) if w is None else w
        heavy = u > maps.heavy_threshold
        if heavy.any():
            heavy_sizes = np.bincount(np.repeat(np.arange(k), sizes)[heavy], minlength=k)
            per_rank = _grid(
                maps.rank[v[heavy]], range(k), heavy_sizes, u[heavy], k, width // t
            )
            v, w, sizes = v[~heavy], u[~heavy], sizes - heavy_sizes
    grid = _grid(maps.thread[v], range(k), sizes, w, k, width)
    grid = grid.astype(np.float64, copy=False)
    if per_rank is not None:
        by_rank = grid.reshape(k, -1, t)
        by_rank += (per_rank / t)[:, :, None]
    return grid


def fold_compute(facts: list, width: int, threads_per_rank: int) -> np.ndarray:
    """Per-thread work of compute facts, one ``float64[width]`` row each.

    A fact starts ``(idx, units, spread)``: ``units[i]`` work units (one
    each when ``None``) on hardware thread ``idx[i]``, or, with ``idx``
    ``None``, per-rank work ``spread`` (``[P]`` counts or one number for
    every rank) divided evenly over each rank's threads — a bucket scan.
    """
    k = len(facts)
    at = [i for i, f in enumerate(facts) if f[0] is not None]
    if at:
        sizes = np.array([facts[i][0].size for i in at])
        w = _weights([facts[i][1] for i in at], sizes)
        grid = _grid(_cat([facts[i][0] for i in at]), at, sizes, w, k, width)
        grid = grid.astype(np.float64, copy=False)
    else:
        grid = np.zeros((k, width))
    scans = [(i, f[2]) for i, f in enumerate(facts) if f[2] is not None]
    if scans:
        _spread(grid, scans, threads_per_rank)
    return grid


def fold_exchange(
    routes: list, facts: list, num_ranks: int, maps: VertexMaps = VertexMaps()
) -> tuple[np.ndarray, np.ndarray]:
    """Per-rank ``(messages, bytes)``, ``int64[P]`` rows: one per route,
    then one per fact.

    A route starts ``(src, dst, record_bytes)``: one record from the owner
    of vertex ``src[i]`` to the owner of vertex ``dst[i]`` (``maps.rank``).
    A fact starts ``(lanes, counts, record_bytes)``: ``counts[i]`` records
    (one each when ``None``; exact below 2**53) on lane ``lanes[i] = src *
    P + dst``. Same-rank lanes — the diagonal of the ``P×P`` traffic grid —
    are free; a rank's bytes are its row plus its column, its messages one
    per lane with traffic (SPI aggregation).
    """
    p, every = num_ranks, routes + facts
    k = len(every)
    if not k:
        return np.zeros((2, 0, p), dtype=np.int64)
    sizes = np.array([f[0].size for f in every])
    lanes = [f[0] for f in facts]
    if routes:
        lane = maps.rank[_cat([r[0] for r in routes])]
        lane *= p
        lane += maps.rank[_cat([r[1] for r in routes])]
        lanes.insert(0, lane)
    w = _weights([None] * len(routes) + [f[1] for f in facts], sizes)
    grid = _grid(_cat(lanes), range(k), sizes, w, k, p * p)
    grid = grid.astype(np.int64, copy=False)
    grid[:, :: p + 1] = 0
    grid = grid.reshape(-1, p, p)
    record_bytes = np.array([f[2] for f in every], dtype=np.int64)
    msgs = (grid != 0).sum(axis=2)
    return msgs, (grid.sum(axis=2) + grid.sum(axis=1)) * record_bytes[:, None]


_ROW = np.dtype(
    [("comp_max", "f8"), ("comp_total", "f8"), ("msgs_max", "i8"),
     ("bytes_max", "i8"), ("bytes_total", "i8"), ("allreduces", "i8")]
)
"""The numeric columns of a ledger row — :class:`StepRecord`'s, in order."""


# Fact families, the slots of Metrics._pending: charges and routes name
# vertices, the other compute and exchange facts threads and lanes.
_CHARGE, _COMPUTE, _ROUTE, _EXCHANGE, _ALLREDUCE = range(5)


def _records(kinds, phases, rows) -> list[StepRecord]:
    """Ledger rows (tuples of :data:`_ROW`'s fields) as :class:`StepRecord`."""
    return [
        StepRecord(kind, *row, phase) for kind, phase, row in zip(kinds, phases, rows)
    ]


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
    per_bucket_stats: list[dict[str, int | str]] = field(default_factory=list)
    """One stats dict per processed bucket; the bucket counters are counts
    of its rows."""
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

    def __post_init__(self) -> None:
        # The ledger. A row's kind and phase kind are known when its fact
        # is queued; its numbers arrive with the fold (_rows grows to fit).
        self._kinds: list[str] = []
        self._phases: list[str] = []
        self._rows = np.zeros(0, dtype=_ROW)
        self._relaxations: dict[str, int] = {}
        # Pending facts by family, each ending in its ledger row; what
        # folding them costs; grid cells per fact of each family.
        self._pending: tuple[list, ...] = ([], [], [], [], [])
        self._queued = 0
        threads, lanes = self.num_ranks * self.threads_per_rank, self.num_ranks**2
        self._cells = (threads, threads, lanes, lanes, 1)
        self._view: list[StepRecord] | None = None  # `records`, until the next fact

    # ------------------------------------------------------------------
    # Recording API (called by algorithms and the communicator)
    # ------------------------------------------------------------------
    def _waits(self, size: int) -> bool:
        """Whether a fact of ``size`` elements is queued — the rule
        :meth:`_queue` applies; one that is not folds at once and keeps no
        array, so its caller need not copy."""
        return size <= LARGE_FACT and self.tracer is None

    def _queue(self, family: int, kind: str, phase_kind: str, size: int, *fact):
        if size > LARGE_FACT or self.tracer is not None:
            return self._fold_now(family, kind, phase_kind, fact)
        self._pending[family].append((*fact, len(self._kinds)))
        self._kinds.append(kind)
        self._phases.append(phase_kind)
        self._view = None
        self._queued += size + self._cells[family]
        if self._queued > FLUSH_BUDGET:
            self.settle()

    def _fold_now(self, family: int, kind: str, phase_kind: str, fact) -> None:
        """Fold ``fact`` at once, as a batch of one, into the next ledger row
        (queued facts hold theirs already). An armed tracer gets the row and
        the per-thread / per-rank arrays it came from, as from an eager
        reduction, at that moment."""
        tr = self.tracer
        if family in (_CHARGE, _COMPUTE):
            work = self._fold_work(family, [fact])[0]
            total = float(work.sum())
            row = (float(work.max()), total, 0, 0, 0, 0)
            relaxed = self._relaxed(kind, total) if fact[-1] else 0
            hook = tr and (tr.on_compute, work, relaxed)
        elif family in (_ROUTE, _EXCHANGE):
            if fact[0] is None:  # add_exchange: the per-rank arrays, ready
                msgs, byt = fact[1:]
            else:
                one = ([fact], []) if family == _ROUTE else ([], [fact])
                msgs, byt = (a[0] for a in fold_exchange(*one, self.num_ranks, self.maps))
            row = (0.0, 0.0, int(msgs.max()), int(byt.max()), int(byt.sum()) // 2, 0)
            hook = tr and (tr.on_exchange, msgs, byt)
        else:
            row, hook = (0.0, 0.0, 0, 0, 0, fact[0]), tr and (tr.on_allreduce,)
        at = len(self._kinds)
        self._room(at + 1)[at] = row
        self._kinds.append(kind)
        self._phases.append(phase_kind)
        self._view = None
        if hook:
            (rec,) = _records((kind,), (phase_kind,), (row,))
            hook[0](rec, *hook[1:])

    def _fold_work(self, family: int, facts: list) -> np.ndarray:
        """The per-thread work rows of charges or of compute facts."""
        width = self._cells[_COMPUTE]
        if family == _CHARGE:
            return fold_charges(facts, width, self.threads_per_rank, self.maps)
        return fold_compute(facts, width, self.threads_per_rank)

    def _reduced(self, family: int, facts: list) -> tuple[np.ndarray, np.ndarray]:
        """Max and total of every per-thread work row of ``facts``."""
        grid = self._fold_work(family, facts)
        return grid.max(axis=1), grid.sum(axis=1)

    def _room(self, end: int) -> np.ndarray:
        """The row store, grown (doubling) to hold ``end`` rows."""
        if end > self._rows.size:
            spare = np.zeros(end + self._rows.size, dtype=_ROW)
            self._rows = np.concatenate([self._rows, spare])
        return self._rows

    def _relaxed(self, kind: str, total: float) -> int:
        """Count a compute row's total work as relaxations of ``kind``."""
        count = int(round(total))
        self._relaxations[kind] += count
        return count

    def queue_charge(
        self, kind, vertices, units, phase_kind="other", count_as_relax=False
    ) -> None:
        """Queue the charge ``(vertices, units)`` of :func:`fold_charges`:
        ``units[i]`` work units (one each when ``None``) at vertex
        ``vertices[i]``. The ledger keeps copies of both and maps the
        vertices to threads and ranks when it folds, so an id outside the
        graph raises there. ``count_as_relax`` as for :meth:`queue_compute`."""
        name = kind._value_  # ``kind.value``, without the enum property's call
        if count_as_relax:
            self._relaxations.setdefault(name, 0)
        v, u = np.asarray(vertices), None if units is None else np.asarray(units)
        if self._waits(v.size):
            v, u = v.copy(), None if u is None else u.copy()
        self._queue(_CHARGE, name, phase_kind, v.size, v, u, count_as_relax)

    def queue_scan(self, spread) -> None:
        """Queue a bucket scan: per-rank vertex counts (``[P]``, the
        ledger's to keep, or one number for every rank) spread evenly over
        each rank's threads — the compute fact ``(None, None, spread)``."""
        self._queue(_COMPUTE, _BUCKET_SCAN, "bucket", 0, None, None, spread, False)

    def queue_compute(
        self, kind, idx, units, spread=None, *, phase_kind="other", count_as_relax=False
    ) -> None:
        """Queue the compute fact ``(idx, units, spread)`` of
        :func:`fold_compute` (``idx`` hardware threads, ``None`` for a
        spread alone). The ledger keeps the arrays until they fold, so they
        must be the caller's to give away — fresh gathers or copies.
        ``count_as_relax`` feeds the row's total work into the relaxation
        counter of ``kind`` (which takes its place among the counters now:
        rows may fold out of program order)."""
        if idx is not None and spread is not None:
            raise ValueError("a compute fact has thread ids or a spread, not both")
        if count_as_relax:
            self._relaxations.setdefault(kind.value, 0)
        size = 0 if idx is None else idx.size
        self._queue(
            _COMPUTE, kind.value, phase_kind, size, idx, units, spread, count_as_relax
        )

    def queue_route(self, src, dst, record_bytes: int, phase_kind="other") -> None:
        """Queue the route ``(src, dst, record_bytes)`` of
        :func:`fold_exchange`: one record from the owner of vertex
        ``src[i]`` to the owner of vertex ``dst[i]``. The ledger keeps
        copies of both and resolves the owners when it folds."""
        src, dst = np.asarray(src), np.asarray(dst)
        if src.shape != dst.shape:
            raise ValueError("source and destination vertices must align")
        if record_bytes < 0:
            raise ValueError("record_bytes must be non-negative")
        if self._waits(src.size):
            src, dst = src.copy(), dst.copy()
        self._queue(_ROUTE, "exchange", phase_kind, src.size, src, dst, record_bytes)

    def queue_delivery(
        self, src, dst, record_bytes: int, kind, phase_kind="other"
    ) -> None:
        """Queue a delivered superstep: the route ``(src, dst,
        record_bytes)`` of :meth:`queue_route`, then the charge of one unit
        of ``kind`` per record at vertex ``dst[i]``, counted as relaxations
        (:meth:`queue_charge`) — the two ledger rows they have always made.

        A superstep past :data:`LARGE_FACT` records folds both rows at once
        from one ``bincount`` of ``rank[src]·P·T + thread[dst]``: its
        ``(P, P, T)`` histogram summed over the threads is the lane grid,
        summed over the source rank the per-thread delivery work (a
        vertex's thread lies on its rank). Small supersteps, an armed
        tracer and a heavy threshold below one unit queue the two facts."""
        src, dst = np.asarray(src), np.asarray(dst)
        maps = self.maps
        if (
            src.size <= LARGE_FACT or self.tracer is not None
            or maps.heavy_threshold < 1 or maps.thread is None
        ):
            self.queue_route(src, dst, record_bytes, phase_kind)
            self.queue_charge(kind, dst, None, phase_kind, count_as_relax=True)
            return
        if src.shape != dst.shape:
            raise ValueError("source and destination vertices must align")
        if record_bytes < 0:
            raise ValueError("record_bytes must be non-negative")
        p, t = self.num_ranks, self.threads_per_rank
        key = maps.rank[src]
        key *= p * t
        key += maps.thread[dst]
        hist = np.bincount(key, minlength=p * p * t).reshape(p, p, t)
        # Two rank-space facts folded at once, as ``exchange_by_rank_counts``
        # and ``add_compute`` make theirs: lane counts, per-thread work.
        lanes = (np.arange(p * p), hist.sum(axis=2).ravel(), record_bytes)
        self._fold_now(_EXCHANGE, "exchange", phase_kind, lanes)
        self._relaxations.setdefault(kind._value_, 0)
        work = (np.arange(p * t), hist.sum(axis=0).ravel(), None, True)
        self._fold_now(_COMPUTE, kind._value_, phase_kind, work)

    def queue_exchange(
        self, lanes, counts, record_bytes: int, *, phase_kind: str = "other"
    ) -> None:
        """Queue the exchange fact ``(lanes, counts, record_bytes)`` of
        :func:`fold_exchange`; the arrays become the ledger's."""
        if record_bytes < 0:
            raise ValueError("record_bytes must be non-negative")
        self._queue(
            _EXCHANGE, "exchange", phase_kind, lanes.size, lanes, counts, record_bytes
        )

    def add_compute(
        self, kind: ComputeKind, thread_work, *, phase_kind="other", count_as_relax=None
    ) -> None:
        """Record compute distributed over hardware threads.

        ``thread_work`` is a flat array of length ``num_ranks *
        threads_per_rank`` with work units (typically edge counts) per
        thread. Its max determines the simulated step time; its sum feeds
        the relaxation counters.
        """
        thread_work = np.array(thread_work, dtype=np.float64)
        expected = self.num_ranks * self.threads_per_rank
        if thread_work.size != expected:
            raise ValueError(
                f"thread_work must have {expected} entries, got {thread_work.size}"
            )
        if count_as_relax is None:
            count_as_relax = kind in RELAX_KINDS
        self.queue_compute(
            kind, np.arange(expected), thread_work,
            phase_kind=phase_kind, count_as_relax=count_as_relax,
        )

    def add_exchange(self, msgs_per_rank, bytes_per_rank, *, phase_kind="other") -> None:
        """Record one all-to-all exchange from ready per-rank arrays."""
        msgs = np.array(msgs_per_rank, dtype=np.int64)
        byt = np.array(bytes_per_rank, dtype=np.int64)
        if not msgs.shape == byt.shape == (self.num_ranks,):
            raise ValueError(f"need {self.num_ranks} entries per array")
        self._fold_now(_EXCHANGE, "exchange", phase_kind, (None, msgs, byt))

    def add_allreduce(self, count: int = 1, *, phase_kind: str = "bucket") -> None:
        """Record ``count`` small allreduce operations."""
        self._queue(_ALLREDUCE, "allreduce", phase_kind, 0, count)

    def settle(self) -> None:
        """Fold every queued fact into its ledger row (no-op when none are):
        one :func:`fold_compute` and one :func:`fold_exchange` pass, each
        result landing in the row its fact reserved — program order. If a
        fold raises (an id out of range) the facts stay queued and every
        later reader raises too, rather than see rows left at zero."""
        if not self._queued:
            return
        charges, computes, routes, exchanges, allreduce = self._pending
        # Each grid is reduced to its rows' max and total and let go before
        # the next fold allocates: what a fold holds at once stays small.
        reduced = self._reduced(_CHARGE, charges), self._reduced(_COMPUTE, computes)
        most, totals = (np.concatenate(column) for column in zip(*reduced))
        msgs, byt = fold_exchange(routes, exchanges, self.num_ranks, self.maps)
        self._pending, self._queued = ([], [], [], [], []), 0
        rows = self._room(len(self._kinds))
        compute = charges + computes
        at = [f[-1] for f in compute]
        rows["comp_max"][at] = most
        rows["comp_total"][at] = totals
        relax = [i for i, f in enumerate(compute) if f[-2]]
        counts = np.rint(totals[relax]).astype(np.int64).tolist()  # round() each
        for i, count in zip(relax, counts):
            self._relaxations[self._kinds[at[i]]] += count
        at = np.array([f[-1] for f in routes + exchanges], dtype=np.intp)
        rows["msgs_max"][at] = msgs.max(axis=1)
        rows["bytes_max"][at] = byt.max(axis=1)
        # Each byte is counted at its source and at its destination.
        rows["bytes_total"][at] = byt.sum(axis=1) // 2
        rows["allreduces"][[f[-1] for f in allreduce]] = [f[0] for f in allreduce]

    def note_phase(self, kind: str, relaxations: int) -> None:
        """Record a paper-level phase and its relaxation count (Fig. 4 data)."""
        if kind not in _PHASE_KINDS:
            raise ValueError(f"unknown phase kind {kind!r}")
        self.per_phase_relaxations.append((kind, int(relaxations)))

    def note_bucket(self, stats: dict[str, int | str]) -> None:
        """Record per-bucket statistics (Fig. 7 census, push/pull choice)."""
        self.per_bucket_stats.append(stats)

    # The paper's counters (Figs. 3(a), 4 and 7): counts of the rows above.
    def _phases_of(self, kind: str) -> int:
        return sum(k == kind for k, _ in self.per_phase_relaxations)

    def _buckets_in(self, mode: str) -> int:
        return sum(s.get("mode") == mode for s in self.per_bucket_stats)

    short_phases = property(lambda self: self._phases_of("short"))
    long_phases = property(lambda self: self._phases_of("long"))
    bf_phases = property(lambda self: self._phases_of("bf"))
    recovery_phases = property(lambda self: self._phases_of("recovery"))
    buckets_processed = property(lambda self: len(self.per_bucket_stats))
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
            self._view = _records(kinds, phases, rows.tolist())
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
        return self.bytes_by_phase_kind().get("recovery", 0)

    def bytes_by_phase_kind(self) -> dict[str, int]:
        """Total bytes split by paper-level phase kind."""
        _, phases, rows = self.columns()
        moved = rows["bytes_total"]
        out: dict[str, int] = {}
        for row in np.flatnonzero(moved).tolist():
            out[phases[row]] = out.get(phases[row], 0) + int(moved[row])
        return out

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
