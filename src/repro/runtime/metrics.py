"""Execution counters for the simulated runtime.

Every algorithm run produces a :class:`Metrics` instance: a *step ledger*
with one row per compute/communication/synchronization event, in program
order (:class:`StepRecord` is a row as an object), plus aggregate counters
(relaxations by category, phases, buckets). The cost model
(:mod:`repro.runtime.costmodel`) consumes the rows; the benchmark harness
consumes the aggregates — these are exactly the statistics the paper plots
(number of relaxations, number of phases and buckets, communication
volume, load balance).

Accounting calls reduce nothing on the spot. They queue a *fact* — the
arrays a row is reduced from — and :meth:`Metrics.settle` folds all queued
facts of a family in one vectorised pass (:func:`fold_compute`,
:func:`fold_exchange`). Every reader settles first (DESIGN.md §9 rule 4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

__all__ = ["ComputeKind", "StepRecord", "RecoveryStats", "Metrics"]
__all__ += ["fold_compute", "fold_exchange"]


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


def _rows_bincount(ids: list, weights: list, width: int) -> np.ndarray:
    """Grid whose row ``i`` is ``bincount(ids[i], weights[i], minlength=
    width)`` (``None`` weights: one per id), from one ``bincount`` over
    row-offset ids. Within a cell, weights add in input order either way.
    An id outside ``[0, width)`` raises, as it does for a row on its own."""
    k = len(ids)
    if k == 0:
        return np.zeros((0, width), dtype=np.int64)
    flat, w = ids[0], weights[0]
    if k > 1:
        sizes = [a.size for a in ids]
        flat = np.concatenate(ids)
        if flat.size and not 0 <= flat.min() <= flat.max() < width:
            raise ValueError(f"fact ids must lie in [0, {width})")
        flat += np.repeat(np.arange(0, k * width, width), sizes)
        if any(x is not None for x in weights):
            w = np.concatenate(
                [np.ones(n) if x is None else x for x, n in zip(weights, sizes)]
            )
    return np.bincount(flat, weights=w, minlength=k * width).reshape(k, width)


def fold_compute(facts: list, width: int, threads_per_rank: int) -> np.ndarray:
    """Per-thread work of compute facts, one ``float64[width]`` row each.

    A fact starts ``(idx, units, spread)``: ``units[i]`` work units (one
    each when ``None``) on hardware thread ``idx[i]``, plus per-rank work
    ``spread`` (``float64[P]`` or ``None``) divided evenly over each rank's
    threads — a bucket scan, or the heavy vertices of intra-node balancing.
    """
    grid = _rows_bincount([f[0] for f in facts], [f[1] for f in facts], width)
    grid = grid.astype(np.float64, copy=False)
    spread = [i for i, f in enumerate(facts) if f[2] is not None]
    if spread:
        per_rank = np.zeros((len(facts), width // threads_per_rank))
        for i in spread:
            per_rank[i] = facts[i][2]
        by_rank = grid.reshape(len(facts), -1, threads_per_rank)
        by_rank += (per_rank / threads_per_rank)[:, :, None]
    return grid


def fold_exchange(facts: list, num_ranks: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-rank ``(messages, bytes)`` of exchange facts, ``int64[P]`` rows.

    A fact starts ``(lanes, counts, record_bytes)``: ``counts[i]`` records
    (one each when ``None``; exact below 2**53) on lane ``lanes[i] = src *
    P + dst``. Same-rank lanes — the diagonal of the ``P×P`` traffic grid —
    are free; a rank's bytes are its row plus its column, its messages one
    per lane with traffic (SPI aggregation).
    """
    p = num_ranks
    grid = _rows_bincount([f[0] for f in facts], [f[1] for f in facts], p * p)
    grid = grid.astype(np.int64, copy=False)
    grid[:, :: p + 1] = 0
    grid = grid.reshape(-1, p, p)
    record_bytes = np.array([f[2] for f in facts], dtype=np.int64)
    msgs = (grid != 0).sum(axis=2)
    return msgs, (grid.sum(axis=2) + grid.sum(axis=1)) * record_bytes[:, None]


_ROW = np.dtype(
    [("comp_max", "f8"), ("comp_total", "f8"), ("msgs_max", "i8"),
     ("bytes_max", "i8"), ("bytes_total", "i8"), ("allreduces", "i8")]
)
"""The numeric columns of a ledger row — :class:`StepRecord`'s, in order."""


_COMPUTE, _EXCHANGE, _ALLREDUCE = range(3)  # fact families: slots of Metrics._pending


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

    # Aggregate counters ------------------------------------------------
    short_phases: int = 0
    long_phases: int = 0
    bf_phases: int = 0
    recovery_phases: int = 0
    buckets_processed: int = 0
    pull_buckets: int = 0
    push_buckets: int = 0
    hybrid_switch_bucket: int = -1
    degraded_to_bf: bool = False
    """True when the watchdog's ``degrade`` policy collapsed the remaining
    buckets into a final Bellman-Ford pass. Surfaced in :meth:`summary` as
    ``degraded`` so report consumers can exclude such runs from comparable
    rows instead of silently mixing them in."""
    per_phase_relaxations: list[tuple[str, int]] = field(default_factory=list)
    per_bucket_stats: list[dict[str, int | str]] = field(default_factory=list)
    recovery: RecoveryStats = field(default_factory=RecoveryStats)
    """Fault-tolerance overhead (all zero unless faults were injected)."""
    tracer: object | None = field(default=None, repr=False, compare=False)
    """Optional :class:`repro.obs.tracer.Tracer` notified of every record
    (set by ``make_context`` when tracing is configured; duck-typed so the
    runtime never imports :mod:`repro.obs`). While one is armed every fact
    folds as it is queued, so the hooks fire at the moments, and with the
    per-thread/per-rank arrays, of an eager reduction."""

    def __post_init__(self) -> None:
        # The ledger. A row's kind and phase kind are known when its fact
        # is queued; its numbers arrive with the fold (_rows grows to fit).
        self._kinds: list[str] = []
        self._phases: list[str] = []
        self._rows = np.zeros(0, dtype=_ROW)
        self._relaxations: dict[str, int] = {}
        # Pending facts by family, each ending in its ledger row; what
        # folding them costs; grid cells per fact of each family.
        self._pending: tuple[list, list, list] = ([], [], [])
        self._queued = 0
        self._cells = (self.num_ranks * self.threads_per_rank, self.num_ranks**2, 1)
        self._view: list[StepRecord] | None = None  # `records`, until the next fact

    # ------------------------------------------------------------------
    # Recording API (called by algorithms and the communicator)
    # ------------------------------------------------------------------
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
        if family == _COMPUTE:
            work = fold_compute([fact], self._cells[_COMPUTE], self.threads_per_rank)[0]
            total = float(work.sum())
            row = (float(work.max()), total, 0, 0, 0, 0)
            relaxed = self._relaxed(kind, total) if fact[3] else 0
            hook = tr and (tr.on_compute, work, relaxed)
        elif family == _EXCHANGE:
            if fact[0] is None:  # add_exchange: the per-rank arrays, ready
                msgs, byt = fact[1:]
            else:
                msgs, byt = (a[0] for a in fold_exchange([fact], self.num_ranks))
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

    def queue_compute(
        self, kind, idx, units, spread=None, *, phase_kind="other", count_as_relax=False
    ) -> None:
        """Queue the compute fact ``(idx, units, spread)`` of
        :func:`fold_compute`. The ledger keeps the arrays until they fold,
        so they must be the caller's to give away — fresh gathers or
        copies. ``count_as_relax`` feeds the row's total work into the
        relaxation counter of ``kind`` (which takes its place among the
        counters now: rows may fold out of program order)."""
        if count_as_relax:
            self._relaxations.setdefault(kind.value, 0)
        self._queue(
            _COMPUTE, kind.value, phase_kind, idx.size, idx, units, spread, count_as_relax
        )

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
        compute, exchange, allreduce = self._pending
        grid = fold_compute(compute, self._cells[_COMPUTE], self.threads_per_rank)
        msgs, byt = fold_exchange(exchange, self.num_ranks)
        self._pending, self._queued = ([], [], []), 0
        rows = self._room(len(self._kinds))
        at = [f[-1] for f in compute]
        totals = grid.sum(axis=1)
        rows["comp_max"][at] = grid.max(axis=1)
        rows["comp_total"][at] = totals
        for f, total in zip(compute, totals.tolist()):
            if f[3]:
                self._relaxed(self._kinds[f[-1]], total)
        at = [f[-1] for f in exchange]
        rows["msgs_max"][at] = msgs.max(axis=1)
        rows["bytes_max"][at] = byt.max(axis=1)
        # Each byte is counted at its source and at its destination.
        rows["bytes_total"][at] = byt.sum(axis=1) // 2
        rows["allreduces"][[f[-1] for f in allreduce]] = [f[0] for f in allreduce]

    def note_phase(self, kind: str, relaxations: int) -> None:
        """Record a paper-level phase and its relaxation count (Fig. 4 data)."""
        if kind == "short":
            self.short_phases += 1
        elif kind == "long":
            self.long_phases += 1
        elif kind == "bf":
            self.bf_phases += 1
        elif kind == "recovery":
            self.recovery_phases += 1
        else:
            raise ValueError(f"unknown phase kind {kind!r}")
        self.per_phase_relaxations.append((kind, int(relaxations)))

    def note_bucket(self, stats: dict[str, int | str]) -> None:
        """Record per-bucket statistics (Fig. 7 census, push/pull choice)."""
        self.buckets_processed += 1
        mode = stats.get("mode")
        if mode == "pull":
            self.pull_buckets += 1
        elif mode == "push":
            self.push_buckets += 1
        self.per_bucket_stats.append(stats)

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
        return (
            self.short_phases
            + self.long_phases
            + self.bf_phases
            + self.recovery_phases
        )

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
