"""The vertex view every phase kernel runs over.

There is one :class:`VertexView` per solve and it spans the whole graph: it
*shares* the context's weight-sorted CSR arrays and short/long split table
(no copies) and owns the tentative-distance array, the settled flags, the
sorted active set and the unsettled set every step is chosen from.
The paper distributes vertices in contiguous blocks, so a rank is nothing
but a range ``[lo, hi)`` of these arrays
(``ctx.partition.boundaries``): the per-rank facts the accounting wants
(:func:`active_per_rank`, :func:`rank_cuts`) are ``searchsorted`` cuts of
sorted vertex ids at the boundaries, and rolling one rank back to a
snapshot (:meth:`VertexView.restore`) is a slice assignment.

What makes a solve *distributed* is therefore not the state but the
transport (:mod:`repro.core.transport`): a kernel computes a record from
the state of the record's source vertex alone, addresses it by destination
vertex, and learns about any other vertex only from what the transport's
``exchange`` hands back. ``tests/spmd/test_locality.py`` holds the kernels
to that rule with a mailbox that drops every cross-rank record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.distances import INF, init_distances
from repro.core.relax import apply_relaxations
from repro.runtime.comm import RELAX_RECORD_BYTES

__all__ = [
    "VertexView",
    "whole_graph_view",
    "rooted_whole_view",
    "active_per_rank",
    "rank_cuts",
    "relax_round",
]


@dataclass
class VertexView:
    """The state of one solve over all of a context's graph."""

    indptr: np.ndarray
    adj: np.ndarray
    weights: np.ndarray
    short_offsets: np.ndarray
    """Per-vertex count of short arcs (weight-sorted prefix)."""
    d: np.ndarray
    """Tentative distances."""
    settled: np.ndarray
    active: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    """Currently active vertices, sorted (hence grouped by rank)."""
    in_rows: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None
    """``(indptr, adj, weights, short_offsets)`` of the *incoming* arcs
    when they differ from the rows above: the reverse graph of a directed
    input. ``None`` on undirected graphs, where the symmetrized rows double
    as the in-arc lists."""
    inner_counts: np.ndarray | None = None
    """Under IOS, the context's prefix table
    (:meth:`~repro.core.context.ExecutionContext.inner_counts`): row
    ``u``, column ``b``, the number of ``u``'s short arcs lighter than
    ``b``. ``None`` when no short phase splits its arcs."""
    num_unsettled: int = field(init=False)
    """Unsettled vertices, kept current by every method that settles."""
    region: np.ndarray = field(init=False)
    """The reached unsettled vertices, in no order: :meth:`apply` appends
    what it lowers, :meth:`settle` only clears ``queued``, and
    :meth:`unsettled` drops the settled ids on read."""
    queued: np.ndarray = field(init=False)
    """``region``'s n-byte mask."""

    def __post_init__(self) -> None:
        self._retake()

    def _retake(self) -> None:
        """One O(n) pass: the unsettled set and count from ``d``/``settled``."""
        self.queued = ~self.settled & (self.d < INF)
        self.region = np.flatnonzero(self.queued)
        self.num_unsettled = self.d.size - int(np.count_nonzero(self.settled))

    def pull_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The rows the pull model scans: incoming arcs per vertex."""
        if self.in_rows is not None:
            return self.in_rows
        return self.indptr, self.adj, self.weights, self.short_offsets

    # ------------------------------------------------------------------
    def restore(
        self,
        d: np.ndarray,
        settled: np.ndarray,
        active: np.ndarray,
        lo: int = 0,
        hi: int | None = None,
    ) -> None:
        """Overwrite the vertex range ``[lo, hi)`` — everything by default,
        one rank's block on a crash restart — from whole-graph snapshot
        arrays: a slice assignment of ``d`` and ``settled`` and a splice of
        the range's part of the sorted ``active``. Nothing outside the
        range is written. Distances may rise, so the unsettled set and
        count are retaken."""
        hi = self.d.size if hi is None else hi
        self.d[lo:hi] = d[lo:hi]
        self.settled[lo:hi] = settled[lo:hi]
        mine, theirs = self.active, active
        (a, b), (c, e) = mine.searchsorted((lo, hi)), theirs.searchsorted((lo, hi))
        self.active = np.concatenate((mine[:a], theirs[c:e], mine[b:]))
        self._retake()

    def unsettled(self) -> np.ndarray:
        """The reached unsettled vertices, in no order."""
        self.region = self.region[self.queued[self.region]]
        return self.region

    def members(self, step) -> np.ndarray:
        """Unsettled vertices inside the step's window (sorted)."""
        ids = self.unsettled()
        d = self.d[ids]
        inside = ids[(d >= step.lo) & (d < step.hi)]
        inside.sort()  # a fresh compress: sorted in place
        return inside

    def later(self, hi: int) -> np.ndarray:
        """Unsettled vertices at or past ``hi`` (B-infinity included)."""
        return np.nonzero(~self.settled & (self.d >= hi))[0]

    def settle(self, members: np.ndarray) -> None:
        self.settled[members] = True
        self.queued[members] = False
        self.num_unsettled -= int(members.size)

    def settle_reached(self) -> None:
        """Everything reached is settled — the close of a Bellman-Ford
        fixpoint, whoever ran it (the hybrid tail, a degraded deadline, the
        healing sweep). Written in place, so whatever shares ``settled``
        sees it."""
        np.less(self.d, INF, out=self.settled)
        self._retake()

    def apply(
        self, dst: np.ndarray, nd: np.ndarray, window: tuple[int, int] | None = None
    ) -> np.ndarray:
        """Min-apply received records; returns the changed vertices — with
        ``window=(lo, hi)`` only those whose new distance lies inside it
        (the short phase's next active set). Every relaxation site ends
        here, so the unsettled set follows the changed set instead of
        per-step rescans: whatever is not queued yet joins ``region``."""
        changed = apply_relaxations(self.d, dst, nd)
        if not changed.size:
            return changed
        fresh = changed[~self.queued[changed]]
        if fresh.size:
            self.queued[fresh] = True
            self.region = np.concatenate((self.region, fresh))
        if window is not None:
            d_changed = self.d[changed]
            lo, hi = window
            changed = changed[(d_changed >= lo) & (d_changed < hi)]
        return changed


def whole_graph_view(
    ctx, d: np.ndarray, settled: np.ndarray, active: np.ndarray | None = None
) -> VertexView:
    """The view over ``ctx.graph``, sharing its arrays (no copies).

    ``d`` and ``settled`` are the caller's arrays and are updated in place.
    On a directed graph the view also carries the reverse graph's rows for
    the pull phase; under IOS it carries the prefix table, built here by
    the graph's first solve if nothing built it before.
    """
    graph = ctx.graph
    in_rows = None
    if ctx.reverse_graph is not None:
        rev = ctx.reverse_graph
        in_rows = (rev.indptr, rev.adj, rev.weights, ctx.reverse_short_offsets)
    return VertexView(
        indptr=graph.indptr,
        adj=graph.adj,
        weights=graph.weights,
        short_offsets=ctx.short_offsets,
        d=d,
        settled=settled,
        active=np.empty(0, np.int64) if active is None else active,
        in_rows=in_rows,
        inner_counts=ctx.inner_counts(),
    )


def rooted_whole_view(ctx, root: int) -> VertexView:
    """A fresh view at the start of a solve from ``root``: what both
    drivers hand to :func:`~repro.core.phases.drive`."""
    n = ctx.graph.num_vertices
    return whole_graph_view(
        ctx,
        init_distances(n, root),
        np.zeros(n, dtype=bool),
        np.array([root], dtype=np.int64),
    )


# ----------------------------------------------------------------------
# Per-rank facts, read off the partition boundaries
# ----------------------------------------------------------------------
def rank_cuts(ctx, ids: np.ndarray) -> np.ndarray:
    """Cut positions of sorted vertex ``ids`` at the rank boundaries: rank
    ``r``'s ids are ``ids[cuts[r]:cuts[r + 1]]``.

    Float partial sums are folded per rank block in rank order — what a
    rank of a distributed run would add up before the allreduce — and that
    is what keeps the push/pull estimate the float it has always been.
    """
    return ids.searchsorted(ctx.partition.boundaries)


def active_per_rank(ctx, view: VertexView) -> np.ndarray:
    """Active-vertex count of every rank, in rank order."""
    cuts = rank_cuts(ctx, view.active)
    return cuts[1:] - cuts[:-1]  # np.diff, without its Python-level wrapper


def relax_round(
    ctx, view: VertexView, transport, kind, vertices, units, *,
    phase_kind: str, window: tuple[int, int] | None = None,
) -> tuple[np.ndarray, int]:
    """Close one relaxation superstep whose records have been sent:
    generation charge (``units[i]`` arcs examined at ``vertices[i]``),
    delivery (the exchange and its application charge: one unit per
    delivered record at its destination's thread, counted as relaxations),
    phase note, min-apply —
    the sequence every relaxing phase shares. Returns the changed vertices
    (see :meth:`VertexView.apply` for ``window``) and the record count."""
    ctx.charge(kind, vertices, units, phase_kind=phase_kind)
    dst, nd = transport.deliver(RELAX_RECORD_BYTES, kind, phase_kind=phase_kind)
    relaxed = int(dst.size)
    ctx.metrics.note_phase(phase_kind, relaxed)
    return view.apply(dst, nd, window), relaxed
