"""The vertex view every phase kernel runs over.

A :class:`VertexView` is what one participant of the bulk-synchronous
algorithm holds: the adjacency rows of a contiguous vertex block
(weight-sorted, with the short/long split offsets), that block's slice of
the tentative-distance array and its settled flags. Global vertex ids
appear only as *addresses* (arc heads, message destinations) — a view
never reads a distance outside its block.

Two constructors make the two execution modes out of the one type:

- :func:`build_rank_states` slices the graph into one view per rank
  (``lo``/``hi`` the rank's block; the rows are read-only slices of the
  graph's arrays, what a rank owns and writes is ``d``, ``settled`` and
  ``active``) — the SPMD driver's state, which talks through a
  :class:`~repro.spmd.mailbox.Mailbox`;
- :func:`whole_graph_view` is a single view spanning ``[0, n)`` that
  *shares* the context's CSR arrays and split table — the orchestrated
  driver's state, which declares its traffic through a
  :class:`~repro.core.transport.DeclaredTransport`.

A list of views handed to a kernel is therefore either one view per rank,
in rank order, or one view spanning every rank; the few per-rank facts a
whole-graph view must still produce (:func:`active_per_rank`,
:func:`rank_cuts`) come from cutting its sorted ids at the partition
boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.bucket_index import BucketIndex
from repro.core.buckets import NO_BUCKET
from repro.core.distances import INF, init_distances
from repro.core.relax import apply_relaxations
from repro.graph.csr import CSRGraph
from repro.graph.partition import ContiguousPartition

__all__ = [
    "VertexView",
    "build_rank_states",
    "whole_graph_view",
    "rooted_whole_view",
    "active_per_rank",
    "rank_cuts",
    "cat",
    "gathered",
    "charge_generated",
    "charge_received",
    "relax_round",
]


@dataclass
class VertexView:
    """Everything the owner of vertex block ``[lo, hi)`` holds."""

    rank: int
    lo: int
    hi: int
    indptr: np.ndarray
    """Local CSR offsets for the owned rows (length ``hi - lo + 1``)."""
    adj: np.ndarray
    """Arc heads as *global* vertex ids (addresses, not state)."""
    weights: np.ndarray
    short_offsets: np.ndarray
    """Per-owned-vertex count of short arcs (weight-sorted prefix)."""
    d: np.ndarray
    """Local tentative distances (length ``hi - lo``)."""
    settled: np.ndarray
    active: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    """Local indices of currently active vertices."""
    index: BucketIndex | None = None
    """Incremental bucket index over the local slice (``attach_index``)."""
    in_rows: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None
    """``(indptr, adj, weights, short_offsets)`` of the *incoming* arcs
    when they differ from the owned rows: the reverse graph of a directed
    input, which only a whole-graph view can hold. ``None`` on undirected
    graphs, where the symmetrized rows double as the in-arc lists."""
    num_unsettled: int = field(init=False)
    """Unsettled vertices of the block, kept current by :meth:`settle`."""

    def __post_init__(self) -> None:
        self._count_unsettled()

    def _count_unsettled(self) -> None:
        self.num_unsettled = self.num_local - int(np.count_nonzero(self.settled))

    @property
    def num_local(self) -> int:
        return self.hi - self.lo

    def to_global(self, local: np.ndarray) -> np.ndarray:
        return local + self.lo if self.lo else local

    def to_local(self, global_ids: np.ndarray) -> np.ndarray:
        return global_ids - self.lo if self.lo else global_ids

    def local_degrees(self, local: np.ndarray) -> np.ndarray:
        return self.indptr[local + 1] - self.indptr[local]

    def pull_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The rows the pull model scans: incoming arcs per owned vertex."""
        if self.in_rows is not None:
            return self.in_rows
        return self.indptr, self.adj, self.weights, self.short_offsets

    # ------------------------------------------------------------------
    def attach_index(self, delta: int) -> None:
        """Build the incremental bucket index over the current local state."""
        self.index = BucketIndex(delta, self.d, self.settled)

    def restore(self, d: np.ndarray, settled: np.ndarray, active: np.ndarray) -> None:
        """Overwrite the state from a checkpoint (distances may rise, so
        the index is rebuilt and the unsettled count retaken)."""
        self.d[:] = d
        self.settled[:] = settled
        self.active = active
        if self.index is not None:
            self.index.rebuild(self.d, self.settled)
        self._count_unsettled()

    def min_unsettled_bucket(self) -> int:
        """Local next-bucket candidate of the index (INF marker when none)."""
        k = self.index.min_bucket()
        return int(INF) if k == NO_BUCKET else int(k)

    def members(self, step) -> np.ndarray:
        """Unsettled local vertices inside the step's window (sorted)."""
        if self.index is not None:
            return self.index.members(step.key)
        mask = (self.d >= step.lo) & (self.d < step.hi) & ~self.settled
        return np.nonzero(mask)[0]

    def later(self, hi: int) -> np.ndarray:
        """Unsettled local vertices at or past ``hi`` (B-infinity included)."""
        return np.nonzero(~self.settled & (self.d >= hi))[0]

    def settle(self, members: np.ndarray) -> None:
        self.settled[members] = True
        self.num_unsettled -= int(members.size)
        if self.index is not None:
            self.index.on_settled(members)

    def apply(
        self, dst: np.ndarray, nd: np.ndarray, window: tuple[int, int] | None = None
    ) -> np.ndarray:
        """Min-apply received records to the local slice; returns the
        changed locals — with ``window=(lo, hi)`` only those whose new
        distance lies inside it (the short phase's next active set). Every
        relaxation site ends here, so the bucket index follows the changed
        set instead of per-epoch rescans; the new distances are gathered
        once for the index and the window both."""
        changed = apply_relaxations(self.d, self.to_local(dst), nd)
        if not changed.size or (self.index is None and window is None):
            return changed
        d_changed = self.d[changed]
        if self.index is not None:
            self.index.on_relaxed(changed, self.d, d_changed)
        if window is not None:
            lo, hi = window
            changed = changed[(d_changed >= lo) & (d_changed < hi)]
        return changed


def build_rank_states(
    graph: CSRGraph,
    partition: ContiguousPartition,
    delta: int,
    root: int,
    *,
    short_offsets: np.ndarray | None = None,
) -> list[VertexView]:
    """Slice a weight-sorted graph into one view per rank.

    The rows (``adj``, ``weights``, ``short_offsets``) are slices of the
    graph's arrays, not copies: no kernel writes them, and a solve does not
    duplicate the graph. Only ``indptr`` is rebased; ``d``, ``settled`` and
    ``active`` are the rank's own. ``short_offsets`` is
    ``graph.short_edge_offsets(delta)`` where the caller holds it already
    (a context's ``short_offsets``)."""
    short = graph.short_edge_offsets(delta) if short_offsets is None else short_offsets
    states: list[VertexView] = []
    for rank in range(partition.num_ranks):
        lo, hi = partition.rank_range(rank)
        row_ptr = graph.indptr[lo : hi + 1]
        base = row_ptr[0]
        local_indptr = (row_ptr - base).astype(np.int64)
        d = np.full(hi - lo, INF, dtype=np.int64)
        settled = np.zeros(hi - lo, dtype=bool)
        active = np.empty(0, dtype=np.int64)
        if lo <= root < hi:
            d[root - lo] = 0
            active = np.array([root - lo], dtype=np.int64)
        states.append(
            VertexView(
                rank=rank,
                lo=lo,
                hi=hi,
                indptr=local_indptr,
                adj=graph.adj[base : row_ptr[-1]],
                weights=graph.weights[base : row_ptr[-1]],
                short_offsets=short[lo:hi],
                d=d,
                settled=settled,
                active=active,
            )
        )
    return states


def whole_graph_view(
    ctx, d: np.ndarray, settled: np.ndarray, active: np.ndarray | None = None
) -> VertexView:
    """One view over all of ``ctx.graph``, sharing its arrays (no copies).

    ``d`` and ``settled`` are the caller's global arrays and are updated in
    place. On a directed graph the view also carries the reverse graph's
    rows for the pull phase.
    """
    graph = ctx.graph
    in_rows = None
    if ctx.reverse_graph is not None:
        rev = ctx.reverse_graph
        in_rows = (rev.indptr, rev.adj, rev.weights, ctx.reverse_short_offsets)
    return VertexView(
        rank=0,
        lo=0,
        hi=graph.num_vertices,
        indptr=graph.indptr,
        adj=graph.adj,
        weights=graph.weights,
        short_offsets=ctx.short_offsets,
        d=d,
        settled=settled,
        active=np.empty(0, np.int64) if active is None else active,
        in_rows=in_rows,
    )


def rooted_whole_view(ctx, root: int) -> VertexView:
    """A fresh whole-graph view at the start of a solve from ``root``."""
    n = ctx.graph.num_vertices
    return whole_graph_view(
        ctx,
        init_distances(n, root),
        np.zeros(n, dtype=bool),
        np.array([root], dtype=np.int64),
    )


# ----------------------------------------------------------------------
# Folding per-view facts into the global ones the accounting wants
# ----------------------------------------------------------------------
def active_per_rank(ctx, views: list[VertexView]) -> np.ndarray:
    """Active-vertex count of every rank, in rank order."""
    if len(views) == 1:
        cuts = views[0].active.searchsorted(ctx.partition.boundaries)
        return cuts[1:] - cuts[:-1]
    return np.array([v.active.size for v in views], dtype=np.int64)


def rank_cuts(ctx, views: list[VertexView], ids: np.ndarray) -> np.ndarray:
    """Cut positions of one view's sorted local ``ids`` at the boundaries
    of the ranks it spans: rank ``r``'s ids are ``ids[cuts[r]:cuts[r+1]]``.

    Float partial sums must be folded per rank block in rank order whatever
    the view layout — that is what keeps the push/pull choice bit-identical
    between the drivers — so a whole-graph view cuts at the partition
    boundaries here, and a rank view is its own single block.
    """
    if len(views) > 1:
        return np.array([0, ids.size])
    return ids.searchsorted(ctx.partition.boundaries)


def cat(parts: list[np.ndarray]) -> np.ndarray:
    """Per-view arrays as one, in view order; a whole-graph view's single
    array is handed through uncopied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def gathered(views: list[VertexView], name: str) -> np.ndarray:
    """The global ``d`` or ``settled`` array: a whole-graph view's own
    array, the concatenated slices otherwise."""
    return cat([getattr(v, name) for v in views])


def charge_generated(
    ctx,
    kind,
    per_view: list[tuple[np.ndarray, np.ndarray]],
    *,
    phase_kind: str,
) -> None:
    """Record-generation charge: fold per-view (global vertex ids, units)
    into one compute record."""
    ctx.charge(
        kind,
        cat([vertices for vertices, _ in per_view]),
        cat([units for _, units in per_view]),
        phase_kind=phase_kind,
    )


def charge_received(ctx, kind, inboxes, *, phase_kind: str) -> int:
    """Record-application charge: one unit per delivered record at its
    destination's thread, counted as relaxations. Returns the record count."""
    dst = cat([box[0] for box in inboxes])
    ctx.charge(kind, dst, None, phase_kind=phase_kind, count_as_relax=True)
    return int(dst.size)


def relax_round(
    ctx, transport, kind, per_view, record_bytes: int, *, phase_kind: str
) -> tuple[list[tuple[np.ndarray, ...]], int]:
    """Close one relaxation superstep whose records the views have sent:
    generation charge, exchange, application charge, phase note — the
    accounting sequence every relaxing phase shares. Returns the per-view
    inboxes and the record count."""
    charge_generated(ctx, kind, per_view, phase_kind=phase_kind)
    inboxes = transport.deliver(record_bytes, phase_kind=phase_kind)
    relaxed = charge_received(ctx, kind, inboxes, phase_kind=phase_kind)
    ctx.metrics.note_phase(phase_kind, relaxed)
    return inboxes, relaxed
