"""Typed edge-update batches for live graphs.

A live graph evolves through :class:`UpdateBatch` objects: atomic sets of
edge inserts, deletes and reweights against a fixed vertex universe.
Applying a batch (:func:`apply_batch`) produces a brand-new immutable
:class:`~repro.graph.csr.CSRGraph` — snapshots never share mutable state —
plus an :class:`EdgeDelta`, the arc-level diff the incremental repair
(:mod:`repro.dynamic.repair`) seeds its changed-vertex frontier from.

An update costs what it touches. A snapshot's arcs are strictly
increasing under the packed key ``tail * n + head`` (:class:`ArcIndex`;
a graph that is not — the weight-sorted seed — is put in that order
once, by the builder's own :func:`~repro.graph.builder.compact_edges`),
so everything a batch needs is a ``searchsorted`` of the keys it names:

- validation and the delta read the old weight of exactly the touched
  keys (O(batch · log m));
- the new CSR is a *splice* (:func:`splice_arcs`): keep-mask at the
  removal keys, ``np.insert`` of the key-sorted additions, ``indptr``
  from the per-row degree change — no edge list, no membership test
  over all arcs, no sort of anything but the batch. The same function
  carries the versioner's weight-sorted context graph forward under the
  key ``(tail, weight, head)``.

The delta states each touched arc once, as ``(tail, head, old_weight,
new_weight)`` with ``INF`` for *absent*, and offers the two views repair
reads:

- **improved** arcs — present in the new graph with a strictly smaller
  weight than before (or newly present): direct relaxation seeds;
- **worsened** arcs — present in the old graph with a strictly smaller
  weight than now (or removed): damage seeds for the orphaned-subtree
  re-anchoring pass. Worsened arcs carry their *old* weights, because the
  damage test asks which old shortest-path certificates died.

For undirected graphs every update names an undirected edge ``{u, v}``
and both constituent arcs appear in the delta.

:func:`random_update_batch` is the seeded churn generator the serving
benchmarks and the CI ``dynamic-smoke`` job replay: deletes and reweights
sample existing edges, inserts rejection-sample vacant vertex pairs, all
from one :class:`numpy.random.Generator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.distances import INF
from repro.graph.builder import compact_edges
from repro.graph.csr import CSRGraph

__all__ = [
    "UpdateBatch",
    "EdgeDelta",
    "ArcIndex",
    "splice_arcs",
    "apply_batch",
    "random_update_batch",
]


def _as_ids(values, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return arr


@dataclass(frozen=True)
class UpdateBatch:
    """One atomic batch of edge updates.

    All arrays are ``int64`` and parallel within their operation kind.
    For undirected graphs each ``(tail, head)`` pair names the undirected
    edge ``{tail, head}``; orientation is irrelevant and both directed
    arcs are affected.

    Validation at construction covers what is graph-independent (shapes,
    self-loops, negative weights, duplicate keys across operations);
    :meth:`validate_against` adds the graph-dependent checks (ids in
    range, deletes/reweights naming existing edges, inserts naming vacant
    pairs).
    """

    insert_tails: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    insert_heads: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    insert_weights: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    delete_tails: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    delete_heads: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    reweight_tails: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    reweight_heads: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    reweight_weights: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

    def __post_init__(self) -> None:
        for name in (
            "insert_tails",
            "insert_heads",
            "insert_weights",
            "delete_tails",
            "delete_heads",
            "reweight_tails",
            "reweight_heads",
            "reweight_weights",
        ):
            object.__setattr__(self, name, _as_ids(getattr(self, name), name))
        if not (
            self.insert_tails.shape
            == self.insert_heads.shape
            == self.insert_weights.shape
        ):
            raise ValueError("insert arrays must align")
        if self.delete_tails.shape != self.delete_heads.shape:
            raise ValueError("delete arrays must align")
        if not (
            self.reweight_tails.shape
            == self.reweight_heads.shape
            == self.reweight_weights.shape
        ):
            raise ValueError("reweight arrays must align")
        for tails, heads in (
            (self.insert_tails, self.insert_heads),
            (self.delete_tails, self.delete_heads),
            (self.reweight_tails, self.reweight_heads),
        ):
            if tails.size and np.any(tails == heads):
                raise ValueError("self-loop updates are not allowed")
        for weights in (self.insert_weights, self.reweight_weights):
            if weights.size and weights.min() < 0:
                raise ValueError("edge weights must be non-negative")

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, *, inserts=None, deletes=None, reweights=None) -> "UpdateBatch":
        """Construct from ``(tails, heads[, weights])`` triples/pairs."""
        it, ih, iw = inserts if inserts is not None else ((), (), ())
        dt, dh = deletes if deletes is not None else ((), ())
        rt, rh, rw = reweights if reweights is not None else ((), (), ())
        return cls(it, ih, iw, dt, dh, rt, rh, rw)

    @property
    def num_inserts(self) -> int:
        return int(self.insert_tails.size)

    @property
    def num_deletes(self) -> int:
        return int(self.delete_tails.size)

    @property
    def num_reweights(self) -> int:
        return int(self.reweight_tails.size)

    @property
    def size(self) -> int:
        """Total number of edge operations in the batch."""
        return self.num_inserts + self.num_deletes + self.num_reweights

    @property
    def is_empty(self) -> bool:
        return self.size == 0

    # ------------------------------------------------------------------
    def _keys(self, num_vertices: int, undirected: bool) -> dict[str, np.ndarray]:
        """Packed ``tail * n + head`` keys per op kind (canonicalised when
        undirected so both orientations of one edge collide)."""

        def pack(tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
            if undirected:
                lo = np.minimum(tails, heads)
                hi = np.maximum(tails, heads)
                return lo * num_vertices + hi
            return tails * num_vertices + heads

        return {
            "insert": pack(self.insert_tails, self.insert_heads),
            "delete": pack(self.delete_tails, self.delete_heads),
            "reweight": pack(self.reweight_tails, self.reweight_heads),
        }

    def validate_against(self, graph: CSRGraph) -> None:
        """Raise ``ValueError`` unless the batch is well-formed for ``graph``.

        Checks: vertex ids in range, no edge named twice (within or across
        operation kinds, counting both orientations for undirected graphs),
        deletes and reweights name existing edges, inserts name vacant pairs.
        """
        self._validate(ArcIndex(graph))

    def _validate(self, arcs: "ArcIndex") -> None:
        """:meth:`validate_against` on the key view the caller already built."""
        n = arcs.num_vertices
        for name, arr in (
            ("insert", self.insert_tails),
            ("insert", self.insert_heads),
            ("delete", self.delete_tails),
            ("delete", self.delete_heads),
            ("reweight", self.reweight_tails),
            ("reweight", self.reweight_heads),
        ):
            if arr.size and (arr.min() < 0 or arr.max() >= n):
                raise ValueError(f"{name} vertex ids out of range [0, {n})")
        keys = self._keys(n, arcs.undirected)
        combined = np.concatenate([keys["insert"], keys["delete"], keys["reweight"]])
        if combined.size != np.unique(combined).size:
            raise ValueError("batch names the same edge more than once")
        existing = arcs.weights_of(np.concatenate([keys["delete"], keys["reweight"]]))
        if np.any(existing >= INF):
            raise ValueError("delete/reweight names an edge absent from the graph")
        inserted = arcs.weights_of(keys["insert"])
        if np.any(inserted < INF):
            raise ValueError(
                "insert names an edge already present (use a reweight instead)"
            )


class ArcIndex:
    """A graph's arcs under the strictly increasing key ``tail * n + head``.

    The one view of the old graph an update reads: :meth:`weights_of` is
    a ``searchsorted``, and ``indptr``/``keys``/``adj``/``weights`` are
    what :func:`splice_arcs` edits. A snapshot minted by
    :func:`apply_batch` is already in this order and its arrays are used
    as they are; any other graph (the weight-sorted seed, hand-made
    arrays with parallel arcs or self-loops) goes once through
    :func:`~repro.graph.builder.compact_edges`, the canonical form every
    freshly built graph has.
    """

    __slots__ = ("num_vertices", "undirected", "indptr", "keys", "adj", "weights")

    def __init__(self, graph: CSRGraph) -> None:
        n = graph.num_vertices
        tails, adj, weights, indptr = (
            graph.arc_tails(), graph.adj, graph.weights, graph.indptr
        )
        keys = tails * n + adj
        if np.any(keys[1:] <= keys[:-1]) or np.any(tails == adj):
            tails, adj, weights = compact_edges(tails, adj, weights)
            keys = tails * n + adj
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
        self.num_vertices = n
        self.undirected = graph.undirected
        self.indptr, self.keys, self.adj, self.weights = indptr, keys, adj, weights

    def weights_of(self, keys: np.ndarray) -> np.ndarray:
        """Weight of the arc with key ``tail * n + head`` per entry, ``INF``
        where the graph has no such arc. For undirected graphs a
        canonicalised ``(min, max)`` key finds the edge whenever it exists:
        the symmetrized arc set holds both orientations."""
        out = np.full(keys.size, INF, dtype=np.int64)
        if self.keys.size:
            pos = np.minimum(np.searchsorted(self.keys, keys), self.keys.size - 1)
            hit = self.keys[pos] == keys
            out[hit] = self.weights[pos[hit]]
        return out


def splice_arcs(indptr, keys, columns, remove_keys, add_keys, add_columns, row_stride):
    """Remove and insert arcs of a CSR whose arcs strictly increase under
    the packed integer ``keys`` (row = ``key // row_stride``).

    ``columns`` are the per-arc arrays to carry along (``adj``,
    ``weights``); every entry of ``remove_keys`` must be present in
    ``keys``, ``add_keys`` must be distinct and absent from what is
    kept, ``add_columns`` aligned with it. Returns ``(indptr, columns)``
    of the spliced CSR, in the same key order. Work beyond the two array
    copies is O(batch · log m): nothing is sorted or searched but the
    batch.
    """
    n = indptr.size - 1
    gone = np.sort(np.searchsorted(keys, remove_keys))
    keep = np.ones(keys.size, dtype=bool)
    keep[gone] = False
    # Insertion points among the kept arcs: the position in the old
    # array less the removed arcs before it.
    order = np.argsort(add_keys)
    at = np.searchsorted(keys, add_keys[order])
    at -= np.searchsorted(gone, at)
    degrees = np.diff(indptr)
    degrees += np.bincount(add_keys // row_stride, minlength=n)
    degrees -= np.bincount(remove_keys // row_stride, minlength=n)
    new_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=new_indptr[1:])
    return new_indptr, tuple(
        np.insert(col[keep], at, new[order]) for col, new in zip(columns, add_columns)
    )


@dataclass(frozen=True)
class EdgeDelta:
    """Arc-level diff between two consecutive snapshots, one row per arc
    the batch touched: ``(tail, head, old_weight, new_weight)`` with
    ``INF`` for *absent* (``old`` of an insert, ``new`` of a delete). For
    undirected graphs both orientations of every touched edge are
    present, each with its own old weight.

    Two views are what repair reads. ``improved_*`` arcs exist in the new
    graph with a weight strictly below their old one and carry the *new*
    weight — they are direct relaxation seeds.
    ``worsened_*`` arcs existed in the old graph with a weight strictly
    below their new one and carry the *old* weight — they are the
    candidate dead shortest-path certificates the damage pass starts
    from. A reweight to the same weight is in neither.
    """

    tails: np.ndarray
    heads: np.ndarray
    old_weights: np.ndarray
    new_weights: np.ndarray

    @property
    def _improved(self) -> np.ndarray:
        return self.new_weights < self.old_weights

    @property
    def _worsened(self) -> np.ndarray:
        return self.old_weights < self.new_weights

    @property
    def improved_tails(self) -> np.ndarray:
        return self.tails[self._improved]

    @property
    def improved_heads(self) -> np.ndarray:
        return self.heads[self._improved]

    @property
    def improved_weights(self) -> np.ndarray:
        return self.new_weights[self._improved]

    @property
    def worsened_tails(self) -> np.ndarray:
        return self.tails[self._worsened]

    @property
    def worsened_heads(self) -> np.ndarray:
        return self.heads[self._worsened]

    @property
    def worsened_weights(self) -> np.ndarray:
        return self.old_weights[self._worsened]

    @property
    def num_improved(self) -> int:
        return int(np.count_nonzero(self._improved))

    @property
    def num_worsened(self) -> int:
        return int(np.count_nonzero(self._worsened))

    @property
    def is_empty(self) -> bool:
        return self.num_improved + self.num_worsened == 0

    @classmethod
    def composed(cls, deltas) -> "EdgeDelta":
        """The net diff across consecutive snapshots' ``deltas`` (oldest
        first): one row per arc any of them touched, carrying the first
        row's old weight and the last row's new weight — what
        :func:`apply_batch` would have reported had one batch made every
        change. An arc back at its first weight (inserted then deleted,
        reweighted there and back) keeps a row with ``old == new``, which
        like a same-weight reweight is neither improved nor worsened."""
        if len(deltas) == 1:
            return deltas[0]
        tails, heads, old, new = (
            np.concatenate([getattr(d, name) for d in deltas])
            for name in ("tails", "heads", "old_weights", "new_weights")
        )
        # Arc and delta ordinal in one key: a delta names an arc once, so
        # the keys are unique and any sort leaves an arc's rows oldest first.
        stride = int(max(tails.max(initial=0), heads.max(initial=0))) + 1
        ordinal = np.repeat(np.arange(len(deltas)), [d.tails.size for d in deltas])
        key = (tails * stride + heads) * len(deltas) + ordinal
        order = np.argsort(key)
        arc = key[order] // len(deltas)
        first = np.flatnonzero(np.r_[True, arc[1:] != arc[:-1]][: arc.size])
        last = np.r_[first[1:] - 1, arc.size - 1][: first.size]
        rows = order[first]
        return cls(tails[rows], heads[rows], old[rows], new[order[last]])


def apply_batch(graph: CSRGraph, batch: UpdateBatch) -> tuple[CSRGraph, EdgeDelta]:
    """Apply ``batch`` to ``graph``; return ``(new_graph, delta)``.

    The new graph is the old one's key-sorted arcs (:class:`ArcIndex`)
    with the delta's removals (``old < INF``) cut out and its additions
    (``new < INF``) spliced in (:func:`splice_arcs`) — array for array
    what rebuilding the edge list through
    :func:`~repro.graph.builder.from_edges` gives, at the cost of the
    batch plus two array copies. It is **not** weight-sorted — snapshot
    consumers sort on context creation exactly like cold starts do, or
    carry the parent's sorted graph forward (the versioner). The vertex
    universe is fixed: updates never add or remove vertices.
    """
    arcs = ArcIndex(graph)
    batch._validate(arcs)
    n = arcs.num_vertices
    tails = np.concatenate([batch.insert_tails, batch.delete_tails, batch.reweight_tails])
    heads = np.concatenate([batch.insert_heads, batch.delete_heads, batch.reweight_heads])
    new_w = np.concatenate([
        batch.insert_weights,
        np.full(batch.num_deletes, INF, dtype=np.int64),
        batch.reweight_weights,
    ])
    if graph.undirected:  # both orientations of every named edge
        tails, heads = np.concatenate([tails, heads]), np.concatenate([heads, tails])
        new_w = np.concatenate([new_w, new_w])
    keys = tails * n + heads
    delta = EdgeDelta(tails, heads, arcs.weights_of(keys), new_w)
    removed, added = delta.old_weights < INF, new_w < INF
    indptr, (adj, weights) = splice_arcs(
        arcs.indptr, arcs.keys, (arcs.adj, arcs.weights),
        keys[removed], keys[added], (heads[added], new_w[added]), n,
    )
    return CSRGraph(indptr, adj, weights, undirected=graph.undirected), delta


def random_update_batch(
    graph: CSRGraph,
    rng: np.random.Generator,
    *,
    churn_fraction: float = 0.01,
    insert_fraction: float = 0.34,
    delete_fraction: float = 0.33,
    max_weight: int | None = None,
) -> UpdateBatch:
    """Seeded churn: a random valid batch touching ``churn_fraction`` of edges.

    Deletes and reweights sample distinct existing edges; inserts
    rejection-sample vacant vertex pairs (and are dropped, not retried
    forever, if the graph is too dense to place them). Weight draws are
    uniform in ``[1, max_weight]`` (default: the graph's current max
    weight, or 16 on an edgeless graph). Determinism: one ``rng`` stream,
    fixed draw order.
    """
    if not 0.0 <= insert_fraction <= 1.0 or not 0.0 <= delete_fraction <= 1.0:
        raise ValueError("operation fractions must be in [0, 1]")
    if insert_fraction + delete_fraction > 1.0:
        raise ValueError("insert_fraction + delete_fraction must be <= 1")
    if churn_fraction <= 0.0:
        raise ValueError("churn_fraction must be positive")
    n = graph.num_vertices
    m = graph.num_undirected_edges if graph.undirected else graph.num_arcs
    w_hi = int(max_weight) if max_weight is not None else max(graph.max_weight, 1)
    w_hi = max(w_hi, 1)
    ops = max(1, int(round(churn_fraction * m)))
    want_insert = int(round(ops * insert_fraction))
    want_delete = int(round(ops * delete_fraction))
    want_reweight = max(ops - want_insert - want_delete, 0)

    # --- existing-edge sample (deletes + reweights), distinct edges ----
    tails, heads = graph.arc_tails(), graph.adj
    if graph.undirected:
        fwd = tails < heads
        tails, heads = tails[fwd], heads[fwd]
    existing = np.sort(tails * n + heads)  # the vacancy test of every insert
    take = min(want_delete + want_reweight, tails.size)
    picked = (
        rng.choice(tails.size, size=take, replace=False)
        if take
        else np.empty(0, dtype=np.int64)
    )
    picked = np.sort(picked)
    num_delete = min(want_delete, take)
    del_idx = picked[:num_delete]
    rew_idx = picked[num_delete:]
    rew_w = (
        rng.integers(1, w_hi + 1, size=rew_idx.size, dtype=np.int64)
        if rew_idx.size
        else np.empty(0, dtype=np.int64)
    )

    # --- inserts: vacant pairs, distinct from each other -----------------
    ins_t: list[int] = []
    ins_h: list[int] = []
    chosen = set()
    attempts = 0
    limit = 20 * max(want_insert, 1) + 10
    while len(ins_t) < want_insert and attempts < limit and n >= 2:
        attempts += 1
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u == v:
            continue
        key = min(u, v) * n + max(u, v) if graph.undirected else u * n + v
        if key in chosen:
            continue
        pos = np.searchsorted(existing, key)
        if pos < existing.size and existing[pos] == key:
            continue
        chosen.add(key)
        ins_t.append(u)
        ins_h.append(v)
    ins_w = (
        rng.integers(1, w_hi + 1, size=len(ins_t), dtype=np.int64)
        if ins_t
        else np.empty(0, dtype=np.int64)
    )

    return UpdateBatch(
        insert_tails=np.asarray(ins_t, dtype=np.int64),
        insert_heads=np.asarray(ins_h, dtype=np.int64),
        insert_weights=ins_w,
        delete_tails=tails[del_idx],
        delete_heads=heads[del_idx],
        reweight_tails=tails[rew_idx],
        reweight_heads=heads[rew_idx],
        reweight_weights=rew_w,
    )
