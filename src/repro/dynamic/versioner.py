"""Snapshot-versioned graphs: immutable lineage with bounded retention.

:class:`GraphVersioner` owns the mutation history of one live graph.
Every :meth:`~GraphVersioner.apply` call runs an
:class:`~repro.dynamic.updates.UpdateBatch` through
:func:`~repro.dynamic.updates.apply_batch` and mints a new
:class:`GraphSnapshot` — an immutable ``(snapshot_id, CSRGraph, digest,
parent_id, delta)`` record. Snapshot ids are dense integers starting at
0 (the seed graph); they are the version half of every
``(snapshot_id, root)`` distance-cache key and the ``snapshot_id``
field on wide events.

Three serving-plane needs shape the class:

- **Structural digests** — a SHA-256 over the CSR arrays plus the
  directedness flag, computed lazily and memoised. Two snapshots with
  equal digests are byte-identical graphs, which is what replay
  verification and cross-process cache audits compare.
- **Bounded retention** — only the newest ``retention`` snapshots stay
  resident (graphs, contexts, digests); asking for a retired snapshot
  raises ``KeyError``. A snapshot's *delta* outlives it: the newest
  :attr:`~GraphVersioner.reach` deltas are kept (four integers per
  touched arc, no graph), and :meth:`~GraphVersioner.delta_between`
  composes them into the net diff from an ancestor up to ``reach``
  updates back — what lets an answer cached under a snapshot that has
  since retired still be repaired onto a resident one.
- **Pins** — a snapshot somebody still reads must outlive the window.
  :meth:`pin` / :meth:`unpin` count readers per snapshot (the broker
  pins once per in-flight request, and once for its serving pointer);
  retention evicts only unpinned snapshots, and a pinned one keeps its
  graph, memoised context and digest. Every retired id is reported
  exactly once — by the :meth:`apply` that pushed it out of the window,
  or by the :meth:`unpin` that released it — so the caller can evict
  dependent state (cache entries, solvers).

:meth:`context_for` memoises one preprocessed
:class:`~repro.core.context.ExecutionContext` per resident snapshot —
the short-long split / partition work is paid once per snapshot, not per
repair — and the weight sort once per *lineage*: while the parent's
context is resident, a snapshot's weight-sorted graph is the parent's
with the snapshot's delta spliced in under the key ``(tail, weight,
head)`` (:func:`~repro.dynamic.updates.splice_arcs`), which is the order
the stable weight sort gives head-sorted rows.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass

import numpy as np

from repro.core.distances import INF
from repro.dynamic.updates import EdgeDelta, UpdateBatch, apply_batch, splice_arcs
from repro.graph.csr import CSRGraph

__all__ = ["GraphSnapshot", "GraphVersioner", "structural_digest"]


def structural_digest(graph: CSRGraph) -> str:
    """SHA-256 hex digest of the CSR arrays and the directedness flag.

    Canonical over graph *structure*: two graphs with identical
    ``indptr``/``adj``/``weights``/``undirected`` digest equally
    regardless of how they were constructed or whether they have been
    weight-sorted (sorting produces a different graph object and a
    different digest — digest the snapshot graph, not derived views).
    """
    h = hashlib.sha256()
    h.update(b"csr-v1")
    h.update(b"U" if graph.undirected else b"D")
    for arr in (graph.indptr, graph.adj, graph.weights):
        h.update(arr.tobytes())
    return h.hexdigest()


def _sorted_from_parent(parent_sorted: CSRGraph, snapshot: "GraphSnapshot") -> CSRGraph | None:
    """``snapshot.graph.sorted_by_weight()`` made from the parent's by
    splicing ``snapshot.delta``, or None when that cannot be done exactly.

    A canonical (head-sorted, duplicate-free) graph weight-sorted by the
    stable sort has its arcs strictly increasing under ``(tail, weight,
    head)``; the delta's removals are found and its additions placed
    under that packed key. None when the key does not fit 62 bits, the
    parent's arcs do not strictly increase under it, or the spliced rows
    are not the snapshot's (a parent holding arcs the canonical form
    drops) — the caller sorts from scratch then.
    """
    delta = snapshot.delta
    n = parent_sorted.num_vertices
    removed, added = delta.old_weights < INF, delta.new_weights < INF
    span = max(parent_sorted.max_weight, int(delta.new_weights[added].max(initial=0))) + 1
    if 2 * n.bit_length() + span.bit_length() > 62:
        return None
    stride = span * n
    keys = parent_sorted.arc_tails() * stride + parent_sorted.weights * n + parent_sorted.adj
    if np.any(keys[1:] <= keys[:-1]):
        return None
    touched = delta.tails * stride + delta.heads
    indptr, (adj, weights) = splice_arcs(
        parent_sorted.indptr, keys, (parent_sorted.adj, parent_sorted.weights),
        touched[removed] + delta.old_weights[removed] * n,
        touched[added] + delta.new_weights[added] * n,
        (delta.heads[added], delta.new_weights[added]), stride,
    )
    if not np.array_equal(indptr, snapshot.graph.indptr):
        return None
    return CSRGraph(indptr, adj, weights, parent_sorted.undirected, _sorted_by_weight=True)


@dataclass(frozen=True)
class GraphSnapshot:
    """One immutable version of the live graph.

    ``delta`` and ``batch`` describe the transition *from* ``parent_id``
    (both ``None`` on the seed snapshot 0).
    """

    snapshot_id: int
    graph: CSRGraph
    parent_id: int | None = None
    delta: EdgeDelta | None = None
    batch: UpdateBatch | None = None


class GraphVersioner:
    """Mint and retain snapshot-versioned graphs.

    Parameters
    ----------
    graph:
        The seed graph; becomes snapshot 0.
    machine, config:
        What every :meth:`context_for` context is built for.
    retention:
        How many snapshots (newest-first) stay resident. Must be >= 1.

    Thread safety: one state lock guards the tables (snapshots, pins,
    memos) and is only ever held for a dictionary operation, so ``pin``
    on the request path never waits for an update; the slow work
    (``apply``'s graph splice, a context build, a digest) runs under a
    separate build lock, one at a time. Readers only ever observe a
    fully-minted snapshot.
    """

    def __init__(self, graph: CSRGraph, *, machine, config, retention: int = 4):
        if retention < 1:
            raise ValueError("retention must be >= 1")
        self._lock = threading.RLock()
        self._build_lock = threading.Lock()
        self._machine = machine
        self._config = config
        self.retention = int(retention)
        #: how many updates back :meth:`delta_between` can start from the
        #: current snapshot: the ``retention - 1`` hops of the residency
        #: window, and as many again on deltas alone (0 at ``retention=1``)
        self.reach = 2 * (self.retention - 1)
        self._snapshots: dict[int, GraphSnapshot] = {}  # ascending ids
        self._contexts: dict[int, object] = {}
        self._digests: dict[int, str] = {}
        self._deltas: dict[int, EdgeDelta] = {}  # the newest ``reach`` ids
        self._pins: dict[int, int] = {}
        self._current_id = 0
        self._snapshots[0] = GraphSnapshot(snapshot_id=0, graph=graph)

    # ------------------------------------------------------------------
    def _evict(self, candidates) -> list[int]:
        """Drop every candidate that is outside the retention window (the
        newest ``retention`` ids) and unpinned; returns the dropped ids."""
        floor = self._current_id - self.retention
        retired = [
            sid for sid in candidates if sid <= floor and sid not in self._pins
        ]
        for sid in retired:
            del self._snapshots[sid]
            self._contexts.pop(sid, None)
            self._digests.pop(sid, None)
        return retired

    def pin(self, snapshot_id: int) -> None:
        """Keep ``snapshot_id`` resident until the matching :meth:`unpin`."""
        with self._lock:
            if snapshot_id not in self._snapshots:
                self.get(snapshot_id)  # raises: not resident
            self._pins[snapshot_id] = self._pins.get(snapshot_id, 0) + 1

    def unpin(self, snapshot_id: int) -> list[int]:
        """Drop one pin. Returns the ids this retired: ``[snapshot_id]``
        when it was the last pin of a snapshot already outside the
        retention window, else ``[]``."""
        with self._lock:
            left = self._pins.get(snapshot_id, 0) - 1
            if left < 0:
                raise ValueError(f"snapshot {snapshot_id} is not pinned")
            if left:
                self._pins[snapshot_id] = left
                return []
            del self._pins[snapshot_id]
            return self._evict((snapshot_id,))

    # ------------------------------------------------------------------
    def delta_between(self, ancestor_id: int, snapshot_id: int) -> EdgeDelta:
        """The net :class:`EdgeDelta` from ``ancestor_id`` to its
        descendant ``snapshot_id``; ``KeyError`` when a delta on the way
        is no longer (or was never) kept."""
        with self._lock:
            links = [self._deltas[s] for s in range(ancestor_id + 1, snapshot_id + 1)]
        return EdgeDelta.composed(links)

    @property
    def current_id(self) -> int:
        with self._lock:
            return self._current_id

    @property
    def current(self) -> GraphSnapshot:
        with self._lock:
            return self._snapshots[self._current_id]

    def ids(self) -> list[int]:
        """Resident snapshot ids, oldest first."""
        with self._lock:
            return list(self._snapshots)

    def __contains__(self, snapshot_id: int) -> bool:
        with self._lock:
            return snapshot_id in self._snapshots

    def get(self, snapshot_id: int) -> GraphSnapshot:
        with self._lock:
            try:
                return self._snapshots[snapshot_id]
            except KeyError:
                raise KeyError(
                    f"snapshot {snapshot_id} is not resident "
                    f"(retention={self.retention}, resident={list(self._snapshots)})"
                ) from None

    # ------------------------------------------------------------------
    def apply(self, batch: UpdateBatch) -> tuple[GraphSnapshot, list[int]]:
        """Apply ``batch`` to the current snapshot; mint and return the new one.

        Returns ``(snapshot, retired_ids)`` where ``retired_ids`` are the
        unpinned snapshots evicted by retention (oldest first) — the
        caller owns the cleanup of any state keyed on them.
        """
        with self._build_lock:
            parent = self.current
            new_graph, delta = apply_batch(parent.graph, batch)
            snap = GraphSnapshot(
                snapshot_id=parent.snapshot_id + 1, graph=new_graph,
                parent_id=parent.snapshot_id, delta=delta, batch=batch,
            )
            with self._lock:
                self._snapshots[snap.snapshot_id] = snap
                self._current_id = snap.snapshot_id
                self._deltas[snap.snapshot_id] = delta
                self._deltas.pop(snap.snapshot_id - self.reach, None)
                return snap, self._evict(list(self._snapshots))

    # ------------------------------------------------------------------
    def _memo(self, table: dict, snapshot_id: int | None, build):
        """``table[snapshot_id]`` (default: current), built from the
        snapshot outside the state lock on first use and kept for as long
        as the snapshot is resident."""
        with self._lock:
            sid = self._current_id if snapshot_id is None else snapshot_id
            snapshot = self.get(sid)
            if sid in table:
                return table[sid]
        with self._build_lock:
            with self._lock:
                if sid in table:  # built while this caller waited
                    return table[sid]
            value = build(snapshot)
            with self._lock:
                if sid in self._snapshots:
                    table[sid] = value
            return value

    def digest(self, snapshot_id: int | None = None) -> str:
        """Structural digest of ``snapshot_id`` (default: current), memoised."""
        return self._memo(
            self._digests, snapshot_id, lambda snap: structural_digest(snap.graph)
        )

    def context_for(self, snapshot_id: int | None = None):
        """Memoised :func:`~repro.core.context.make_context` per snapshot,
        for the versioner's machine and config.

        While the parent's context is resident the snapshot's
        weight-sorted graph is spliced from the parent's
        (:func:`_sorted_from_parent`) and ``make_context`` skips its
        sort; otherwise — the seed, an evicted parent — it sorts
        ``snapshot.graph`` as a cold start does. Either way the context
        is field for field the same.
        """
        from repro.core.context import make_context

        def build(snapshot):
            with self._lock:
                parent = self._contexts.get(snapshot.parent_id)
            graph = None
            if parent is not None:
                graph = _sorted_from_parent(parent.graph, snapshot)
            if graph is None:
                graph = snapshot.graph
            return make_context(graph, self._machine, self._config)

        return self._memo(self._contexts, snapshot_id, build)
