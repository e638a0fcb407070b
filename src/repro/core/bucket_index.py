"""Incremental bucket index: membership and min-bucket without rescans.

Both engines historically recomputed bucket membership and the next
non-empty bucket by scanning the *entire* distance array every epoch
(``bucket_members``/``next_bucket``), an O(n·#epochs) overhead the paper's
Blue Gene/Q implementation never pays. Dong et al.'s *Efficient Stepping
Algorithms* (LazyBatchedPQ) and shared-memory Δ-stepping implementations
drive the bucket structure from the *changed-vertex set* instead — which
:func:`repro.core.relax.apply_relaxations` already returns.

:class:`BucketIndex` is that structure. It maintains, per vertex, the
bucket it currently lives in (``NO_BUCKET`` for unreached or settled
vertices), plus lazily-compacted per-bucket candidate batches, exact
per-bucket cardinalities and a lazy min-heap of non-empty bucket ids. The
cost of every update is proportional to the number of vertices that
actually changed — unchanged vertices are never touched.

Laziness, in both senses used here:

- **Membership batches** — a vertex moving into bucket ``b`` is appended
  to ``pending[b]`` without removing the stale entry it may have left in
  its previous bucket's batch; :meth:`members` filters stale entries on
  read (``bucket_of[v] == k`` is ground truth) and compacts the result
  back, so repeated reads stay cheap.
- **Min-heap** — a bucket id is pushed when its count turns positive and
  never eagerly removed; :meth:`min_bucket` pops stale heads (count gone
  to zero) on read. Distances are monotone non-increasing between
  rebuilds, so the amortised heap traffic is O(#distinct buckets).

**Grouping a batch.** Most batches enter or leave one bucket and take the
single-bucket exits. A long phase's movers scatter over ``max_weight / Δ``
buckets; they are grouped by one stable sort of their bucket keys, whose
runs (:func:`_runs`) are the per-bucket groups and counts — no second
sort to count them, and nothing sized by the key *range*, which at Δ = 1
with 40-bit weights is 2**40 wide: every allocation here is O(batch).

The index is exact: :meth:`members` returns byte-identical output to
:func:`repro.core.buckets.bucket_members` and :meth:`min_bucket` to
:func:`repro.core.buckets.next_bucket` — the paranoid guard
(:meth:`repro.runtime.guards.InvariantGuards.check_bucket_index`)
cross-checks exactly that equivalence against the from-scratch scan after
every epoch. State restores (crash rollback, checkpoint resume) may
lawfully *raise* distances; callers handle those by :meth:`rebuild`.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.buckets import NO_BUCKET
from repro.core.distances import INF
from repro.util.ranges import sorted_unique_ids

__all__ = ["BucketIndex"]


def _runs(sorted_keys: np.ndarray) -> tuple[list[int], list[int]]:
    """Runs of equal values in a sorted, non-empty key array: the distinct
    keys and the run bounds (run ``i`` is ``[bounds[i], bounds[i + 1])``).

    Everything allocated is O(batch): the keys are bucket ids as far apart
    as ``max_weight / Δ``, so nothing here may be sized by their range (a
    ``bincount`` over ``key - key.min()`` would be)."""
    cuts = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1])
    cuts += 1
    bounds = [0, *cuts.tolist(), sorted_keys.size]
    return sorted_keys[bounds[:-1]].tolist(), bounds


class BucketIndex:
    """Incrementally-maintained bucket membership for one distance array.

    Parameters
    ----------
    delta:
        Bucket width Δ (vertex with distance ``d`` lives in ``d // Δ``).
    d:
        Tentative distances the index starts from.
    settled:
        Optional settled flags; settled vertices hold no bucket.
    """

    def __init__(
        self,
        delta: int,
        d: np.ndarray,
        settled: np.ndarray | None = None,
    ) -> None:
        if delta < 1:
            raise ValueError("delta must be >= 1")
        self.delta = int(delta)
        self._bucket_of: np.ndarray = np.empty(0, dtype=np.int64)
        self._pending: dict[int, list[np.ndarray]] = {}
        self._counts: dict[int, int] = {}
        self._heap: list[int] = []
        self._clean: set[int] = set()
        """Buckets whose single pending batch is exactly the sorted live
        membership (no stale entries, no duplicates): :meth:`members` can
        return it without filtering. Invalidated by any append or retire."""
        self.rebuild(d, settled)

    # ------------------------------------------------------------------
    def rebuild(self, d: np.ndarray, settled: np.ndarray | None = None) -> None:
        """Reinitialise from scratch (one O(n) pass).

        Used at construction and after state restores (crash rollback,
        checkpoint resume), where distances may lawfully have risen.
        """
        live = d < INF
        if settled is not None:
            live &= ~settled
        self._bucket_of = np.where(live, d // self.delta, np.int64(NO_BUCKET))
        self._pending = {}
        self._counts = {}
        live_v = np.nonzero(live)[0].astype(np.int64)
        if live_v.size:
            buckets = self._bucket_of[live_v]
            order = np.argsort(buckets, kind="stable")
            uniq, counts = np.unique(buckets, return_counts=True)
            grouped = live_v[order]
            start = 0
            for b, end in zip(uniq.tolist(), np.cumsum(counts).tolist()):
                self._counts[b] = end - start
                self._pending[b] = [grouped[start:end]]
                start = end
        self._heap = sorted(self._counts)
        # Every rebuilt batch is sorted live membership by construction.
        self._clean = set(self._counts)

    # ------------------------------------------------------------------
    def _retire(self, b: int, c: int) -> None:
        """Retire ``c`` memberships from bucket ``b``."""
        left = self._counts[b] - c
        if left:
            self._counts[b] = left
            # Departed vertices leave stale entries in the batch.
            self._clean.discard(b)
        else:
            # Empty bucket: drop its count and stale candidate batches;
            # its heap entry dies lazily in min_bucket().
            del self._counts[b]
            self._pending.pop(b, None)
            self._clean.discard(b)

    def _decrement(self, old_b: np.ndarray) -> None:
        """Retire one membership per entry of ``old_b`` (non-empty) that
        names a bucket; ``NO_BUCKET`` entries held none."""
        was_indexed = old_b != NO_BUCKET
        indexed = np.count_nonzero(was_indexed)
        if not indexed:
            return
        ordered = np.sort(old_b if indexed == old_b.size else old_b[was_indexed])
        if ordered[0] == ordered[-1]:
            # Common case: the whole batch leaves one bucket.
            self._retire(int(ordered[0]), indexed)
            return
        keys, bounds = _runs(ordered)
        for b, start, end in zip(keys, bounds, bounds[1:]):
            self._retire(b, end - start)

    def on_relaxed(
        self, changed: np.ndarray, d: np.ndarray, d_changed: np.ndarray | None = None
    ) -> None:
        """Distances of ``changed`` (sorted unique, unsettled) vertices
        dropped.

        ``d_changed`` is ``d[changed]`` where the caller has gathered it
        already (:meth:`~repro.core.views.VertexView.apply`). When every
        vertex moved, ``changed`` itself becomes a candidate batch: like
        the arrays :meth:`members` hands out, it is shared, not copied, and
        must not be written to afterwards."""
        changed = np.asarray(changed, dtype=np.int64)
        if changed.size == 0:
            return
        new_b = (d[changed] if d_changed is None else d_changed) // self.delta
        old_b = self._bucket_of[changed]
        moved = new_b != old_b
        movers = np.count_nonzero(moved)
        if not movers:
            # Vertices stayed in their bucket — already indexed; nothing to do.
            return
        if movers == changed.size:
            mv, mb = changed, new_b
        else:
            mv, mb, old_b = changed[moved], new_b[moved], old_b[moved]
        self._bucket_of[mv] = mb
        self._decrement(old_b)
        if not np.count_nonzero(mb != mb[0]):
            # Common case: every mover lands in one target bucket.
            self._insert(int(mb[0]), movers, mv)
            return
        # Movers scatter over several buckets: one stable sort of the
        # bucket keys groups them (each group keeps its ascending vertex
        # order) and the runs of the sorted keys are the groups.
        order = np.argsort(mb, kind="stable")
        keys, bounds = _runs(mb[order])
        grouped = mv[order]
        for b, start, end in zip(keys, bounds, bounds[1:]):
            self._insert(b, end - start, grouped[start:end])

    def _insert(self, b: int, c: int, chunk: np.ndarray) -> None:
        """Admit ``c`` new members (``chunk``, sorted unique) to bucket ``b``."""
        if b in self._counts:
            self._counts[b] += c
            self._pending[b].append(chunk)
            self._clean.discard(b)
        else:
            self._counts[b] = c
            self._pending[b] = [chunk]
            self._clean.add(b)
            heapq.heappush(self._heap, b)

    def on_settled(self, vertices: np.ndarray) -> None:
        """``vertices`` settled: they leave their buckets for good."""
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size == 0:
            return
        old_b = self._bucket_of[vertices]
        self._bucket_of[vertices] = NO_BUCKET
        self._decrement(old_b)

    # ------------------------------------------------------------------
    def min_bucket(self) -> int:
        """Smallest non-empty bucket index (``NO_BUCKET`` when none)."""
        heap = self._heap
        while heap:
            b = heap[0]
            if b in self._counts:
                return b
            heapq.heappop(heap)
        return NO_BUCKET

    def members(self, k: int) -> np.ndarray:
        """Sorted unsettled vertices in bucket ``k``.

        Byte-identical to ``bucket_members(d, settled, k, delta)``. Stale
        candidates are filtered against ``bucket_of`` and the surviving set
        is compacted back, so repeated reads of one bucket stay cheap.
        """
        k = int(k)
        if k in self._clean:
            # The single batch is exactly the sorted live membership.
            return self._pending[k][0]
        batches = self._pending.get(k)
        if not batches:
            return np.empty(0, dtype=np.int64)
        cand = batches[0] if len(batches) == 1 else np.concatenate(batches)
        out = sorted_unique_ids(
            cand[self._bucket_of[cand] == k], self._bucket_of.size
        )
        self._pending[k] = [out]
        self._clean.add(k)
        return out

    def bucket_of_view(self) -> np.ndarray:
        """Read-only ground-truth array (for the paranoid cross-check)."""
        return self._bucket_of
