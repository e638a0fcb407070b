"""Snapshots: which graph a request is answered on (DESIGN.md §11/§15).

:class:`Snapshots` owns snapshot residency and everything the serving
plane keys on a snapshot:

- the **serving pointer** — the snapshot a request is pinned to at
  admission. The pointer is itself a pin, so the snapshot new requests
  land on can never be retired under them, and the pointer read and
  the pin share one lock with the swap of :meth:`Snapshots.apply`: no
  request is ever pinned to a half-installed snapshot;
- the :class:`~repro.dynamic.versioner.GraphVersioner` — residency, pins,
  deltas, memoised contexts — and each snapshot's
  :class:`~repro.core.solver.BatchSolver`, memoised by the versioner so
  that it retires with its snapshot;
- the :class:`~repro.serve.cache.DistanceCache`, keyed
  ``(snapshot_id, root)``, whose reads re-verify their checksums while
  the breaker is degraded (:meth:`Snapshots.arm_degraded_reads`);
- both repair sites — the hot-root loop of an update and the lineage
  tier of a miss — and path extraction on a request's pinned graph.

A broker that never applies an update pays nothing here beyond the
``(0, root)`` cache-key tuples.
"""

from __future__ import annotations

import threading

from repro.core.paths import build_parent_tree, extract_path
from repro.core.solver import BatchSolver
from repro.dynamic.versioner import GraphVersioner
from repro.serve.cache import DistanceCache
from repro.serve.request import SolveCorrupted

__all__ = ["Snapshots"]


class Snapshots:
    """Snapshot residency of one broker.

    ``solver`` is snapshot 0's solver over ``graph``; later snapshots'
    solvers reuse its algorithm, config and machine. ``repair`` is the
    repair call, ``(context, root, distances, delta, **gate)`` ->
    :class:`~repro.dynamic.repair.RepairResult`. ``accounting`` counts
    updates, repairs and fallbacks, and its registry and clock are the
    cache's (built from ``cache_bytes`` and ``negative_ttl_s``,
    checksummed when there is a ``breaker``).
    """

    def __init__(
        self, graph, solver, *, retention: int, cache_bytes: int,
        negative_ttl_s: float, breaker, repair, accounting,
    ) -> None:
        self.versioner = GraphVersioner(
            graph, machine=solver.machine, config=solver.config,
            retention=retention,
        )
        self.versioner.solver_for(0, lambda snapshot: solver)
        self.versioner.pin(0)
        #: the serving snapshot's id and graph (moved together by apply)
        #: and its vertex count, which every submit checks a root against
        self.serving, self.graph, self.num_vertices = 0, graph, graph.num_vertices
        self.breaker = breaker
        self.cache = DistanceCache(
            cache_bytes, registry=accounting.registry, clock=accounting.clock,
            checksum=breaker is not None, negative_ttl_s=negative_ttl_s,
        )
        self._recipe = (solver.algorithm, solver.config, solver.machine)
        self._repair = repair
        self._acct = accounting
        self._lock = threading.Lock()
        self._update_lock = threading.Lock()

    # ------------------------------------------------------------------
    def pin(self) -> int:
        """Pin the serving snapshot for one request; returns its id."""
        with self._lock:
            snapshot_id = self.serving
            self.versioner.pin(snapshot_id)
        return snapshot_id

    def unpin(self, snapshot_id: int) -> None:
        """Drop one pin; the last on a superseded snapshot retires it."""
        retired = self.versioner.unpin(snapshot_id)
        if retired:
            self._retire(retired)

    def _retire(self, retired: list) -> None:
        """Sweep the cache of snapshots the versioner retired (it reports
        each id once: from ``apply``, or from the ``unpin`` that released
        a snapshot already outside the window; their solvers went with
        them). Entries stay for as long as the versioner's deltas reach
        their snapshot — nothing can pin a retired snapshot, so they are
        never served, only read by the lineage tier as seeds — and are
        swept once it is more than ``versioner.reach`` updates old (at
        once when ``snapshot_retention=1``)."""
        floor = self.versioner.current_id - self.versioner.reach
        # ``floor - 1`` aged out with this update; a late unpin may
        # release a snapshot that aged out long ago.
        for sid in (floor - 1, *retired):
            if sid < floor and sid not in self.versioner:
                self.cache.evict_snapshot(sid)

    def arm_degraded_reads(self) -> bool:
        """Read the breaker ahead of a cache read and arm the cache for
        it (while degraded, checksummed entries re-verify on every read);
        returns the degraded flag the read is then served under."""
        if self.breaker is None:
            return False
        degraded = self.breaker.degraded
        if self.cache.verify_get is not degraded:
            self.cache.verify_get = degraded
        return degraded

    def solver(self, snapshot_id: int) -> BatchSolver:
        """The snapshot's solver, built on its first solve and dropped
        when the snapshot retires.

        It adopts the versioner's memoised context (the one repair
        already uses); only a vertex-splitting config, which solves on a
        different graph than the snapshot's, builds from the graph."""
        return self.versioner.solver_for(snapshot_id, self._build_solver)

    def _build_solver(self, snapshot) -> BatchSolver:
        algorithm, config, machine = self._recipe
        if config.inter_split:
            return BatchSolver(
                snapshot.graph, algorithm=algorithm, config=config, machine=machine
            )
        return BatchSolver.from_context(
            self.versioner.context_for(snapshot.snapshot_id), algorithm=algorithm
        )

    def paths(self, snapshot_id: int, root: int, targets: tuple, distances) -> dict:
        """Paths to ``targets``, on the pinned snapshot's graph."""
        parent = build_parent_tree(
            self.versioner.get(snapshot_id).graph, distances, root
        )
        return {t: extract_path(parent, root, t) or None for t in targets}

    # ------------------------------------------------------------------
    def apply(self, batch, repair_hot_roots: int, max_dirty_fraction: float):
        """Apply ``batch`` and swap the serving snapshot; returns the
        update's report (``retired``: the snapshots it retired).

        The new snapshot is built and the ``repair_hot_roots``
        most-recently-used cached roots of the outgoing one are repaired
        onto it *before* the swap; a root whose dirty region exceeds
        ``max_dirty_fraction`` falls back to cold (counted, not
        repaired). The swap is one pointer update under the pin lock. The
        pointer's own pin moves with it: taken on the new snapshot before
        the swap, dropped on the old one after. Concurrent callers
        serialise on an update lock (last writer's snapshot serves).
        """
        with self._update_lock:
            old_id = self.serving
            snapshot, retired = self.versioner.apply(batch)
            new_id = snapshot.snapshot_id
            repaired = fallbacks = 0
            if repair_hot_roots > 0 and self.cache.byte_budget > 0:
                hot = [
                    key for key in reversed(self.cache.roots()) if key[0] == old_id
                ][: int(repair_hot_roots)]
                for key in hot:
                    dist = self.cache.peek(key)
                    if dist is None:
                        continue
                    rr = self._repair_onto(
                        snapshot, key[1], dist, snapshot.delta,
                        max_dirty_fraction=max_dirty_fraction,
                    )
                    if rr.fallback:
                        fallbacks += 1
                        continue
                    self.cache.put(
                        (new_id, key[1]), rr.distances, cost_s=rr.wall_time_s
                    )
                    repaired += 1
            self.versioner.pin(new_id)
            with self._lock:
                self.serving, self.graph = new_id, snapshot.graph
                self.num_vertices = snapshot.graph.num_vertices
            retired = retired + self.versioner.unpin(old_id)
            self._retire(retired)
            self._acct.count("updates")
            if repaired:
                self._acct.count("repairs", repaired)
            self._acct.gauge("serve_snapshot_id", new_id)
            return {
                "snapshot_id": new_id,
                "parent_id": snapshot.parent_id,
                "batch_size": batch.size,
                "num_edges": snapshot.graph.num_undirected_edges,
                "repaired": repaired,
                "repair_fallbacks": fallbacks,
                "retired": retired,
            }

    def _repair_onto(self, snapshot, root: int, dist, delta, **gate):
        """``dist`` — exact for ``root`` on the ancestor ``delta`` starts
        from — repaired onto ``snapshot``. Both repair sites come through
        here: one place counts a fallback."""
        ctx = self.versioner.context_for(snapshot.snapshot_id)
        rr = self._repair(ctx, root, dist, delta, **gate)
        if rr.fallback:
            self._acct.count("repair_fallbacks")
        return rr

    def lineage(self, snap, root: int, verify):
        """The lineage tier (DESIGN.md §15): a miss on ``snap`` answered
        by repairing the nearest cached ancestor; returns ``(distances,
        ancestor, dirty)``, or None.

        Look back at most ``versioner.reach`` updates for the newest
        snapshot — resident or retired — that still holds ``root``'s
        exact distances, and repair them onto ``snap`` in one call under
        the net delta between the two: the tested primitive, so the
        answer is bit-identical to a solve. Nothing is pinned: a delta on
        the way may have aged out (``KeyError``), the repair may trip the
        dirty gate, ``verify`` (the attempt's post-solve check) may
        reject the result — each returns None and the caller solves as if
        the tier were not there. The answer is cached under ``snap``."""
        snapshot_id = snap.snapshot_id
        t0 = self._acct.clock()
        oldest = max(snapshot_id - self.versioner.reach, 0)
        for ancestor in range(snapshot_id - 1, oldest - 1, -1):
            dist = self.cache.peek((ancestor, root))
            if dist is not None:
                break
        else:
            return None  # nobody solved this root within reach
        try:
            delta = self.versioner.delta_between(ancestor, snapshot_id)
            rr = self._repair_onto(snap, root, dist, delta)
            if rr.fallback:
                return None
            verify(rr, snap.graph, root, 0)
        except (KeyError, SolveCorrupted):
            return None
        self.cache.put(
            (snapshot_id, root), rr.distances, cost_s=self._acct.clock() - t0
        )
        return rr.distances, ancestor, rr.dirty
