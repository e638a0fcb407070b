"""Incremental SSSP repair: fix distances instead of re-solving.

Given exact distances ``d_old`` for the *parent* snapshot and the
arc-level :class:`~repro.dynamic.updates.EdgeDelta` to the new one,
:func:`repair_sssp` produces distances for the new snapshot that are
**bit-identical** to a fresh solve — shortest distances over ``int64``
weights are unique, so exactness *is* bit-identity — while touching only
the region the update actually disturbed. The machinery is the
delta-propagation family of Ramalingam–Reps / Frigioni et al.: the
changed-vertex frontier is drained by a label-correcting fixpoint —
relax every out-arc of what the last round lowered with
:func:`~repro.core.relax.apply_relaxations` until a round lowers
nothing — so a round costs in proportion to the vertices it relaxes,
not to ``n``, and the repair pays no per-window selection at all. This
is the paper's hybridization taken to its end: a repair is always the
small remainder for which the bucket structure costs more than the
relaxations it saves, so it finishes Bellman-Ford-style from the start.

Three phases:

1. **Damage closure** (any arc that stopped certifying). A vertex ``v`` is
   *dirty* when every certificate of its old distance died: no in-arc
   ``(u, v, w)`` in the *new* graph with ``u`` clean, ``w > 0`` and
   ``d_old[u] + w == d_old[v]``. The worklist starts only where a
   certificate actually died — the heads of changed arcs that were
   tight *under their old weight* (``d_old[u] + w_old == d_old[v]``),
   whether the arc got worse or better; an inserted arc never was — and
   closes over shortest-path children (``d_old[x] == d_old[v] + w(v,
   x)``) of every vertex it dirties: the bounded re-anchoring of
   orphaned subtrees. A head none of whose changed in-arcs was tight
   still holds the certificate it had (that arc is in the new graph
   unchanged), so scanning it first could only confirm it clean; it is
   reached as a child if its certificate's tail goes dirty. Requiring
   strictly positive certificate weights is deliberately conservative:
   a zero-weight cycle of orphans could otherwise certify itself. Extra
   dirtying is always safe (those vertices are re-anchored below); a
   missed dirty vertex never happens because a vertex is skipped only
   while it holds a live certificate chain that lexicographically
   descends (distance, old-tree depth) to the root.
2. **Re-anchor + seed.** Dirty distances reset to ``INF``; one batched
   relaxation applies every clean→dirty arc (re-attaching orphans to
   the clean region at their best one-hop bound) and every improved arc
   (inserts / weight decreases). The changed set is the repair frontier.
3. **Fixpoint drain.** ``active`` starts as the frontier; each round
   relaxes all out-arcs of ``active`` and the vertices it lowered
   become the next ``active``. No order is needed for exactness: after
   seeding, every arc not leaving a changed vertex satisfies the
   triangle inequality (clean→clean arcs by the old solution, clean→dirty
   and improved arcs by the seeds, arcs out of a reset orphan trivially)
   and every finite distance is realised by a path, so the fixpoint the
   rounds reach is the shortest-path solution.

The **cost model** falls back before the drain: when the disturbed
region (dirty + frontier) exceeds ``max_dirty_fraction`` of the graph, a
fresh solve is cheaper and the caller is told to run one
(``RepairResult.fallback``), mirroring the broker's degradation ladder
style of explicit, observable decisions. The bound is tested as early as
it can be decided: the damage closure stops at the first wave that takes
its dirty count past it (the full touched region can only be larger), so
a repair that will not happen costs a prefix of phase 1 and none of
phase 2.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.distances import INF
from repro.core.paths import build_parent_tree
from repro.core.relax import apply_relaxations
from repro.util.ranges import concat_ranges, sorted_unique_ids

__all__ = ["RepairResult", "check_dirty_fraction", "repair_sssp"]


@dataclass(frozen=True)
class RepairResult:
    """Outcome of one incremental repair.

    ``distances`` is ``None`` exactly when ``fallback`` is True — the
    caller must run a fresh solve. ``dirty`` counts vertices orphaned by
    the damage pass — of a fallback a **lower bound**: the closure stops
    at the wave that crosses the gate, and ``seeds``/``frontier`` are 0
    when it was the closure that crossed it. ``seeds`` counts the
    relaxation records applied in the seeding phase, ``frontier`` the
    vertices the drain started from, ``steps`` the fixpoint rounds the
    drain ran and ``relax_records`` the total relaxation records the
    drain generated.
    """

    distances: np.ndarray | None
    parents: np.ndarray | None
    fallback: bool
    reason: str
    dirty: int
    seeds: int
    frontier: int
    steps: int
    relax_records: int
    wall_time_s: float


def _out_arcs(graph, vertices: np.ndarray):
    """All out-arcs of ``vertices`` as ``(owner, heads, weights)``, where
    ``owner[i]`` is the position in ``vertices`` of arc ``i``'s tail."""
    indptr = graph.indptr
    flat, owner = concat_ranges(indptr[vertices], indptr[1:][vertices])
    return owner, graph.adj[flat], graph.weights[flat]


def _damage_closure(
    graph, d: np.ndarray, delta, root: int, bound: float = float("inf")
) -> np.ndarray:
    """Boolean dirty mask: vertices whose old distance lost every certificate.

    Works entirely on the *old* distances and the *new* graph, per the
    classic delta-propagation formulation. The root and unreached
    vertices are never dirty. The closure returns after the first wave
    that takes its dirty count past ``bound`` — the mask is then a subset
    of the full closure, which is all a caller that gives up there needs.
    """
    n = graph.num_vertices
    dirty = np.zeros(n, dtype=bool)
    count = 0
    # Heads of changed arcs that were tight under their old weight lost
    # *a* certificate; whether they lost every certificate is decided by
    # the worklist scan below. (An inserted arc has old weight INF.)
    h, w_old = delta.heads, delta.old_weights
    d_t, d_h = d[delta.tails], d[h]
    was_tight = (
        (w_old != delta.new_weights)
        & (w_old < INF)
        & (d_t < INF)
        & (d_h < INF)
        & (d_t + w_old == d_h)
    )
    work = sorted_unique_ids(h[was_tight], n)
    work = work[work != root]
    while work.size:
        # Certificate scan: v keeps its distance iff some in-arc (u, v, w)
        # of the NEW graph has u clean, w > 0 and d[u] + w == d[v]. The
        # graph is symmetrized, so in-arcs of v are its out-arcs reversed.
        owner, nbrs, w = _out_arcs(graph, work)
        d_tail = d[work][owner]
        d_head = d[nbrs]
        reached = d_head < INF
        cert = (w > 0) & ~dirty[nbrs] & reached & (d_head + w == d_tail)
        has_cert = np.zeros(work.size, dtype=bool)
        has_cert[owner[cert]] = True
        lost = work[~has_cert]  # duplicate-free, clean going in
        dirty[lost] = True
        count += lost.size
        if not lost.size or count > bound:
            break
        # Re-examine shortest-path children of the newly dirty vertices —
        # their certificate through the dead parent just died too — read
        # off the arcs the scan just gathered.
        child = (
            ~has_cert[owner]
            & reached
            & (d_tail + w == d_head)
            & ~dirty[nbrs]
            & (nbrs != root)
        )
        work = sorted_unique_ids(nbrs[child], n)
    return dirty


def check_dirty_fraction(max_dirty_fraction: float) -> None:
    """Reject a gate fraction every comparison would misread: NaN turns
    the gate off, a negative one sends every repair to fallback."""
    if not max_dirty_fraction >= 0:
        raise ValueError(f"max_dirty_fraction must be >= 0, got {max_dirty_fraction}")


def repair_sssp(
    ctx,
    root: int,
    old_distances: np.ndarray,
    delta,
    *,
    max_dirty_fraction: float = 0.25,
    with_parents: bool = False,
) -> RepairResult:
    """Repair ``old_distances`` into exact distances for ``ctx.graph``.

    Parameters
    ----------
    ctx:
        Execution context of the **new** snapshot. Only its graph is
        read, so a memoised per-snapshot template
        (``GraphVersioner.context_for``) is never written to.
    root:
        The SSSP root ``old_distances`` solves.
    old_distances:
        Exact distances on the parent snapshot (never mutated).
    delta:
        :class:`~repro.dynamic.updates.EdgeDelta` from parent to new.
    max_dirty_fraction:
        Fall back to a fresh solve when ``(dirty + frontier) / n``
        exceeds this — the cost-model guard. NaN or negative raises
        ``ValueError``; any value from 1 up never trips.
    with_parents:
        Also derive a parent tree from the repaired distances.

    Only symmetrized undirected graphs are supported (the damage pass
    reads in-arcs through symmetry — the setting of the paper and every
    generator in this repo).
    """
    check_dirty_fraction(max_dirty_fraction)
    graph = ctx.graph
    if not graph.undirected:
        raise ValueError("repair_sssp requires a symmetrized undirected graph")
    n = graph.num_vertices
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range [0, {n})")
    d = np.array(old_distances, dtype=np.int64, copy=True)
    if d.shape != (n,):
        raise ValueError("old_distances shape mismatch")
    if d[root] != 0:
        raise ValueError("old_distances is not rooted at the given root")
    start = time.perf_counter()

    def bail(reason: str, dirty_count: int, seeds: int, frontier: int) -> RepairResult:
        return RepairResult(
            distances=None,
            parents=None,
            fallback=True,
            reason=reason,
            dirty=dirty_count,
            seeds=seeds,
            frontier=frontier,
            steps=0,
            relax_records=0,
            wall_time_s=time.perf_counter() - start,
        )

    # ------------------------------------------------ phase 1: damage
    # Partial dirty > bound implies full touched > bound: the gate below
    # would trip too, so give up before paying for the rest and the seeds.
    bound = max_dirty_fraction * n
    dirty = _damage_closure(graph, d, delta, root, bound)
    dirty_count = int(np.count_nonzero(dirty))
    if dirty_count > bound:
        return bail("dirty-region", dirty_count, 0, 0)
    orphans = np.flatnonzero(dirty)
    d[orphans] = INF

    # ------------------------------------------------ phase 2: seeds
    seed_dst = []
    seed_nd = []
    if dirty_count:
        # Re-anchor orphans: best one-hop bound from the clean region.
        # In-arcs of dirty vertices via symmetry (out-arc (v, u, w) of a
        # dirty v mirrors in-arc (u, v, w)).
        owner, du, dw = _out_arcs(graph, orphans)
        d_u = d[du]
        anchor = ~dirty[du] & (d_u < INF)
        seed_dst.append(orphans[owner[anchor]])
        seed_nd.append(d_u[anchor] + dw[anchor])
    it, ih, iw = delta.improved_tails, delta.improved_heads, delta.improved_weights
    if it.size:
        d_it = d[it]
        live = d_it < INF
        seed_dst.append(ih[live])
        seed_nd.append(d_it[live] + iw[live])
    seeds = 0
    if seed_dst:
        dst = np.concatenate(seed_dst)
        nd = np.concatenate(seed_nd)
        seeds = int(dst.size)
        frontier = apply_relaxations(d, dst, nd)
    else:
        frontier = np.empty(0, dtype=np.int64)

    # ------------------------------------------------ cost-model gate
    # Touched region = dirty ∪ frontier (re-anchored orphans are in both;
    # count them once so max_dirty_fraction=1.0 can never trip the gate).
    touched = dirty_count + int(np.count_nonzero(~dirty[frontier]))
    if touched > bound:
        return bail("dirty-region", dirty_count, seeds, int(frontier.size))

    # ------------------------------------------------ phase 3: drain
    # No settle order is needed for exactness (phase 3 above), so each
    # round relaxes exactly what the last one lowered.
    active = frontier
    steps = relax_records = 0
    while active.size:
        steps += 1
        owner, dst, w = _out_arcs(graph, active)
        relax_records += int(dst.size)
        active = apply_relaxations(d, dst, d[active][owner] + w)

    parents = build_parent_tree(graph, d, root) if with_parents else None
    return RepairResult(
        distances=d,
        parents=parents,
        fallback=False,
        reason="",
        dirty=dirty_count,
        seeds=seeds,
        frontier=int(frontier.size),
        steps=steps,
        relax_records=relax_records,
        wall_time_s=time.perf_counter() - start,
    )
