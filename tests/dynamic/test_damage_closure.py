"""Tight-seeded damage closure ≡ the unconditionally seeded one.

``_damage_closure`` seeds the head of a changed arc only if the arc was
tight under its *old* weight. The reference in
:mod:`tests.dynamic.oracles` seeds every improved head, as the closure
did while the delta carried no old weights on improved arcs. On positive
weights the two dirty masks are equal; with zero-weight arcs the
reference may dirty more (a head whose only certificates weigh zero is
never *certified* by the conservative ``w > 0`` scan, so scanning it at
all dirties it) and the tight-seeded mask is a subset — still exact.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import preset
from repro.core.context import make_context
from repro.core.reference import dijkstra_reference
from repro.core.solver import solve_sssp
from repro.dynamic.repair import _damage_closure, repair_sssp
from repro.dynamic.updates import UpdateBatch, apply_batch, random_update_batch
from repro.dynamic.versioner import GraphVersioner
from repro.graph.grid import grid_graph
from repro.graph.rmat import rmat_graph
from repro.runtime.machine import MachineConfig
from tests.dynamic.oracles import unconditional_closure

MACHINE = MachineConfig(num_ranks=4, threads_per_rank=4)

GRAPHS = {
    "rmat": lambda: rmat_graph(8, seed=11),
    "grid": lambda: grid_graph(12, 12, max_weight=9, seed=2),
}


def roots_of(graph, k=3):
    connected = np.flatnonzero(graph.degrees > 0)
    return [int(r) for r in connected[:: max(graph.num_vertices // k, 1)][:k]]


def tree_arcs(graph, d, root, count, rng):
    """``count`` tight arcs ``(u, v)``, ``u < v`` as an edge, of the
    shortest-path forest of ``root``."""
    tails, heads, weights = graph.to_edge_list()
    tight = np.flatnonzero((d[tails] + weights == d[heads]) & (heads != root))
    tight = tight[np.unique(heads[tight], return_index=True)[1]]  # one per head
    lo, hi = np.minimum(tails, heads)[tight], np.maximum(tails, heads)[tight]
    tight = tight[np.unique(lo * graph.num_vertices + hi, return_index=True)[1]]  # and per edge
    picked = rng.choice(tight, size=min(count, tight.size), replace=False)
    return tails[picked], heads[picked], weights[picked]


def assert_masks(graph, batch, roots, *, equal=True):
    new_graph, delta = apply_batch(graph, batch)
    for root in roots:
        d = dijkstra_reference(graph, root)
        got = _damage_closure(new_graph, d, delta, root)
        want = unconditional_closure(new_graph, d, delta, root)
        if equal:
            np.testing.assert_array_equal(got, want)
        else:
            assert not np.any(got & ~want)
        ctx = make_context(new_graph, MACHINE, preset("opt", 25))
        result = repair_sssp(ctx, root, d, delta, max_dirty_fraction=1.0)
        assert result.dirty == int(got.sum())
        np.testing.assert_array_equal(result.distances, dijkstra_reference(new_graph, root))
    return new_graph


@pytest.mark.parametrize("kind", GRAPHS)
class TestSameDirtyMask:
    def test_seeded_churn(self, kind):
        graph = GRAPHS[kind]()
        rng = np.random.default_rng(17)
        for _ in range(4):
            batch = random_update_batch(graph, rng, churn_fraction=0.04, max_weight=9)
            graph = assert_masks(graph, batch, roots_of(graph))

    def test_reweight_down_of_tight_tree_arcs(self, kind):
        graph = GRAPHS[kind]()
        root = roots_of(graph)[0]
        t, h, w = tree_arcs(graph, dijkstra_reference(graph, root), root, 12,
                            np.random.default_rng(5))
        heavy = w > 1
        assert heavy.any()
        batch = UpdateBatch.build(reweights=(t[heavy], h[heavy], np.maximum(w[heavy] // 2, 1)))
        assert_masks(graph, batch, [root])

    def test_deletion_of_tree_arcs(self, kind):
        graph = GRAPHS[kind]()
        root = roots_of(graph)[0]
        t, h, _ = tree_arcs(graph, dijkstra_reference(graph, root), root, 12,
                            np.random.default_rng(6))
        assert_masks(graph, UpdateBatch.build(deletes=(t, h)), [root])

    def test_zero_weight_arcs(self, kind):
        graph = GRAPHS[kind]()
        rng = np.random.default_rng(7)
        # A tenth of the edges (tree arcs among them) drop to zero weight:
        # on the still-positive old graph both rules dirty the same set.
        # Then ordinary churn on top of the zero-weight arcs: the
        # tight-seeded mask never dirties more, and repair stays exact.
        zeros = random_update_batch(
            graph, rng, churn_fraction=0.1, insert_fraction=0.0, delete_fraction=0.0
        )
        zeros = UpdateBatch.build(reweights=(
            zeros.reweight_tails, zeros.reweight_heads, np.zeros(zeros.num_reweights, np.int64)
        ))
        graph = assert_masks(graph, zeros, roots_of(graph))
        for _ in range(3):
            batch = random_update_batch(graph, rng, churn_fraction=0.04, max_weight=9)
            graph = assert_masks(graph, batch, roots_of(graph), equal=False)
        # Deleting zero-weight tree arcs only worsens: both rules seed the
        # same tight heads. Pulling tight tree arcs down to zero beside
        # them is the subset case again (the reference also scans the
        # arc's *tail*, the head of the never-tight reverse arc).
        root = roots_of(graph)[0]
        d = dijkstra_reference(graph, root)
        t, h, w = tree_arcs(graph, d, root, 40, rng)
        assert (w == 0).any() and (w > 0).any()
        assert_masks(graph, UpdateBatch.build(deletes=(t[w == 0], h[w == 0])), [root])
        to_zero = UpdateBatch.build(
            reweights=(t[w > 0], h[w > 0], np.zeros(int((w > 0).sum()), np.int64))
        )
        assert_masks(graph, to_zero, [root], equal=False)


#: ``(dirty, seeds, frontier, steps, relax_records)`` of three consecutive
#: repairs per churn seed. ``dirty``/``seeds``/``frontier`` were captured at
#: the commit before the tight-seed rule; ``steps`` (fixpoint rounds) and
#: ``relax_records`` since the drain became one label-correcting fixpoint.
PINNED = {
    23: [(10, 131, 16, 2, 221), (6, 85, 12, 6, 819), (46, 601, 43, 5, 1453)],
    29: [(4, 86, 9, 1, 66), (46, 637, 48, 4, 1411), (5, 83, 12, 2, 91)],
    31: [(8, 76, 12, 2, 61), (7, 197, 10, 3, 221), (3, 46, 8, 2, 38)],
}


@pytest.mark.parametrize("seed", PINNED)
def test_repair_counters_unchanged(seed):
    graph = rmat_graph(8, seed=11)
    root = int(np.flatnonzero(graph.degrees > 0)[0])
    versioner = GraphVersioner(graph, machine=MACHINE, config=preset("opt", 25), retention=8)
    d = solve_sssp(graph, root, algorithm="opt", delta=25, machine=MACHINE).distances
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(3):
        snap, _ = versioner.apply(
            random_update_batch(versioner.current.graph, rng, churn_fraction=0.02)
        )
        result = repair_sssp(versioner.context_for(snap.snapshot_id), root, d, snap.delta)
        assert not result.fallback
        d = result.distances
        rows.append((result.dirty, result.seeds, result.frontier, result.steps,
                     result.relax_records))
    assert rows == PINNED[seed]


@pytest.mark.parametrize("algorithm", ["opt", "rho", "radius"])
@pytest.mark.parametrize("kind", GRAPHS)
def test_repaired_distances_equal_fresh_solve(kind, algorithm):
    graph = GRAPHS[kind]()
    root = roots_of(graph)[1]
    versioner = GraphVersioner(graph, machine=MACHINE, config=preset(algorithm, 25), retention=2)
    d = solve_sssp(graph, root, algorithm=algorithm, delta=25, machine=MACHINE).distances
    rng = np.random.default_rng(41)
    for _ in range(4):
        snap, _ = versioner.apply(
            random_update_batch(versioner.current.graph, rng, churn_fraction=0.03, max_weight=9)
        )
        result = repair_sssp(
            versioner.context_for(snap.snapshot_id), root, d, snap.delta,
            max_dirty_fraction=1.0,
        )
        d = result.distances
        fresh = solve_sssp(snap.graph, root, algorithm=algorithm, delta=25, machine=MACHINE)
        np.testing.assert_array_equal(d, fresh.distances)
