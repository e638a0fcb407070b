"""Incremental SSSP repair: bit-identity against fresh solves.

The headline property of DESIGN.md §15: for every snapshot of a
randomized insert/delete/reweight stream, repairing the previous
snapshot's distances yields **bit-identical** distances to a fresh solve
of the new snapshot — under the Δ-stepping strategy and a delta-free
strategy, checked against both the orchestrated solver and the SPMD
engine. Shortest distances over int64 weights are unique, so exactness
and bit-identity coincide; parent trees additionally pin the
deterministic tie-break of the tree extraction.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import preset
from repro.core.paths import build_parent_tree
from repro.core.solver import solve_sssp
from repro.dynamic.repair import repair_sssp
from repro.dynamic.updates import UpdateBatch, apply_batch, random_update_batch
from repro.dynamic.versioner import GraphVersioner
from repro.graph.builder import from_undirected_edges
from repro.graph.rmat import rmat_graph
from repro.runtime.machine import MachineConfig
from repro.spmd import spmd_delta_stepping

MACHINE = MachineConfig(num_ranks=4, threads_per_rank=4)

#: Δ-stepping plus one delta-free windowed strategy (acceptance gate).
STRATEGIES = ["opt", "rho"]


def fresh_orchestrated(graph, root, algorithm):
    return solve_sssp(
        graph, root, algorithm=algorithm, delta=25, machine=MACHINE
    ).distances


def fresh_spmd(graph, root):
    distances, _ = spmd_delta_stepping(graph, root, MACHINE, delta=25)
    return distances


@pytest.mark.parametrize("algorithm", STRATEGIES)
class TestRepairStream:
    """Fixed-seed randomized update streams, repaired snapshot by snapshot."""

    def test_stream_bit_identity_both_engines(self, algorithm):
        graph = rmat_graph(8, seed=11)
        root = int(np.flatnonzero(graph.degrees > 0)[0])
        versioner = GraphVersioner(
            graph, machine=MACHINE, config=preset(algorithm, 25), retention=8
        )
        d = fresh_orchestrated(graph, root, algorithm)
        rng = np.random.default_rng(23)
        fallbacks = 0
        for _ in range(6):
            snap, _ = versioner.apply(
                random_update_batch(
                    versioner.current.graph, rng, churn_fraction=0.02
                )
            )
            ctx = versioner.context_for(snap.snapshot_id)
            result = repair_sssp(ctx, root, d, snap.delta)
            if result.fallback:
                fallbacks += 1
                d = fresh_orchestrated(snap.graph, root, algorithm)
                continue
            d = result.distances
            np.testing.assert_array_equal(
                d, fresh_orchestrated(snap.graph, root, algorithm)
            )
            np.testing.assert_array_equal(d, fresh_spmd(snap.graph, root))
        assert fallbacks <= 1  # 2% churn should almost never trip the gate

    def test_repair_across_a_composed_delta_bit_identity(self, algorithm):
        """One repair under the net delta of k batches — the lineage
        tier's call — equals a fresh solve of the k-th snapshot."""
        graph = rmat_graph(9, seed=19)
        versioner = GraphVersioner(
            graph, machine=MACHINE, config=preset(algorithm, 25), retention=4
        )
        roots = [int(r) for r in np.flatnonzero(graph.degrees > 0)[:4]]
        seeds = {r: fresh_orchestrated(graph, r, algorithm) for r in roots}
        rng = np.random.default_rng(37)
        repaired = 0
        for k in range(1, versioner.reach + 1):
            snap, _ = versioner.apply(random_update_batch(
                versioner.current.graph, rng, churn_fraction=0.01
            ))
            delta = versioner.delta_between(0, k)  # snapshot 0 retires at k=4
            ctx = versioner.context_for(k)
            for r in roots:
                result = repair_sssp(ctx, r, seeds[r], delta)
                if not result.fallback:
                    repaired += 1
                    np.testing.assert_array_equal(
                        result.distances, fresh_orchestrated(snap.graph, r, algorithm)
                    )
        assert 0 not in versioner and repaired >= 2 * versioner.reach  # of 24

    def test_parent_trees_match_fresh_extraction(self, algorithm):
        graph = rmat_graph(7, seed=13)
        root = int(np.flatnonzero(graph.degrees > 0)[0])
        versioner = GraphVersioner(
            graph, machine=MACHINE, config=preset(algorithm, 25), retention=8
        )
        d = fresh_orchestrated(graph, root, algorithm)
        rng = np.random.default_rng(29)
        for _ in range(4):
            snap, _ = versioner.apply(
                random_update_batch(
                    versioner.current.graph, rng, churn_fraction=0.02
                )
            )
            ctx = versioner.context_for(snap.snapshot_id)
            result = repair_sssp(ctx, root, d, snap.delta, with_parents=True)
            if result.fallback:
                d = fresh_orchestrated(snap.graph, root, algorithm)
                continue
            d = result.distances
            fresh_d = fresh_orchestrated(snap.graph, root, algorithm)
            np.testing.assert_array_equal(d, fresh_d)
            # Parent extraction is deterministic given (graph, distances);
            # compare on the context's graph — the one repair used.
            np.testing.assert_array_equal(
                result.parents, build_parent_tree(ctx.graph, fresh_d, root)
            )

    def test_delete_heavy_stream_disconnects_correctly(self, algorithm):
        """Deletions orphan whole subtrees; repaired INF set must match."""
        graph = rmat_graph(7, seed=17)
        root = int(np.flatnonzero(graph.degrees > 0)[0])
        versioner = GraphVersioner(
            graph, machine=MACHINE, config=preset(algorithm, 25), retention=8
        )
        d = fresh_orchestrated(graph, root, algorithm)
        rng = np.random.default_rng(31)
        for _ in range(4):
            snap, _ = versioner.apply(
                random_update_batch(
                    versioner.current.graph,
                    rng,
                    churn_fraction=0.03,
                    insert_fraction=0.05,
                    delete_fraction=0.9,
                )
            )
            ctx = versioner.context_for(snap.snapshot_id)
            result = repair_sssp(ctx, root, d, snap.delta)
            if result.fallback:
                d = fresh_orchestrated(snap.graph, root, algorithm)
                continue
            d = result.distances
            np.testing.assert_array_equal(
                d, fresh_orchestrated(snap.graph, root, algorithm)
            )


class TestRepairMechanics:
    def make_ctx(self, graph, algorithm="opt"):
        from repro.core.context import make_context

        return make_context(graph, MACHINE, preset(algorithm, 25))

    def test_empty_delta_is_noop(self, path_graph):
        d = fresh_orchestrated(path_graph, 0, "opt")
        new_graph, delta = apply_batch(path_graph, UpdateBatch.build())
        result = repair_sssp(self.make_ctx(new_graph), 0, d, delta)
        assert not result.fallback
        assert result.dirty == 0
        assert result.frontier == 0
        np.testing.assert_array_equal(result.distances, d)

    def test_old_distances_never_mutated(self, path_graph):
        d = fresh_orchestrated(path_graph, 0, "opt")
        keep = d.copy()
        new_graph, delta = apply_batch(
            path_graph, UpdateBatch.build(deletes=([1], [2]))
        )
        repair_sssp(self.make_ctx(new_graph), 0, d, delta)
        np.testing.assert_array_equal(d, keep)

    def test_insert_shortcut_improves(self, path_graph):
        # path 0-5-1-3-2-7-3-1-4; insert 0-4 with weight 2.
        d = fresh_orchestrated(path_graph, 0, "opt")
        new_graph, delta = apply_batch(
            path_graph, UpdateBatch.build(inserts=([0], [4], [2]))
        )
        result = repair_sssp(self.make_ctx(new_graph), 0, d, delta)
        assert not result.fallback
        assert result.dirty == 0  # pure improvement: nothing orphaned
        np.testing.assert_array_equal(
            result.distances, fresh_orchestrated(new_graph, 0, "opt")
        )
        assert result.distances[4] == 2

    def test_delete_bridge_orphans_subtree(self, path_graph):
        # Deleting 1-2 cuts {2, 3, 4} from root 0 entirely.
        d = fresh_orchestrated(path_graph, 0, "opt")
        new_graph, delta = apply_batch(
            path_graph, UpdateBatch.build(deletes=([1], [2]))
        )
        result = repair_sssp(
            self.make_ctx(new_graph), 0, d, delta, max_dirty_fraction=1.0
        )
        assert not result.fallback
        assert result.dirty == 3
        np.testing.assert_array_equal(
            result.distances, fresh_orchestrated(new_graph, 0, "opt")
        )

    def test_cost_gate_falls_back(self, path_graph):
        d = fresh_orchestrated(path_graph, 0, "opt")
        new_graph, delta = apply_batch(
            path_graph, UpdateBatch.build(deletes=([1], [2]))
        )
        result = repair_sssp(
            self.make_ctx(new_graph), 0, d, delta, max_dirty_fraction=0.1
        )
        assert result.fallback
        assert result.reason == "dirty-region"
        assert result.distances is None

    def test_zero_weight_edges_handled_conservatively(self):
        # A zero-weight pair behind a deleted bridge must not self-certify.
        tails = np.array([0, 1, 2, 1])
        heads = np.array([1, 2, 3, 3])
        weights = np.array([4, 0, 0, 5])
        graph = from_undirected_edges(tails, heads, weights, 4)
        d = fresh_orchestrated(graph, 0, "opt")
        new_graph, delta = apply_batch(
            graph, UpdateBatch.build(deletes=([0], [1]))
        )
        result = repair_sssp(
            self.make_ctx(new_graph), 0, d, delta, max_dirty_fraction=1.0
        )
        if not result.fallback:
            np.testing.assert_array_equal(
                result.distances, fresh_orchestrated(new_graph, 0, "opt")
            )

    def test_requires_undirected(self):
        from repro.graph.builder import from_edges

        g = from_edges(
            np.array([0]), np.array([1]), np.array([1]), 2, undirected=False
        )
        with pytest.raises(ValueError, match="undirected"):
            repair_sssp(
                self.make_ctx_directed(g), 0, np.zeros(2, np.int64), None
            )

    def make_ctx_directed(self, graph):
        from repro.core.context import make_context

        return make_context(graph, MACHINE, preset("opt", 25))

    def test_rejects_wrong_root(self, path_graph):
        d = fresh_orchestrated(path_graph, 0, "opt")
        new_graph, delta = apply_batch(path_graph, UpdateBatch.build())
        ctx = self.make_ctx(new_graph)
        with pytest.raises(ValueError, match="root"):
            repair_sssp(ctx, 1, d, delta)  # d[1] != 0
        with pytest.raises(ValueError, match="range"):
            repair_sssp(ctx, 99, d, delta)


@settings(deadline=None, max_examples=20)
@given(
    seed=st.integers(0, 2**31 - 1),
    churn=st.floats(0.01, 0.08),
    algorithm=st.sampled_from(STRATEGIES),
)
def test_repair_matches_fresh_on_random_batches(seed, churn, algorithm):
    """Hypothesis sweep: any seeded batch on a scale-6 RMAT repairs to the
    exact fresh solution (or falls back, which is always safe)."""
    graph = rmat_graph(6, seed=7)
    root = int(np.flatnonzero(graph.degrees > 0)[0])
    d = fresh_orchestrated(graph, root, algorithm)
    rng = np.random.default_rng(seed)
    batch = random_update_batch(graph, rng, churn_fraction=churn)
    new_graph, delta = apply_batch(graph, batch)
    from repro.core.context import make_context

    ctx = make_context(new_graph, MACHINE, preset(algorithm, 25))
    result = repair_sssp(ctx, root, d, delta, max_dirty_fraction=1.0)
    assert not result.fallback  # gate disabled: repair must complete
    np.testing.assert_array_equal(
        result.distances, fresh_orchestrated(new_graph, root, algorithm)
    )
    np.testing.assert_array_equal(
        result.distances, fresh_spmd(new_graph, root)
    )


def test_repair_leaves_the_snapshot_template_ledger_empty():
    """``context_for`` memoises the context ``BatchSolver.from_context`` uses
    as a template and never runs on; a repair — the broker's hot-root carry
    or a bare call — charges its selection allreduces to a fork, not to it."""
    from repro.serve import QueryBroker

    graph = rmat_graph(8, seed=11)
    roots = [int(r) for r in np.flatnonzero(graph.degrees > 0)[:3]]
    broker = QueryBroker(graph, num_workers=0, num_ranks=4, threads_per_rank=4)
    try:
        for root in roots:
            broker.query(root)
        batch = random_update_batch(graph, np.random.default_rng(3),
                                    churn_fraction=0.02)
        report = broker.apply_updates(batch, repair_hot_roots=len(roots))
        assert report["repaired"] > 0
        template = broker.versioner.context_for(report["snapshot_id"])
        assert template.metrics.records == []
        new_graph = broker.versioner.current.graph
        for root in roots:
            np.testing.assert_array_equal(
                broker.query(root).distances, fresh_orchestrated(new_graph, root, "opt")
            )
        assert template.metrics.records == []
    finally:
        broker.shutdown()

    versioner = GraphVersioner(graph, machine=MACHINE, config=preset("opt", 25))
    d = fresh_orchestrated(graph, roots[0], "opt")
    snap, _ = versioner.apply(
        random_update_batch(graph, np.random.default_rng(5), churn_fraction=0.02)
    )
    ctx = versioner.context_for(snap.snapshot_id)
    result = repair_sssp(ctx, roots[0], d, snap.delta, max_dirty_fraction=1.0)
    assert not result.fallback and result.steps > 0
    assert versioner.context_for(snap.snapshot_id).metrics.records == []
    np.testing.assert_array_equal(
        result.distances, fresh_orchestrated(snap.graph, roots[0], "opt")
    )
