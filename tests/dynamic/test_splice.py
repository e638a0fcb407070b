"""``apply_batch`` as a sorted-key splice ≡ the edge-list rebuild.

The rebuild (``to_edge_list`` → ``np.isin`` → ``from_edges``) survives in
:mod:`tests.dynamic.oracles`; the splice must give the same CSR arrays,
the same structural digest and a field-for-field equal ``EdgeDelta`` on
hypothesis batches and on a fixed adversarial list.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.distances import INF
from repro.dynamic import updates
from repro.dynamic.updates import (
    ArcIndex,
    UpdateBatch,
    apply_batch,
    random_update_batch,
    splice_arcs,
)
from repro.dynamic.versioner import structural_digest
from repro.graph.builder import from_edges, from_undirected_edges
from repro.graph.csr import CSRGraph
from repro.graph.rmat import rmat_graph
from tests.dynamic.oracles import rebuild_batch

DELTA_FIELDS = ("tails", "heads", "old_weights", "new_weights")
DELTA_VIEWS = (
    "improved_tails", "improved_heads", "improved_weights",
    "worsened_tails", "worsened_heads", "worsened_weights",
)


def assert_same_update(graph, batch):
    """Splice and rebuild agree on every array they return."""
    new_graph, delta = apply_batch(graph, batch)
    want_graph, want_delta = rebuild_batch(graph, batch)
    for name in ("indptr", "adj", "weights"):
        np.testing.assert_array_equal(getattr(new_graph, name), getattr(want_graph, name), name)
    assert new_graph.undirected == want_graph.undirected
    assert not new_graph._sorted_by_weight
    assert structural_digest(new_graph) == structural_digest(want_graph)
    for name in DELTA_FIELDS + DELTA_VIEWS:
        np.testing.assert_array_equal(getattr(delta, name), getattr(want_delta, name), name)
    assert delta.num_improved == want_delta.num_improved
    assert delta.num_worsened == want_delta.num_worsened
    return new_graph, delta


def directed_graph(seed=7, n=24, m=90):
    rng = np.random.default_rng(seed)
    return from_edges(
        rng.integers(0, n, m), rng.integers(0, n, m), rng.integers(1, 20, m), n,
        undirected=False,
    )


@pytest.fixture
def ring():
    """0-1-2-3-4-5-0 with weights 1..6, plus vertex 6 isolated."""
    tails = np.arange(6)
    return from_undirected_edges(tails, (tails + 1) % 6, tails + 1, 7)


class TestAdversarialBatches:
    def test_empty_batch(self, ring):
        new_graph, delta = assert_same_update(ring, UpdateBatch.build())
        assert delta.is_empty and delta.tails.size == 0
        assert structural_digest(new_graph) == structural_digest(ring)

    def test_delete_to_isolation(self, ring):
        new_graph, _ = assert_same_update(
            ring, UpdateBatch.build(deletes=([0, 1], [1, 2]))
        )
        assert new_graph.degree(1) == 0

    def test_insert_into_isolated_vertex(self, ring):
        new_graph, delta = assert_same_update(
            ring, UpdateBatch.build(inserts=([6, 6], [0, 3], [4, 2]))
        )
        assert new_graph.degree(6) == 2
        assert np.all(delta.old_weights == INF)

    def test_first_and_last_vertex_rows(self, ring):
        # Rows 0 and 6 bound the arrays: their splices sit at position 0
        # and at the very end.
        assert_same_update(
            ring,
            UpdateBatch.build(
                inserts=([0, 6], [6, 5], [9, 8]), deletes=([0], [1]),
                reweights=([5], [0], [1]),
            ),
        )

    @pytest.mark.parametrize("weight", [3, 1, 9], ids=["same", "down", "up"])
    def test_reweight_same_down_up(self, ring, weight):
        _, delta = assert_same_update(
            ring, UpdateBatch.build(reweights=([2], [3], [weight]))
        )
        assert delta.tails.size == 2  # the arc is stated even when unchanged
        assert (delta.num_improved, delta.num_worsened) == {
            3: (0, 0), 1: (2, 0), 9: (0, 2)
        }[weight]

    def test_all_three_kinds_on_one_row(self, ring):
        assert_same_update(
            ring,
            UpdateBatch.build(
                inserts=([2], [5], [7]), deletes=([2], [1]), reweights=([2], [3], [11])
            ),
        )

    def test_directed(self):
        g = directed_graph()
        t, h = g.arc_tails(), g.adj
        vacant = next(
            (u, v) for u in range(24) for v in range(24)
            if u != v and not np.any((t == u) & (h == v))
        )
        assert_same_update(
            g,
            UpdateBatch.build(
                inserts=([vacant[0]], [vacant[1]], [5]),
                deletes=(t[:2], h[:2]),
                reweights=(t[-3:], h[-3:], [1, 30, int(g.weights[-1])]),
            ),
        )

    def test_weight_sorted_seed_parent_then_canonical_parent(self):
        seed = rmat_graph(6, seed=3).sorted_by_weight()
        keys = seed.arc_tails() * seed.num_vertices + seed.adj
        assert np.any(keys[1:] <= keys[:-1])  # not key-sorted: the slow door
        rng = np.random.default_rng(4)
        g, _ = assert_same_update(seed, random_update_batch(seed, rng, churn_fraction=0.1))
        index = ArcIndex(g)
        assert index.adj is g.adj and index.indptr is g.indptr  # canonical: as-is
        assert_same_update(g, random_update_batch(g, rng, churn_fraction=0.1))

    def test_parallel_arcs_and_self_loops_in_the_parent(self):
        # from_edges(dedup=False) keeps both; the rebuild drops them, so
        # must the splice.
        g = from_edges(
            [0, 0, 0, 1, 2, 2], [1, 1, 0, 0, 0, 2], [5, 3, 1, 3, 4, 9], 3,
            undirected=False, dedup=False,
        )
        new_graph, _ = assert_same_update(g, UpdateBatch.build(reweights=([2], [0], [8])))
        assert new_graph.num_arcs == 3

    def test_orientations_with_different_weights(self):
        # A hand-made "undirected" CSR: arc (0, 1) weighs 4, arc (1, 0)
        # weighs 6. Each orientation reports its own old weight.
        g = CSRGraph([0, 2, 4, 5], [1, 2, 0, 2, 0], [4, 3, 6, 2, 3], undirected=True)
        _, delta = assert_same_update(g, UpdateBatch.build(reweights=([0], [1], [5])))
        np.testing.assert_array_equal(delta.old_weights, [4, 6])
        np.testing.assert_array_equal(delta.improved_tails, [1])
        np.testing.assert_array_equal(delta.worsened_tails, [0])
        _, delta = assert_same_update(g, UpdateBatch.build(deletes=([1], [0])))
        np.testing.assert_array_equal(delta.worsened_weights, [6, 4])


class TestHypothesisBatches:
    @settings(deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 2**31 - 1),
        churn=st.floats(0.005, 0.5),
        insert=st.floats(0.0, 1.0),
        delete=st.floats(0.0, 1.0),
        directed=st.booleans(),
        weight_sorted=st.booleans(),
    )
    def test_stream_of_three(self, seed, churn, insert, delete, directed, weight_sorted):
        g = directed_graph(seed % 5) if directed else rmat_graph(5, seed=seed % 5)
        if weight_sorted:
            g = g.sorted_by_weight()
        rng = np.random.default_rng(seed)
        total = max(insert + delete, 1.0) * (1 + 1e-9)  # shares sum to <= 1
        for _ in range(3):
            batch = random_update_batch(
                g, rng, churn_fraction=churn, max_weight=6,
                insert_fraction=insert / total, delete_fraction=delete / total,
            )
            g, _ = assert_same_update(g, batch)


class TestSpliceArcs:
    def test_remove_and_add_at_the_same_key(self):
        indptr = np.array([0, 2, 3])
        keys = np.array([1, 3, 4])  # row = key // 4
        new_indptr, (vals,) = splice_arcs(
            indptr, keys, (np.array([10, 30, 40]),),
            np.array([3]), np.array([7, 0, 3]), (np.array([70, 0, 33]),), 4,
        )
        np.testing.assert_array_equal(new_indptr, [0, 3, 5])
        np.testing.assert_array_equal(vals, [0, 10, 33, 40, 70])

    def test_apply_batch_has_no_whole_graph_round_trip(self):
        source = inspect.getsource(apply_batch) + inspect.getsource(splice_arcs)
        for banned in ("to_edge_list", "isin", "from_edges("):
            assert banned not in source
        assert not hasattr(updates, "_arc_weights")
