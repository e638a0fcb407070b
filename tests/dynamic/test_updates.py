"""Update-batch validation and snapshot construction (DESIGN.md §15)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dynamic.updates import (
    UpdateBatch,
    apply_batch,
    random_update_batch,
)
from repro.graph.rmat import rmat_graph


def edge_set(graph) -> dict[tuple[int, int], int]:
    """Canonical undirected edge set {(min, max): weight}."""
    tails, heads, weights = graph.to_edge_list()
    out = {}
    for t, h, w in zip(tails, heads, weights):
        if t < h:
            out[(int(t), int(h))] = int(w)
    return out


class TestUpdateBatchValidation:
    def test_build_empty(self):
        batch = UpdateBatch.build()
        assert batch.is_empty
        assert batch.size == 0

    def test_build_counts(self):
        batch = UpdateBatch.build(
            inserts=([0], [1], [7]),
            deletes=([2], [3]),
            reweights=([4, 5], [5, 6], [1, 2]),
        )
        assert batch.num_inserts == 1
        assert batch.num_deletes == 1
        assert batch.num_reweights == 2
        assert batch.size == 4

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            UpdateBatch.build(inserts=([3], [3], [1]))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            UpdateBatch.build(inserts=([0], [1], [-4]))

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(ValueError):
            UpdateBatch.build(inserts=([0, 1], [1], [2]))

    def test_validate_rejects_out_of_range(self, path_graph):
        batch = UpdateBatch.build(inserts=([0], [99], [1]))
        with pytest.raises(ValueError, match="range"):
            batch.validate_against(path_graph)

    def test_validate_rejects_insert_of_existing_edge(self, path_graph):
        batch = UpdateBatch.build(inserts=([0], [1], [9]))
        with pytest.raises(ValueError, match="reweight"):
            batch.validate_against(path_graph)

    def test_validate_rejects_delete_of_absent_edge(self, path_graph):
        batch = UpdateBatch.build(deletes=([0], [4]))
        with pytest.raises(ValueError, match="absent|exist|name"):
            batch.validate_against(path_graph)

    def test_validate_rejects_reweight_of_absent_edge(self, path_graph):
        batch = UpdateBatch.build(reweights=([0], [4], [3]))
        with pytest.raises(ValueError):
            batch.validate_against(path_graph)

    def test_validate_rejects_duplicate_edge_across_ops(self, path_graph):
        batch = UpdateBatch.build(
            deletes=([0], [1]), reweights=([1], [0], [5])
        )
        with pytest.raises(ValueError, match="once|duplicate"):
            batch.validate_against(path_graph)


class TestApplyBatch:
    def test_insert_delete_reweight_roundtrip(self, path_graph):
        # path 0-1-2-3-4; delete 2-3, reweight 0-1 to 9, insert 0-4 w=2.
        batch = UpdateBatch.build(
            inserts=([0], [4], [2]),
            deletes=([2], [3]),
            reweights=([0], [1], [9]),
        )
        new_graph, delta = apply_batch(path_graph, batch)
        edges = edge_set(new_graph)
        assert (2, 3) not in edges
        assert edges[(0, 1)] == 9
        assert edges[(0, 4)] == 2
        assert new_graph.undirected
        # Old graph untouched (snapshots are immutable).
        assert edge_set(path_graph)[(0, 1)] == 5

    def test_delta_classifies_improved_and_worsened(self, path_graph):
        batch = UpdateBatch.build(
            inserts=([0], [4], [2]),    # improved: new edge
            deletes=([2], [3]),         # worsened: weight -> INF
            reweights=([0], [1], [9]),  # worsened: 5 -> 9
        )
        _, delta = apply_batch(path_graph, batch)
        # Both orientations of every touched edge appear.
        improved = set(zip(delta.improved_tails, delta.improved_heads))
        worsened = set(zip(delta.worsened_tails, delta.worsened_heads))
        assert (0, 4) in improved and (4, 0) in improved
        assert (2, 3) in worsened and (3, 2) in worsened
        assert (0, 1) in worsened and (1, 0) in worsened
        assert delta.num_improved == 2
        assert delta.num_worsened == 4

    def test_reweight_down_is_improved(self, path_graph):
        batch = UpdateBatch.build(reweights=([0], [1], [1]))
        _, delta = apply_batch(path_graph, batch)
        assert delta.num_improved == 2
        assert delta.num_worsened == 0
        # Improved arcs carry the NEW weight.
        assert set(delta.improved_weights) == {1}

    def test_empty_batch_is_noop(self, path_graph):
        new_graph, delta = apply_batch(path_graph, UpdateBatch.build())
        assert delta.is_empty
        assert edge_set(new_graph) == edge_set(path_graph)


class TestRandomUpdateBatch:
    def test_deterministic_per_seed(self):
        g = rmat_graph(8, seed=1)
        b1 = random_update_batch(g, np.random.default_rng(5))
        b2 = random_update_batch(g, np.random.default_rng(5))
        for name in (
            "insert_tails", "insert_heads", "insert_weights",
            "delete_tails", "delete_heads",
            "reweight_tails", "reweight_heads", "reweight_weights",
        ):
            np.testing.assert_array_equal(getattr(b1, name), getattr(b2, name))

    def test_validates_against_source_graph(self):
        g = rmat_graph(8, seed=1)
        rng = np.random.default_rng(0)
        for _ in range(5):
            batch = random_update_batch(g, rng, churn_fraction=0.05)
            batch.validate_against(g)  # raises on any malformed op
            g, _ = apply_batch(g, batch)

    def test_churn_fraction_scales_ops(self):
        g = rmat_graph(9, seed=2)
        small = random_update_batch(
            g, np.random.default_rng(1), churn_fraction=0.01
        )
        big = random_update_batch(
            g, np.random.default_rng(1), churn_fraction=0.1
        )
        assert big.size > small.size

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2**31 - 1), churn=st.floats(0.005, 0.2))
    def test_apply_preserves_csr_invariants(self, seed, churn):
        g = rmat_graph(6, seed=3)
        batch = random_update_batch(
            g, np.random.default_rng(seed), churn_fraction=churn
        )
        new_graph, delta = apply_batch(g, batch)
        # CSR invariants: sorted symmetric arc set, aligned arrays.
        assert new_graph.indptr[0] == 0
        assert new_graph.indptr[-1] == new_graph.adj.size
        assert new_graph.adj.size == new_graph.weights.size
        assert new_graph.undirected
        fwd = edge_set(new_graph)
        tails, heads, weights = new_graph.to_edge_list()
        rev = {
            (int(h), int(t)): int(w)
            for t, h, w in zip(tails, heads, weights)
            if h < t
        }
        assert fwd == rev  # both arc orientations agree
        # Delta accounting matches the actual edge-set difference.
        old = edge_set(g)
        changed = {
            e for e in set(old) | set(fwd)
            if old.get(e) != fwd.get(e)
        }
        touched = set()
        for t, h in zip(delta.improved_tails, delta.improved_heads):
            touched.add((min(int(t), int(h)), max(int(t), int(h))))
        for t, h in zip(delta.worsened_tails, delta.worsened_heads):
            touched.add((min(int(t), int(h)), max(int(t), int(h))))
        assert touched == changed


def test_random_batch_on_directed_graph_is_valid():
    tails = np.array([0, 1, 2, 3])
    heads = np.array([1, 2, 3, 0])
    weights = np.array([1, 2, 3, 4])
    from repro.graph.builder import from_edges

    g = from_edges(tails, heads, weights, 4, undirected=False)
    batch = random_update_batch(g, np.random.default_rng(0), churn_fraction=0.5)
    batch.validate_against(g)
    apply_batch(g, batch)


# ----------------------------------------------------------------------
# random_update_batch: one sorted key array answers the vacancy test of
# every insert attempt on directed and undirected graphs alike. The draw
# order is part of the contract: batches below were captured at the commit
# where the directed branch still sorted the whole graph per attempt.
from tests.dynamic.test_splice import directed_graph  # noqa: E402

BATCH_FIELDS = (
    "insert_tails", "insert_heads", "insert_weights", "delete_tails",
    "delete_heads", "reweight_tails", "reweight_heads", "reweight_weights",
)


PINNED_BATCHES = {
    "undirected": (
        lambda: rmat_graph(5, seed=3), 0.08,
        dict(
            insert_tails=[13, 31, 28, 12],
            insert_heads=[8, 5, 25, 20],
            insert_weights=[123, 166, 168, 165],
            delete_tails=[0, 2, 5, 5],
            delete_heads=[5, 30, 7, 30],
            reweight_tails=[8, 8, 15, 15],
            reweight_heads=[11, 15, 27, 30],
            reweight_weights=[12, 1, 13, 37],
        ),
    ),
    "directed": (
        directed_graph, 0.3,
        dict(
            insert_tails=[21, 8, 8, 2, 8, 13, 21, 7],
            insert_heads=[6, 21, 16, 20, 5, 21, 20, 0],
            insert_weights=[15, 14, 15, 1, 1, 10, 7, 9],
            delete_tails=[0, 0, 0, 1, 3, 6, 10, 11],
            delete_heads=[5, 13, 21, 14, 9, 20, 23, 7],
            reweight_tails=[12, 13, 14, 16, 17, 21, 22, 23, 23],
            reweight_heads=[3, 14, 1, 22, 18, 15, 23, 6, 10],
            reweight_weights=[8, 12, 10, 13, 13, 13, 2, 19, 11],
        ),
    ),
}


@pytest.mark.parametrize("kind", PINNED_BATCHES)
def test_random_batch_is_byte_identical_to_the_pinned_one(kind):
    make, churn, want = PINNED_BATCHES[kind]
    batch = random_update_batch(make(), np.random.default_rng(5), churn_fraction=churn)
    for name in BATCH_FIELDS:
        got = getattr(batch, name)
        assert got.dtype == np.int64
        assert got.tobytes() == np.array(want[name], dtype=np.int64).tobytes(), name


def test_directed_random_batch_costs_what_the_undirected_one_does():
    """Was one argsort of all arcs per insert attempt: 444 ms against
    2.8 ms at this scale."""
    import time

    from repro.graph.builder import from_edges

    undirected = rmat_graph(12, seed=1)
    directed = from_edges(
        *undirected.to_edge_list(), undirected.num_vertices, undirected=False
    )

    def best_of(graph, runs=3):
        times = []
        for _ in range(runs):
            t0 = time.perf_counter()
            random_update_batch(graph, np.random.default_rng(1))
            times.append(time.perf_counter() - t0)
        return min(times)

    assert best_of(directed) <= 5 * best_of(undirected)
