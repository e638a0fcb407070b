"""Unit tests for the CSR graph container."""

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from repro.graph.builder import from_edges, from_undirected_edges
from repro.graph.csr import CSRGraph


def make_simple() -> CSRGraph:
    # 0 -> 1 (w2), 0 -> 2 (w7), 1 -> 2 (w1), directed arcs
    indptr = np.array([0, 2, 3, 3])
    adj = np.array([1, 2, 2])
    weights = np.array([2, 7, 1])
    return CSRGraph(indptr, adj, weights, undirected=False)


class TestConstruction:
    def test_shapes(self):
        g = make_simple()
        assert g.num_vertices == 3
        assert g.num_arcs == 3
        assert g.num_undirected_edges == 3  # directed: arcs == edges

    def test_undirected_edge_count_halves_arcs(self, path_graph):
        assert path_graph.num_arcs == 8
        assert path_graph.num_undirected_edges == 4

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(ValueError, match="indptr"):
            CSRGraph(np.array([1, 2]), np.array([0]), np.array([1]))

    def test_indptr_monotone(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            CSRGraph(np.array([0, 2, 1, 2]), np.array([0, 1]), np.array([1, 1]))

    def test_adj_length_checked(self):
        with pytest.raises(ValueError, match="adj"):
            CSRGraph(np.array([0, 2]), np.array([0]), np.array([1]))

    def test_weights_alignment_checked(self):
        with pytest.raises(ValueError, match="weights"):
            CSRGraph(np.array([0, 1]), np.array([0]), np.array([1, 2]))

    def test_adjacency_bounds_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            CSRGraph(np.array([0, 1]), np.array([5]), np.array([1]))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            CSRGraph(np.array([0, 1, 1]), np.array([1]), np.array([-1]))

    def test_zero_weights_allowed(self):
        g = CSRGraph(np.array([0, 1, 1]), np.array([1]), np.array([0]))
        assert g.max_weight == 0

    def test_empty_graph(self):
        g = CSRGraph(np.array([0]), np.array([]), np.array([]))
        assert g.num_vertices == 0
        assert g.num_arcs == 0
        assert g.max_weight == 0

    def test_dtype_coercion(self):
        g = CSRGraph(
            np.array([0, 1], dtype=np.int32),
            np.array([0], dtype=np.int16),
            np.array([3], dtype=np.uint8),
        )
        assert g.indptr.dtype == np.int64
        assert g.adj.dtype == np.int64
        assert g.weights.dtype == np.int64


class TestAccessors:
    def test_degrees(self):
        g = make_simple()
        assert list(g.degrees) == [2, 1, 0]

    def test_degrees_differenced_once_and_read_only(self):
        """One table per graph, shared by every context built on it: it
        must not be written through."""
        g = make_simple()
        assert g.degrees is g.degrees
        with pytest.raises(ValueError, match="read-only"):
            g.degrees[0] = 5
        assert list(g.sorted_by_weight().degrees) == [2, 1, 0]

    def test_degree_scalar(self):
        g = make_simple()
        assert g.degree(0) == 2
        assert g.degree(2) == 0

    def test_neighbors_and_weights(self):
        g = make_simple()
        assert list(g.neighbors(0)) == [1, 2]
        assert list(g.neighbor_weights(0)) == [2, 7]

    def test_max_weight(self):
        assert make_simple().max_weight == 7

    def test_max_weight_is_reduced_once_per_graph(self):
        g = make_simple()
        assert "max_weight" not in vars(g)
        assert g.max_weight == 7
        assert vars(g)["max_weight"] == 7  # later reads hit the instance dict
        # the cache is per instance: a derived graph reduces its own arrays
        assert "max_weight" not in vars(g.sorted_by_weight())

    def test_arc_tails(self):
        g = make_simple()
        assert list(g.arc_tails()) == [0, 0, 1]

    def test_to_edge_list_round_trip(self, path_graph):
        tails, heads, weights = path_graph.to_edge_list()
        g2 = from_undirected_edges(
            tails[tails < heads], heads[tails < heads], weights[tails < heads], 5
        )
        assert np.array_equal(g2.indptr, path_graph.indptr)
        assert np.array_equal(g2.adj, path_graph.adj)
        assert np.array_equal(g2.weights, path_graph.weights)


class TestSortedByWeight:
    def test_sorting_preserves_edge_multiset(self, rmat1_small):
        g = rmat1_small
        s = g.sorted_by_weight()
        assert np.array_equal(s.indptr, g.indptr)
        for u in (0, 1, 5, g.num_vertices - 1):
            orig = sorted(
                zip(g.neighbors(u).tolist(), g.neighbor_weights(u).tolist())
            )
            new = sorted(
                zip(s.neighbors(u).tolist(), s.neighbor_weights(u).tolist())
            )
            assert orig == new

    def test_sorted_is_weight_monotone_per_vertex(self, rmat1_small):
        s = rmat1_small.sorted_by_weight()
        for u in range(0, s.num_vertices, 37):
            w = s.neighbor_weights(u)
            assert np.all(np.diff(w) >= 0)

    def test_sorted_idempotent(self, path_graph):
        s = path_graph.sorted_by_weight()
        assert s.sorted_by_weight() is s

    def test_short_edge_offsets_requires_sorted(self, path_graph):
        with pytest.raises(ValueError, match="sorted"):
            path_graph.short_edge_offsets(5)

    def test_short_edge_offsets_counts(self, path_graph):
        s = path_graph.sorted_by_weight()
        off = s.short_edge_offsets(5)
        # Vertex 0 has one incident edge of weight 5 -> not short for delta=5.
        assert off[0] == 0
        # Vertex 2 has edges w3 and w7; only w3 < 5.
        assert off[2] == 1
        # offsets never exceed degree
        assert np.all(off <= s.degrees)

    def test_short_edge_offsets_extremes(self, rmat1_small):
        s = rmat1_small.sorted_by_weight()
        assert np.array_equal(s.short_edge_offsets(1), np.zeros(s.num_vertices))
        assert np.array_equal(s.short_edge_offsets(10**9), s.degrees)


def short_edge_offsets_by_search(g, delta):
    """Per-vertex ``searchsorted`` over each weight-sorted adjacency list."""
    return np.array(
        [
            np.searchsorted(g.neighbor_weights(u), delta, side="left")
            for u in range(g.num_vertices)
        ],
        dtype=np.int64,
    )


class TestShortEdgeOffsetsAgainstSearch:
    def test_isolated_vertices_and_extreme_deltas(self):
        # vertices 0, 3 and 6 are isolated (first, middle, last)
        g = from_undirected_edges(
            np.array([1, 1, 2, 4]), np.array([2, 4, 5, 5]),
            np.array([3, 9, 3, 20]), 7,
        ).sorted_by_weight()
        for delta in (0, 1, 3, 4, 9, 20, 21, 2**60):  # below min … above max
            off = g.short_edge_offsets(delta)
            assert off.dtype == np.int64
            assert np.array_equal(off, short_edge_offsets_by_search(g, delta))
        assert not g.short_edge_offsets(3).any()
        assert np.array_equal(g.short_edge_offsets(21), g.degrees)

    def test_edgeless_graph(self):
        g = CSRGraph(np.zeros(4, np.int64), np.empty(0, np.int64),
                     np.empty(0, np.int64)).sorted_by_weight()
        assert np.array_equal(g.short_edge_offsets(5), np.zeros(3, np.int64))

    @pytest.mark.parametrize("delta", [1, 7, 25, 100, 256, 10**6])
    def test_rmat(self, rmat1_small, delta):
        g = rmat1_small.sorted_by_weight()
        assert np.array_equal(
            g.short_edge_offsets(delta), short_edge_offsets_by_search(g, delta)
        )


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=2, max_value=32))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.integers(0, 50),
            ),
            max_size=96,
        )
    )
    tails = np.array([e[0] for e in edges], dtype=np.int64)
    heads = np.array([e[1] for e in edges], dtype=np.int64)
    weights = np.array([e[2] for e in edges], dtype=np.int64)
    return n, tails, heads, weights


def assert_same_csr(a, b) -> None:
    assert a.undirected == b.undirected
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.adj, b.adj)
    np.testing.assert_array_equal(a.weights, b.weights)


class TestEdgeListRoundTripProperty:
    """Hypothesis: ``to_edge_list`` is lossless against the builder."""

    @settings(deadline=None, max_examples=60)
    @given(edge_lists())
    def test_undirected_round_trip(self, spec):
        n, tails, heads, weights = spec
        g = from_undirected_edges(tails, heads, weights, n)
        t, h, w = g.to_edge_list()
        # Arcs are already symmetric and deduplicated, so a plain
        # rebuild must reproduce the CSR arrays bit for bit.
        rebuilt = from_edges(t, h, w, n, undirected=True)
        assert_same_csr(g, rebuilt)

    @settings(deadline=None, max_examples=60)
    @given(edge_lists())
    def test_directed_round_trip(self, spec):
        n, tails, heads, weights = spec
        g = from_edges(tails, heads, weights, n)
        rebuilt = from_edges(*g.to_edge_list(), n)
        assert_same_csr(g, rebuilt)

    @settings(deadline=None, max_examples=60)
    @given(edge_lists())
    def test_reverse_is_an_involution(self, spec):
        n, tails, heads, weights = spec
        g = from_edges(tails, heads, weights, n)
        assert_same_csr(g, g.reverse().reverse())

    @settings(deadline=None, max_examples=60)
    @given(edge_lists())
    def test_reverse_fixes_undirected_graphs(self, spec):
        n, tails, heads, weights = spec
        g = from_undirected_edges(tails, heads, weights, n)
        # A symmetrized graph is its own reverse, arrays included.
        assert_same_csr(g, g.reverse())


class TestReverse:
    def test_reverse_directed(self):
        g = make_simple()
        r = g.reverse()
        assert r.num_arcs == g.num_arcs
        assert list(r.neighbors(2)) == [0, 1]
        assert list(r.neighbors(0)) == []
        # weight follows the arc
        i = list(r.neighbors(2)).index(0)
        assert r.neighbor_weights(2)[i] == 7

    def test_reverse_undirected_is_same_graph(self, path_graph):
        r = path_graph.reverse()
        for u in range(path_graph.num_vertices):
            assert sorted(r.neighbors(u).tolist()) == sorted(
                path_graph.neighbors(u).tolist()
            )
