"""Unit tests for hybrid switch rule and inter-node vertex splitting."""

import numpy as np
import pytest

from repro.core.hybrid import DEFAULT_TAU, should_switch
from repro.core.load_balance import _occurrence_index, split_heavy_vertices
from repro.core.reference import dijkstra_reference
from repro.graph.rmat import RMAT1, rmat_graph


class TestHybridRule:
    def test_default_tau_matches_paper(self):
        assert DEFAULT_TAU == 0.4

    def test_switch_thresholds(self):
        assert should_switch(2, 5, tau=0.3)
        assert not should_switch(2, 5, tau=0.4)  # strict inequality
        assert not should_switch(2, 5, tau=0.5)

    def test_empty_always_switches(self):
        assert should_switch(0, 0, tau=0.9)


class TestOccurrenceIndex:
    def test_docstring_example(self):
        out = _occurrence_index(np.array([7, 3, 7, 7, 3]))
        assert list(out) == [0, 0, 1, 2, 1]

    def test_empty(self):
        assert _occurrence_index(np.array([], dtype=np.int64)).size == 0

    def test_all_same(self):
        assert list(_occurrence_index(np.array([5, 5, 5]))) == [0, 1, 2]

    def test_all_distinct(self):
        assert list(_occurrence_index(np.array([3, 1, 2]))) == [0, 0, 0]


class TestSplitHeavyVertices:
    def test_no_heavy_vertices_identity(self, path_graph):
        res = split_heavy_vertices(path_graph, threshold=10)
        assert res.num_proxies == 0
        assert res.graph is path_graph
        assert np.array_equal(res.new_id_of_original, np.arange(5))

    def test_star_hub_split(self, star_graph):
        res = split_heavy_vertices(star_graph, threshold=3, shuffle=False)
        assert res.num_split_vertices == 1
        # degree 8 with threshold 3 -> ceil(8/3) = 3 proxies
        assert res.num_proxies == 3
        assert res.graph.num_vertices == 9 + 3

    def test_proxy_degrees_bounded(self, star_graph):
        res = split_heavy_vertices(star_graph, threshold=3, shuffle=False)
        g = res.graph
        # proxies (ids 9..11) have at most threshold + 1 arcs (chunk + spoke)
        for p in (9, 10, 11):
            assert g.degree(p) <= 4
        # the original hub keeps exactly its 3 zero-weight spokes
        assert g.degree(0) == 3
        assert np.all(g.neighbor_weights(0) == 0)

    def test_distances_preserved_star(self, star_graph):
        res = split_heavy_vertices(star_graph, threshold=3, seed=1)
        ref = dijkstra_reference(star_graph, 1)
        d_new = dijkstra_reference(res.graph, int(res.new_id_of_original[1]))
        assert np.array_equal(res.distances_for_original(d_new), ref)

    def test_distances_preserved_rmat(self):
        g = rmat_graph(scale=8, seed=2, params=RMAT1)
        res = split_heavy_vertices(g, threshold=32, seed=3)
        assert res.num_proxies > 0
        root = 5
        ref = dijkstra_reference(g, root)
        d_new = dijkstra_reference(res.graph, int(res.new_id_of_original[root]))
        assert np.array_equal(res.distances_for_original(d_new), ref)

    def test_max_degree_reduced(self):
        g = rmat_graph(scale=9, seed=2, params=RMAT1)
        threshold = 24
        res = split_heavy_vertices(g, threshold=threshold, shuffle=False)
        assert res.graph.degrees.max() <= g.degrees.max()
        # Proxies keep at most threshold original arcs + 1 spoke; split
        # originals keep only their spokes.
        heavy = np.nonzero(g.degrees > threshold)[0]
        for u in heavy[:10]:
            assert res.graph.degree(int(u)) == -(-g.degree(int(u)) // threshold)

    def test_shuffle_scatters_proxies(self):
        g = rmat_graph(scale=9, seed=2, params=RMAT1)
        res = split_heavy_vertices(g, threshold=24, shuffle=True, seed=0)
        # original ids are a permutation subset, not the identity prefix
        assert not np.array_equal(
            res.new_id_of_original, np.arange(g.num_vertices)
        )
        assert len(set(res.new_id_of_original.tolist())) == g.num_vertices

    def test_both_endpoints_heavy(self):
        # Two hubs connected to each other and to many leaves.
        from repro.graph.builder import from_undirected_edges

        n = 22
        hub_a, hub_b = 0, 1
        leaves_a = np.arange(2, 12)
        leaves_b = np.arange(12, 22)
        tails = np.concatenate([[hub_a], np.full(10, hub_a), np.full(10, hub_b)])
        heads = np.concatenate([[hub_b], leaves_a, leaves_b])
        w = np.ones(tails.size, dtype=np.int64) * 3
        g = from_undirected_edges(tails, heads, w, n)
        res = split_heavy_vertices(g, threshold=4, seed=5)
        assert res.num_split_vertices == 2
        ref = dijkstra_reference(g, 2)
        d_new = dijkstra_reference(res.graph, int(res.new_id_of_original[2]))
        assert np.array_equal(res.distances_for_original(d_new), ref)

    def test_invalid_threshold(self, star_graph):
        with pytest.raises(ValueError):
            split_heavy_vertices(star_graph, threshold=0)

    def test_directed_graph_rejected(self):
        from repro.graph.builder import from_edges

        g = from_edges(np.array([0]), np.array([1]), np.array([1]), 2)
        with pytest.raises(ValueError, match="undirected"):
            split_heavy_vertices(g, threshold=1)
