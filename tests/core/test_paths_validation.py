"""Unit tests for path reconstruction and structural validation."""

import numpy as np
import pytest

from repro.core.distances import INF
from repro.core.paths import (
    NO_PARENT,
    build_parent_tree,
    extract_path,
    tree_depths,
)
from repro.core.reference import dijkstra_reference
from repro.core.validation import validate_sssp_structure
from repro.graph.builder import from_undirected_edges
from repro.graph.rmat import rmat_graph


class TestBuildParentTree:
    def test_path_graph_chain(self, path_graph):
        d = dijkstra_reference(path_graph, 0)
        parent = build_parent_tree(path_graph, d, 0)
        assert parent[0] == NO_PARENT
        assert list(parent[1:]) == [0, 1, 2, 3]

    def test_tree_edges_are_tight(self, rmat1_small):
        d = dijkstra_reference(rmat1_small, 3)
        parent = build_parent_tree(rmat1_small, d, 3)
        for v in range(rmat1_small.num_vertices):
            u = parent[v]
            if u == NO_PARENT:
                continue
            nbrs = rmat1_small.neighbors(u)
            ws = rmat1_small.neighbor_weights(u)
            i = np.nonzero(nbrs == v)[0]
            assert i.size >= 1
            assert np.any(d[u] + ws[i] == d[v])

    def test_unreached_have_no_parent(self, disconnected_graph):
        d = dijkstra_reference(disconnected_graph, 0)
        parent = build_parent_tree(disconnected_graph, d, 0)
        assert parent[2] == NO_PARENT
        assert parent[4] == NO_PARENT

    def test_invalid_distances_rejected(self, path_graph):
        d = dijkstra_reference(path_graph, 0)
        d[3] -= 1  # unattainable distance
        with pytest.raises(ValueError, match="no tight incoming arc"):
            build_parent_tree(path_graph, d, 0)

    def test_shape_checked(self, path_graph):
        with pytest.raises(ValueError, match="shape"):
            build_parent_tree(path_graph, np.zeros(3, np.int64), 0)


class TestExtractPath:
    def test_full_path(self, path_graph):
        d = dijkstra_reference(path_graph, 0)
        parent = build_parent_tree(path_graph, d, 0)
        assert extract_path(parent, 0, 4) == [0, 1, 2, 3, 4]

    def test_root_path(self, path_graph):
        d = dijkstra_reference(path_graph, 0)
        parent = build_parent_tree(path_graph, d, 0)
        assert extract_path(parent, 0, 0) == [0]

    def test_unreached_target(self, disconnected_graph):
        d = dijkstra_reference(disconnected_graph, 0)
        parent = build_parent_tree(disconnected_graph, d, 0)
        assert extract_path(parent, 0, 3) == []

    def test_cycle_detected(self):
        # vertices 1 and 2 point at each other; the root is disjoint
        parent = np.array([NO_PARENT, 2, 1], dtype=np.int64)
        with pytest.raises(ValueError, match="cycle"):
            extract_path(parent, 0, 1)

    def test_path_cost_matches_distance(self, rmat1_small):
        d = dijkstra_reference(rmat1_small, 3)
        parent = build_parent_tree(rmat1_small, d, 3)
        far = int(np.argmax(np.where(d < INF, d, -1)))
        path = extract_path(parent, 3, far)
        cost = 0
        for u, v in zip(path, path[1:]):
            nbrs = rmat1_small.neighbors(u)
            ws = rmat1_small.neighbor_weights(u)
            i = np.nonzero(nbrs == v)[0][0]
            cost += int(ws[i])
        assert cost == int(d[far])


class TestTreeDepths:
    def test_path_depths(self, path_graph):
        d = dijkstra_reference(path_graph, 0)
        parent = build_parent_tree(path_graph, d, 0)
        assert list(tree_depths(parent, 0)) == [0, 1, 2, 3, 4]

    def test_unreached_minus_one(self, disconnected_graph):
        d = dijkstra_reference(disconnected_graph, 0)
        parent = build_parent_tree(disconnected_graph, d, 0)
        depth = tree_depths(parent, 0)
        assert depth[2] == -1 and depth[4] == -1
        assert depth[0] == 0 and depth[1] == 1


class TestStructuralValidation:
    def test_accepts_correct_result(self, rmat1_small):
        d = dijkstra_reference(rmat1_small, 3)
        report = validate_sssp_structure(rmat1_small, 3, d)
        assert report.valid
        assert report.num_reached == int((d < INF).sum())
        assert report.tree_edges == report.num_reached - 1
        report.raise_if_invalid()

    def test_rejects_nonzero_root(self, path_graph):
        d = dijkstra_reference(path_graph, 0)
        d[0] = 1
        report = validate_sssp_structure(path_graph, 0, d)
        assert not report.valid
        assert any("root" in f for f in report.failures)

    def test_rejects_infeasible_edge(self, path_graph):
        d = dijkstra_reference(path_graph, 0)
        d[2] += 100  # violates d[2] <= d[1] + 3
        report = validate_sssp_structure(path_graph, 0, d)
        assert not report.valid

    def test_rejects_too_small_distance(self, path_graph):
        # Feasible but unattained distances must be rejected too.
        d = dijkstra_reference(path_graph, 0)
        d[4] -= 1
        report = validate_sssp_structure(path_graph, 0, d)
        assert not report.valid

    def test_rejects_mixed_reached_unreached_edge(self, path_graph):
        d = dijkstra_reference(path_graph, 0)
        d[4] = INF
        report = validate_sssp_structure(path_graph, 0, d)
        assert not report.valid
        assert any("unreached" in f for f in report.failures)

    def test_rejects_shape_mismatch(self, path_graph):
        report = validate_sssp_structure(path_graph, 0, np.zeros(2, np.int64))
        assert not report.valid

    def test_raise_if_invalid(self, path_graph):
        d = dijkstra_reference(path_graph, 0)
        d[0] = 5
        with pytest.raises(AssertionError, match="validation failed"):
            validate_sssp_structure(path_graph, 0, d).raise_if_invalid()

    def test_accepts_zero_weight_graphs(self):
        g = from_undirected_edges(
            np.array([0, 1]), np.array([1, 2]), np.array([0, 3]), 3
        )
        d = dijkstra_reference(g, 0)
        assert validate_sssp_structure(g, 0, d).valid

    def test_detects_random_corruption(self):
        g = rmat_graph(scale=9, seed=9)
        d = dijkstra_reference(g, 5)
        rng = np.random.default_rng(0)
        detected = 0
        trials = 20
        for _ in range(trials):
            bad = d.copy()
            v = int(rng.integers(0, g.num_vertices))
            if bad[v] >= INF:
                bad[v] = 7
            else:
                bad[v] += int(rng.integers(1, 100))
            if bad[v] != d[v]:
                report = validate_sssp_structure(g, 5, bad)
                detected += not report.valid
        assert detected == trials
