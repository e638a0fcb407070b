"""Input hardening of the graph persistence layer.

Corrupt, truncated or semantically invalid graph files must fail loudly
with a clear ``ValueError`` instead of propagating as wrong distances or
cryptic downstream index errors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.io import load_npz, read_edge_list, save_npz, write_edge_list
from repro.graph.builder import from_undirected_edges


@pytest.fixture
def small_graph():
    return from_undirected_edges(
        np.array([0, 1, 2]), np.array([1, 2, 3]), np.array([5, 3, 7]), 4
    )


class TestEdgeListValidation:
    def _write(self, tmp_path, text):
        path = tmp_path / "edges.txt"
        path.write_text(text)
        return path

    def test_round_trip_still_works(self, tmp_path, small_graph):
        path = tmp_path / "g.txt"
        write_edge_list(small_graph, path)
        g = read_edge_list(path)
        assert np.array_equal(g.indptr, small_graph.indptr)
        assert np.array_equal(g.adj, small_graph.adj)
        assert np.array_equal(g.weights, small_graph.weights)

    def test_negative_weight_rejected(self, tmp_path):
        path = self._write(tmp_path, "0 1 5\n1 2 -3\n")
        with pytest.raises(ValueError, match="negative edge weight"):
            read_edge_list(path)

    def test_negative_endpoint_rejected(self, tmp_path):
        path = self._write(tmp_path, "0 1 5\n-1 2 3\n")
        with pytest.raises(ValueError, match="negative vertex id"):
            read_edge_list(path)

    def test_endpoint_out_of_declared_range_rejected(self, tmp_path):
        path = self._write(tmp_path, "0 1 5\n1 9 3\n")
        with pytest.raises(ValueError, match="out of range"):
            read_edge_list(path, num_vertices=4)

    def test_wrong_column_count_rejected(self, tmp_path):
        path = self._write(tmp_path, "0 1\n1 2\n")
        with pytest.raises(ValueError, match="three columns"):
            read_edge_list(path)

    def test_endpoints_within_explicit_range_accepted(self, tmp_path):
        path = self._write(tmp_path, "0 1 5\n")
        g = read_edge_list(path, num_vertices=10)
        assert g.num_vertices == 10


class TestNpzValidation:
    def test_round_trip_still_works(self, tmp_path, small_graph):
        path = tmp_path / "g.npz"
        save_npz(small_graph, path)
        g = load_npz(path)
        assert np.array_equal(g.indptr, small_graph.indptr)
        assert np.array_equal(g.adj, small_graph.adj)
        assert np.array_equal(g.weights, small_graph.weights)
        assert g.undirected == small_graph.undirected

    def test_missing_key_rejected(self, tmp_path, small_graph):
        path = tmp_path / "g.npz"
        np.savez(path, indptr=small_graph.indptr, adj=small_graph.adj)
        with pytest.raises(ValueError, match="missing keys"):
            load_npz(path)

    def test_inconsistent_indptr_rejected(self, tmp_path, small_graph):
        path = tmp_path / "g.npz"
        bad = small_graph.indptr.copy()
        bad[-1] += 4  # claims more arcs than the adjacency array holds
        np.savez(path, indptr=bad, adj=small_graph.adj,
                 weights=small_graph.weights, undirected=np.array([True]))
        with pytest.raises(ValueError, match="inconsistent"):
            load_npz(path)

    def test_decreasing_indptr_rejected(self, tmp_path, small_graph):
        path = tmp_path / "g.npz"
        bad = small_graph.indptr.copy()
        bad[1], bad[2] = bad[2], bad[1] - 1  # force a decrease
        np.savez(path, indptr=bad, adj=small_graph.adj,
                 weights=small_graph.weights, undirected=np.array([True]))
        with pytest.raises(ValueError):
            load_npz(path)

    def test_out_of_range_endpoint_rejected(self, tmp_path, small_graph):
        path = tmp_path / "g.npz"
        bad = small_graph.adj.copy()
        bad[0] = small_graph.num_vertices + 7
        np.savez(path, indptr=small_graph.indptr, adj=bad,
                 weights=small_graph.weights, undirected=np.array([True]))
        with pytest.raises(ValueError, match="out of range"):
            load_npz(path)

    def test_negative_weight_rejected(self, tmp_path, small_graph):
        path = tmp_path / "g.npz"
        bad = small_graph.weights.copy()
        bad[0] = -1
        np.savez(path, indptr=small_graph.indptr, adj=small_graph.adj,
                 weights=bad, undirected=np.array([True]))
        with pytest.raises(ValueError, match="negative edge weight"):
            load_npz(path)

    def test_weight_length_mismatch_rejected(self, tmp_path, small_graph):
        path = tmp_path / "g.npz"
        np.savez(path, indptr=small_graph.indptr, adj=small_graph.adj,
                 weights=small_graph.weights[:-1],
                 undirected=np.array([True]))
        with pytest.raises(ValueError, match="differ in length"):
            load_npz(path)


class TestRootValidation:
    def test_solve_sssp_rejects_out_of_range_root(self, small_graph):
        from repro.core.solver import solve_sssp

        for bad in (-1, 4, 10_000):
            with pytest.raises(ValueError, match="out of range"):
                solve_sssp(small_graph, bad, num_ranks=2, threads_per_rank=2)

    def test_batch_solver_rejects_out_of_range_root(self, small_graph):
        from repro.core.solver import BatchSolver

        solver = BatchSolver(small_graph, num_ranks=2, threads_per_rank=2)
        with pytest.raises(ValueError, match="out of range"):
            solver.solve(-3)
        with pytest.raises(ValueError, match="out of range"):
            solver.solve(4)

    def test_solve_with_faults_rejects_out_of_range_root(self, small_graph):
        from repro.core.solver import solve_sssp
        from repro.spmd.faults import FaultPlan

        with pytest.raises(ValueError, match="out of range"):
            solve_sssp(small_graph, 99, faults=FaultPlan(), num_ranks=2,
                       threads_per_rank=2)
