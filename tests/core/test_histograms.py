"""Unit tests for per-vertex weight histograms and the histogram estimator."""

import numpy as np
import pytest

from repro.core.config import SolverConfig
from repro.core.context import make_context
from repro.core.histograms import build_weight_histogram
from repro.core.reference import dijkstra_reference
from repro.core.solver import solve_sssp
from repro.core.views import whole_graph_view
from repro.runtime.machine import MachineConfig


class TestBuildWeightHistogram:
    def test_last_column_equals_degree(self, rmat1_small):
        hist = build_weight_histogram(rmat1_small, num_bins=8)
        assert np.array_equal(hist.cumulative[:, -1], rmat1_small.degrees)

    def test_cumulative_monotone(self, rmat1_small):
        hist = build_weight_histogram(rmat1_small, num_bins=8)
        assert np.all(np.diff(hist.cumulative, axis=1) >= 0)

    def test_bin_edges_count_exactly(self, rmat1_small):
        hist = build_weight_histogram(rmat1_small, num_bins=8)
        g = rmat1_small
        # at a bin edge the histogram count is exact
        for u in range(0, g.num_vertices, 97):
            for k in (1, 3, 8):
                threshold = k * hist.bin_width
                exact = int((g.neighbor_weights(u) < threshold).sum())
                est = hist.count_below(
                    np.array([u]), np.array([float(threshold)])
                )[0]
                assert est == pytest.approx(exact)

    def test_interpolation_bounded_by_neighbors(self, rmat1_small):
        hist = build_weight_histogram(rmat1_small, num_bins=4)
        u = int(np.argmax(rmat1_small.degrees))
        mid = 1.5 * hist.bin_width
        est = hist.count_below(np.array([u]), np.array([mid]))[0]
        lo = hist.cumulative[u, 1]
        hi = hist.cumulative[u, 2]
        assert lo <= est <= hi

    def test_thresholds_clipped(self, rmat1_small):
        hist = build_weight_histogram(rmat1_small, num_bins=4)
        u = 0
        big = hist.count_below(np.array([u]), np.array([1e9]))[0]
        assert big == rmat1_small.degree(0)
        neg = hist.count_below(np.array([u]), np.array([-5.0]))[0]
        assert neg == 0

    def test_shape_mismatch(self, rmat1_small):
        hist = build_weight_histogram(rmat1_small)
        with pytest.raises(ValueError):
            hist.count_below(np.array([0, 1]), np.array([1.0]))

    def test_invalid_bins(self, rmat1_small):
        with pytest.raises(ValueError):
            build_weight_histogram(rmat1_small, num_bins=0)

    def test_empty_graph(self):
        from repro.graph.csr import CSRGraph

        g = CSRGraph(np.array([0, 0]), np.array([]), np.array([]))
        hist = build_weight_histogram(g, num_bins=4)
        assert hist.cumulative.shape == (1, 5)


class TestHistogramEstimator:
    def test_distances_still_exact(self, rmat2_small):
        cfg = SolverConfig(
            delta=25, use_ios=True, use_pruning=True, use_hybrid=True,
            pushpull_estimator="histogram",
        )
        res = solve_sssp(rmat2_small, 11, algorithm="hist", config=cfg,
                         num_ranks=4, threads_per_rank=2)
        assert np.array_equal(res.distances, dijkstra_reference(rmat2_small, 11))

    def test_histogram_built_only_when_needed(self, rmat1_small):
        machine = MachineConfig(num_ranks=2, threads_per_rank=2)
        ctx = make_context(
            rmat1_small, machine, SolverConfig(delta=25, use_pruning=True)
        )
        assert ctx.weight_histogram is None
        ctx = make_context(
            rmat1_small, machine,
            SolverConfig(delta=25, use_pruning=True,
                         pushpull_estimator="histogram"),
        )
        assert ctx.weight_histogram is not None

    def test_estimator_requires_histogram(self, rmat1_small):
        from repro.core.pushpull import estimate_models_histogram

        machine = MachineConfig(num_ranks=2, threads_per_rank=2)
        ctx = make_context(rmat1_small, machine, SolverConfig(delta=25))
        d = dijkstra_reference(rmat1_small, 3)
        with pytest.raises(ValueError, match="histogram"):
            estimate_models_histogram(
                ctx, whole_graph_view(ctx, d, d < 25),
                np.array([], dtype=np.int64), 0,
            )

    def test_histogram_close_to_exact_request_count(self, rmat1_small):
        """With enough bins the histogram estimate approaches the truth."""
        from repro.core.pruning import gather_pull_requests
        from repro.core.pushpull import estimate_models_histogram

        machine = MachineConfig(num_ranks=2, threads_per_rank=2)
        cfg = SolverConfig(delta=25, use_ios=True, use_pruning=True,
                           pushpull_estimator="histogram", histogram_bins=64)
        ctx = make_context(rmat1_small, machine, cfg)
        d = dijkstra_reference(rmat1_small, 3).copy()
        settled = d < 50  # pretend buckets 0-1 settled, k = 1
        members = np.nonzero((d >= 25) & (d < 50))[0]
        view = whole_graph_view(ctx, d, settled)
        est = estimate_models_histogram(ctx, view, members, 1)
        req_v, _, _, _ = gather_pull_requests(ctx, view, view.later(50), 1)
        exact = req_v.size
        assert est.pull_requests == pytest.approx(exact, rel=0.15)
