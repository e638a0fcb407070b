"""Unit tests for the distributed Bellman-Ford implementation."""

import numpy as np
import pytest

from repro.core.bellman_ford import bellman_ford_stage
from repro.core.config import DELTA_INFINITY, SolverConfig
from repro.core.context import make_context
from repro.core.delta_stepping import DeltaSteppingEngine
from repro.core.distances import INF, init_distances
from repro.core.reference import dijkstra_reference
from repro.core.transport import DeclaredTransport
from repro.core.views import whole_graph_view
from repro.runtime.machine import MachineConfig


def ctx_for(graph, ranks=2, threads=2):
    machine = MachineConfig(num_ranks=ranks, threads_per_rank=threads)
    return make_context(graph, machine, SolverConfig(delta=DELTA_INFINITY))


def solve_bf(ctx, root):
    """Δ = ∞ through the whole-graph driver: the whole solve is the stage."""
    return DeltaSteppingEngine(ctx).run(root)


def stage_from(ctx, d, active):
    """Run the stage on the view over ``d`` from ``active``."""
    view = whole_graph_view(
        ctx, d, np.zeros(d.size, dtype=bool), np.array(active, dtype=np.int64)
    )
    return bellman_ford_stage(ctx, view, DeclaredTransport(ctx.comm))


class TestCorrectness:
    def test_path_graph(self, path_graph):
        ctx = ctx_for(path_graph)
        d = solve_bf(ctx, 0)
        assert np.array_equal(d, dijkstra_reference(path_graph, 0))

    def test_diamond(self, diamond_graph):
        ctx = ctx_for(diamond_graph)
        d = solve_bf(ctx, 0)
        assert list(d) == [0, 1, 2, 2]

    def test_disconnected_leaves_inf(self, disconnected_graph):
        ctx = ctx_for(disconnected_graph)
        d = solve_bf(ctx, 0)
        assert d[2] == INF and d[4] == INF

    def test_rmat(self, rmat1_small):
        ctx = ctx_for(rmat1_small, ranks=4)
        d = solve_bf(ctx, 5)
        assert np.array_equal(d, dijkstra_reference(rmat1_small, 5))

    def test_single_vertex(self):
        from repro.graph.csr import CSRGraph

        g = CSRGraph(np.array([0, 0]), np.array([]), np.array([]))
        ctx = ctx_for(g, ranks=1, threads=1)
        d = solve_bf(ctx, 0)
        assert list(d) == [0]


class TestPhaseSemantics:
    def test_phase_count_bounded_by_tree_depth(self, path_graph):
        ctx = ctx_for(path_graph)
        solve_bf(ctx, 0)
        # path of 5 vertices: 4 productive iterations + 1 empty check
        assert ctx.metrics.bf_phases == 5

    def test_relaxation_count(self, star_graph):
        ctx = ctx_for(star_graph)
        solve_bf(ctx, 0)
        # root relaxes 8 arcs; each leaf relaxes its single arc back: 16 total
        assert ctx.metrics.total_relaxations == 16

    def test_termination_allreduce_per_iteration(self, path_graph):
        ctx = ctx_for(path_graph)
        solve_bf(ctx, 0)
        # one allreduce per while-loop pass, including the final empty one
        assert ctx.metrics.total_allreduces == ctx.metrics.bf_phases + 1

    def test_stage_resumes_from_state(self, path_graph):
        # Mimic the hybrid hand-off: distances partially computed.
        ctx = ctx_for(path_graph)
        d = init_distances(5, 0)
        d[1] = 5  # already settled by a previous stage
        iters = stage_from(ctx, d, [1])
        assert iters > 0
        assert np.array_equal(d, dijkstra_reference(path_graph, 0))

    def test_stage_with_no_active_is_noop(self, path_graph):
        ctx = ctx_for(path_graph)
        d = init_distances(5, 0)
        before = d.copy()
        iters = stage_from(ctx, d, [])
        assert iters == 0
        assert np.array_equal(d, before)


class TestViaEngine:
    def test_engine_dispatches_bf_for_delta_infinity(self, rmat1_small):
        ctx = ctx_for(rmat1_small)
        d = solve_bf(ctx, 3)
        assert np.array_equal(d, dijkstra_reference(rmat1_small, 3))
        assert ctx.metrics.buckets_processed == 0
        assert ctx.metrics.short_phases == 0
