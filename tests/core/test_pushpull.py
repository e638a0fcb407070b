"""Unit tests for the push/pull decision heuristic and estimators."""

import numpy as np
import pytest

from repro.core.config import SolverConfig
from repro.core.context import make_context
from repro.core.distances import init_distances
from repro.core.pruning import long_phase_push
from repro.core.pushpull import (
    decide_mode,
    estimate_models,
    estimate_models_exact,
)
from repro.core.transport import DeclaredTransport
from repro.core.views import whole_graph_view
from repro.runtime.machine import MachineConfig
from tests.core.oracles import bucket_members


def ctx_for(graph, *, delta=5, ranks=2, threads=2, alpha=None, **cfg):
    machine = MachineConfig(num_ranks=ranks, threads_per_rank=threads)
    if alpha is not None:
        # On toy graphs the per-message latency dominates everything; tests
        # about volume-driven decisions zero it out.
        from dataclasses import replace

        machine = replace(machine, alpha=alpha)
    return make_context(graph, machine, SolverConfig(delta=delta, **cfg))


def fig6_state_bucket2(ctx, graph):
    """Distances/settled right before the Fig. 6 bucket-2 long phase."""
    d = init_distances(graph.num_vertices, 0)
    settled = np.zeros(graph.num_vertices, dtype=bool)
    members0 = bucket_members(d, settled, 0, 5)
    settled[members0] = True
    view = whole_graph_view(ctx, d, settled)
    long_phase_push(ctx, view, DeclaredTransport(ctx.comm), members0, 0)
    members2 = bucket_members(d, settled, 2, 5)
    settled[members2] = True
    return d, settled, members2


def estimate(ctx, d, settled, members, k):
    """The expectation estimator on the view over ``(d, settled)``."""
    return estimate_models(ctx, whole_graph_view(ctx, d, settled), members, k)


def decide(ctx, d, settled, members, k, ordinal):
    return decide_mode(ctx, whole_graph_view(ctx, d, settled), members, k, ordinal)


class TestExpectationEstimator:
    def test_push_records_exact(self, fig6_graph):
        ctx = ctx_for(fig6_graph, use_pruning=True)
        d, settled, members = fig6_state_bucket2(ctx, fig6_graph)
        est = estimate(ctx, d, settled, members, 2)
        assert est.push_records == 30  # exact from the long-degree table

    def test_pull_estimate_positive_and_bounded(self, fig6_graph):
        ctx = ctx_for(fig6_graph, use_pruning=True)
        d, settled, members = fig6_state_bucket2(ctx, fig6_graph)
        est = estimate(ctx, d, settled, members, 2)
        assert 0 < est.pull_requests <= 5  # 5 pendant arcs max

    def test_prefers_pull_for_heavy_bucket(self, fig6_graph):
        ctx = ctx_for(fig6_graph, use_pruning=True, alpha=0.0)
        d, settled, members = fig6_state_bucket2(ctx, fig6_graph)
        est = estimate(ctx, d, settled, members, 2)
        assert est.choice == "pull"

    def test_alpha_dominated_machine_prefers_push(self, fig6_graph):
        # With a high per-message latency the single push round beats the
        # pull request/response round trip on a tiny bucket.
        ctx = ctx_for(fig6_graph, use_pruning=True)
        d, settled, members = fig6_state_bucket2(ctx, fig6_graph)
        est = estimate(ctx, d, settled, members, 2)
        assert est.choice == "push"

    def test_empty_bucket_edges(self, path_graph):
        ctx = ctx_for(path_graph, use_pruning=True)
        d = init_distances(5, 0)
        settled = np.ones(5, dtype=bool)
        est = estimate(ctx, d, settled, np.empty(0, dtype=np.int64), 0)
        assert est.push_records == 0 and est.pull_requests == 0
        assert est.choice == "push"  # tie goes to push


class TestExactEstimator:
    def test_matches_true_counts_on_fig6(self, fig6_graph):
        ctx = ctx_for(fig6_graph, use_pruning=True, alpha=0.0)
        d, settled, members = fig6_state_bucket2(ctx, fig6_graph)
        est = estimate_models_exact(
            ctx, whole_graph_view(ctx, d, settled), members, 2
        )
        assert est.push_records == 30
        assert est.pull_requests == 5
        assert est.choice == "pull"
        assert est.estimator == "exact"

    def test_does_not_mutate_state(self, fig6_graph):
        ctx = ctx_for(fig6_graph, use_pruning=True)
        d, settled, members = fig6_state_bucket2(ctx, fig6_graph)
        d_before = d.copy()
        records_before = len(ctx.metrics.records)
        estimate_models_exact(ctx, whole_graph_view(ctx, d, settled), members, 2)
        assert np.array_equal(d, d_before)
        assert len(ctx.metrics.records) == records_before


class TestDecideMode:
    def test_no_pruning_always_push(self, fig6_graph):
        ctx = ctx_for(fig6_graph, use_pruning=False)
        d, settled, members = fig6_state_bucket2(ctx, fig6_graph)
        mode, est = decide(ctx, d, settled, members, 2, 0)
        assert mode == "push" and est is None

    def test_forced_modes(self, fig6_graph):
        for forced in ("push", "pull"):
            ctx = ctx_for(fig6_graph, use_pruning=True, pushpull_mode=forced)
            d, settled, members = fig6_state_bucket2(ctx, fig6_graph)
            mode, _ = decide(ctx, d, settled, members, 2, 0)
            assert mode == forced

    def test_sequence_replay_and_fallback(self, fig6_graph):
        ctx = ctx_for(
            fig6_graph,
            use_pruning=True,
            pushpull_mode="sequence",
            pushpull_sequence=("push",),
        )
        d, settled, members = fig6_state_bucket2(ctx, fig6_graph)
        mode, _ = decide(ctx, d, settled, members, 2, 0)
        assert mode == "push"
        # past the end of the sequence: falls back to the heuristic
        mode2, est2 = decide(ctx, d, settled, members, 2, 5)
        assert est2 is not None

    def test_auto_charges_allreduces(self, fig6_graph):
        ctx = ctx_for(fig6_graph, use_pruning=True)
        d, settled, members = fig6_state_bucket2(ctx, fig6_graph)
        before = ctx.metrics.total_allreduces
        decide(ctx, d, settled, members, 2, 0)
        assert ctx.metrics.total_allreduces == before + 2

    def test_exact_estimator_selected_by_config(self, fig6_graph):
        ctx = ctx_for(
            fig6_graph, use_pruning=True, pushpull_estimator="exact"
        )
        d, settled, members = fig6_state_bucket2(ctx, fig6_graph)
        _, est = decide(ctx, d, settled, members, 2, 0)
        assert est.estimator == "exact"

    def test_imbalance_weight_zero_is_volume_only(self, fig6_graph):
        ctx = ctx_for(fig6_graph, use_pruning=True, imbalance_weight=0.0)
        d, settled, members = fig6_state_bucket2(ctx, fig6_graph)
        est = estimate(ctx, d, settled, members, 2)
        # with zero imbalance weight the cost is purely volume + alpha terms
        m = ctx.machine
        from repro.runtime.comm import RELAX_RECORD_BYTES

        expected_push = (
            m.beta * est.push_records * RELAX_RECORD_BYTES + m.alpha * m.num_ranks
        )
        assert est.push_cost == pytest.approx(expected_push)
