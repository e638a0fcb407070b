"""Unit tests for the push/pull long-phase implementations (incl. Fig. 6)."""

import numpy as np
import pytest

from repro.core.buckets import bucket_members
from repro.core.config import SolverConfig
from repro.core.context import make_context
from repro.core.delta_stepping import DeltaSteppingEngine
from repro.core.distances import init_distances
from repro.core.pruning import (
    bucket_census,
    gather_pull_requests,
    gather_push_records,
    long_phase_pull,
    long_phase_push,
)
from repro.core.reference import dijkstra_reference
from repro.core.transport import DeclaredTransport
from repro.core.views import whole_graph_view
from repro.runtime.machine import MachineConfig


def ctx_for(graph, *, delta=5, ranks=2, threads=2, **cfg):
    machine = MachineConfig(num_ranks=ranks, threads_per_rank=threads)
    return make_context(graph, machine, SolverConfig(delta=delta, **cfg))


def push_records(ctx, d, members, k):
    """(src, dst, nd, scanned) of the push model, batches concatenated."""
    view = whole_graph_view(ctx, d, np.zeros(d.size, dtype=bool))
    batches, scanned = gather_push_records(ctx, view, members, k)
    src, dst, nd = (np.concatenate(col) for col in zip(*batches))
    return src, dst, nd, scanned


def pull_requests(ctx, d, settled, k):
    view = whole_graph_view(ctx, d, settled)
    later = view.later((k + 1) * ctx.config.delta)
    return gather_pull_requests(ctx, view, later, k)


def push(ctx, d, settled, members, k):
    """The push kernel on the view over ``(d, settled)``."""
    view = whole_graph_view(ctx, d, settled)
    return long_phase_push(ctx, view, DeclaredTransport(ctx.comm), members, k)


def pull(ctx, d, settled, k):
    view = whole_graph_view(ctx, d, settled)
    return long_phase_pull(ctx, view, DeclaredTransport(ctx.comm), k)


class TestFig6Example:
    """The paper's Fig. 6: push costs 40 total; pull in the second long
    phase costs 10 instead of 30."""

    def _state_after_bucket0(self, ctx, graph):
        d = init_distances(graph.num_vertices, 0)
        settled = np.zeros(graph.num_vertices, dtype=bool)
        # bucket 0 = {root}; no short edges; settle and long-phase push.
        members = bucket_members(d, settled, 0, 5)
        settled[members] = True
        stats = push(ctx, d, settled, members, 0)
        return d, settled, stats

    def test_first_long_phase_relaxes_root_edges(self, fig6_graph):
        ctx = ctx_for(fig6_graph)
        d, settled, stats = self._state_after_bucket0(ctx, fig6_graph)
        assert stats["relaxations"] == 5  # the root's clique edges
        # clique vertices now at distance 10 = bucket 2
        assert np.all(d[1:6] == 10)

    def test_second_iteration_push_costs_30(self, fig6_graph):
        ctx = ctx_for(fig6_graph)
        d, settled, _ = self._state_after_bucket0(ctx, fig6_graph)
        members = bucket_members(d, settled, 2, 5)
        settled[members] = True
        stats = push(ctx, d, settled, members, 2)
        # each clique vertex relaxes 4 clique arcs + 1 root arc + 1 pendant
        assert stats["relaxations"] == 30

    def test_second_iteration_pull_costs_10(self, fig6_graph):
        ctx = ctx_for(fig6_graph)
        d, settled, _ = self._state_after_bucket0(ctx, fig6_graph)
        members = bucket_members(d, settled, 2, 5)
        settled[members] = True
        stats = pull(ctx, d, settled, 2)
        # 5 pendant requests + 5 responses = 10 (the paper's count)
        assert stats["requests"] == 5
        assert stats["responses"] == 5
        assert stats["relaxations"] == 10
        assert np.all(d[6:] == 20)

    def test_push_and_pull_produce_identical_distances(self, fig6_graph):
        for mode in ("push", "pull"):
            ctx = ctx_for(
                fig6_graph, use_pruning=True, pushpull_mode=mode
            )
            d = DeltaSteppingEngine(ctx).run(0)
            assert np.array_equal(d, dijkstra_reference(fig6_graph, 0))


class TestGatherHelpers:
    def test_push_records_cover_all_long_arcs(self, rmat1_small):
        ctx = ctx_for(rmat1_small, delta=25)
        d = dijkstra_reference(rmat1_small, 3)
        members = np.nonzero((d >= 0) & (d < 25))[0]
        src, dst, nd, scanned = push_records(ctx, d, members, 0)
        assert src.size == ctx.long_degrees[members].sum()
        assert np.all(nd == d[src] + 0 + (nd - d[src]))  # nd consistent
        assert scanned.sum() >= src.size

    def test_push_with_ios_includes_outer_short(self, rmat1_small):
        ctx_plain = ctx_for(rmat1_small, delta=25)
        ctx_ios = ctx_for(rmat1_small, delta=25, use_ios=True)
        d = dijkstra_reference(rmat1_small, 3)
        members = np.nonzero(d < 25)[0]
        plain = push_records(ctx_plain, d, members, 0)[0].size
        ios = push_records(ctx_ios, d, members, 0)[0].size
        assert ios >= plain

    def test_pull_requests_respect_eq1(self, rmat1_small):
        ctx = ctx_for(rmat1_small, delta=25)
        d = dijkstra_reference(rmat1_small, 3).copy()
        settled = d < 25
        req_v, req_u, req_w, gen = pull_requests(ctx, d, settled, 0)
        # every request satisfies w < d(v) - k*delta with k = 0
        assert np.all(req_w < d[req_v])
        # and all requests ride long arcs when IOS is off
        assert np.all(req_w >= 25)

    def test_pull_requests_with_ios_include_short_arcs(self, rmat1_small):
        ctx = ctx_for(rmat1_small, delta=25, use_ios=True)
        d = dijkstra_reference(rmat1_small, 3).copy()
        settled = d < 25
        _, _, req_w, _ = pull_requests(ctx, d, settled, 0)
        assert req_w.size == 0 or req_w.min() < 25

    def test_empty_members(self, rmat1_small):
        ctx = ctx_for(rmat1_small)
        d = init_distances(rmat1_small.num_vertices, 3)
        src, dst, nd, scanned = push_records(
            ctx, d, np.empty(0, dtype=np.int64), 0
        )
        assert src.size == 0 and scanned.size == 0


class TestPhaseAccounting:
    def test_pull_counts_requests_plus_responses(self, fig6_graph):
        ctx = ctx_for(fig6_graph)
        d = init_distances(11, 0)
        settled = np.zeros(11, dtype=bool)
        members = bucket_members(d, settled, 0, 5)
        settled[members] = True
        push(ctx, d, settled, members, 0)
        before = ctx.metrics.total_relaxations
        members2 = bucket_members(d, settled, 2, 5)
        settled[members2] = True
        stats = pull(ctx, d, settled, 2)
        counted = ctx.metrics.total_relaxations - before
        assert counted == stats["requests"] + stats["responses"]

    def test_push_notes_long_phase(self, fig6_graph):
        ctx = ctx_for(fig6_graph)
        d = init_distances(11, 0)
        settled = np.zeros(11, dtype=bool)
        members = bucket_members(d, settled, 0, 5)
        settled[members] = True
        push(ctx, d, settled, members, 0)
        assert ctx.metrics.long_phases == 1

    def test_empty_pull_noop(self, path_graph):
        ctx = ctx_for(path_graph, delta=100)
        d = dijkstra_reference(path_graph, 0)
        settled = np.ones(5, dtype=bool)
        before = d.copy()
        stats = pull(ctx, d, settled, 0)
        assert np.array_equal(d, before)
        assert stats["relaxations"] == 0


class TestBucketCensus:
    def test_fig6_bucket2_census(self, fig6_graph):
        ctx = ctx_for(fig6_graph)
        d = init_distances(11, 0)
        settled = np.zeros(11, dtype=bool)
        members0 = bucket_members(d, settled, 0, 5)
        settled[members0] = True
        push(ctx, d, settled, members0, 0)
        members2 = bucket_members(d, settled, 2, 5)
        settled[members2] = True
        census = bucket_census(ctx, whole_graph_view(ctx, d, settled), members2, 2)
        # clique vertices: 5*4 self arcs (clique), 5 backward (to root),
        # 5 forward (to pendants)
        assert census["self_edges"] == 20
        assert census["backward_edges"] == 5
        assert census["forward_edges"] == 5
        assert census["push_relaxations"] == 30
        assert census["pull_requests"] == 5
        assert census["pull_responses"] == 5
