"""Unit tests for the push/pull long-phase implementations (incl. Fig. 6)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SolverConfig
from repro.core.context import inner_counts, make_context
from repro.core.delta_stepping import DeltaSteppingEngine
from repro.core.distances import INF, init_distances
from repro.core.pruning import (
    bucket_census,
    gather_pull_requests,
    gather_push_records,
    long_phase_pull,
    long_phase_push,
    pull_responders,
)
from repro.core.phases import short_records
from repro.core.reference import dijkstra_reference
from repro.core.transport import DeclaredTransport
from repro.core.views import whole_graph_view
from repro.graph.builder import from_edges
from repro.runtime.machine import MachineConfig

from tests.core.oracles import (
    bucket_members,
    gather_push_records_oracle,
    short_records_oracle,
)


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


# ----------------------------------------------------------------------
# The pull gather against the per-arc eq.-(1) filter it replaced
# ----------------------------------------------------------------------
def eq1_requests(ctx, view, later, k):
    """``(req_v, req_u, req_w, gen_units)`` arc by arc: every in-arc of
    every later vertex tested against ``w < d(v) - kΔ``."""
    indptr, adj, weights, short = view.pull_rows()
    bound = view.d - k * ctx.config.delta
    req, gen = [], []
    for v in later.tolist():
        first = indptr[v] + (0 if ctx.config.use_ios else short[v])
        passing = [a for a in range(first, indptr[v + 1]) if weights[a] < bound[v]]
        req += [(v, adj[a], weights[a]) for a in passing]
        gen.append(len(passing) + 1.0)
    cols = np.array(req, dtype=np.int64).reshape(-1, 3).T
    return (*cols, np.array(gen))


@st.composite
def pull_states(draw):
    """A small graph — directed or not, zero weights allowed, isolated
    vertices likely — and a mid-solve state: every vertex up to bucket
    ``k`` settled, reached and unreached later ones."""
    n = draw(st.integers(2, 24))
    m = draw(st.integers(0, 60))
    ends = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    tails, heads = np.array(draw(ends), np.int64), np.array(draw(ends), np.int64)
    weights = np.array(
        draw(st.lists(st.integers(0, 40), min_size=m, max_size=m)), np.int64
    )
    directed = draw(st.booleans())
    if not directed:
        tails, heads = np.concatenate([tails, heads]), np.concatenate([heads, tails])
        weights = np.concatenate([weights, weights])
    graph = from_edges(tails, heads, weights, n, undirected=not directed)
    delta = draw(st.integers(1, 30))
    ctx = ctx_for(graph, delta=delta, use_ios=draw(st.booleans()))
    k = draw(st.integers(0, 4))
    lo, hi = k * delta, (k + 1) * delta
    # Bounds d(v) - kΔ that equal an arc weight or the largest one: the
    # edges of the strict eq.-(1) test and of the whole-row rule.
    edge = st.sampled_from([int(w) for w in weights] + [0]).map(lambda w: lo + w)
    d = np.array(draw(st.lists(
        st.one_of(
            st.integers(0, hi + 80), st.just(int(INF)), edge,
            st.just(lo + graph.max_weight),
        ),
        min_size=n, max_size=n,
    )), dtype=np.int64)
    settled = d < hi
    return ctx, whole_graph_view(ctx, d, settled), k, lo, hi


class TestPullGatherProperty:
    @settings(max_examples=300, deadline=None)
    @given(state=pull_states())
    def test_prefix_gather_equals_the_per_arc_filter(self, state):
        """Same four arrays, in the same order, with the same dtypes."""
        ctx, view, k, _, hi = state
        later = view.later(hi)
        got = gather_pull_requests(ctx, view, later, k)
        want = eq1_requests(ctx, view, later, k)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tolist() == b.tolist()

    @settings(max_examples=150, deadline=None)
    @given(
        state=pull_states(),
        picks=st.lists(st.integers(0, 23), max_size=40),
        unsettled=st.lists(st.integers(0, 23), max_size=6),
    )
    def test_responders_are_the_settled_bucket_members(self, state, picks, unsettled):
        ctx, view, k, lo, hi = state
        view.settled[[p % view.d.size for p in unsettled]] = False
        u = np.array([p % view.d.size for p in picks], dtype=np.int64)
        d_u = view.d[u]
        want = view.settled[u] & (d_u >= lo) & (d_u < hi)
        assert pull_responders(ctx, view, u, k).tolist() == want.tolist()


# ----------------------------------------------------------------------
# The short phase and the IOS push gather against the per-arc filter
# ----------------------------------------------------------------------
@st.composite
def window_states(draw):
    """A small graph — directed or not, zero weights allowed, isolated
    vertices likely, Δ from 1 to past the largest weight (the clamped
    column) — on 1–4 ranks, and a window ``[lo, hi)`` of bucket ``k``
    holding a random share of the vertices; the rest lie below it,
    above it or unreached."""
    n = draw(st.integers(1, 24))
    m = draw(st.integers(0, 60))
    ends = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    tails, heads = np.array(draw(ends), np.int64), np.array(draw(ends), np.int64)
    w_top = draw(st.sampled_from([0, 1, 5, 40]))
    weights = np.array(
        draw(st.lists(st.integers(0, w_top), min_size=m, max_size=m)), np.int64
    )
    directed = draw(st.booleans())
    if not directed:
        tails, heads = np.concatenate([tails, heads]), np.concatenate([heads, tails])
        weights = np.concatenate([weights, weights])
    graph = from_edges(tails, heads, weights, n, undirected=not directed)
    delta = draw(st.one_of(st.just(1), st.integers(1, 60)))
    ctx = ctx_for(
        graph, delta=delta, ranks=draw(st.integers(1, 4)), threads=1,
        use_ios=draw(st.booleans()),
    )
    k = draw(st.integers(0, 3))
    lo, hi = k * delta, (k + 1) * delta
    d = np.array(draw(st.lists(
        st.one_of(
            st.integers(lo, hi - 1), st.integers(0, hi + 80), st.just(int(INF))
        ),
        min_size=n, max_size=n,
    )), dtype=np.int64)
    view = whole_graph_view(ctx, d, d < lo)
    window = np.flatnonzero((d >= lo) & (d < hi))
    keep = draw(st.lists(st.booleans(), min_size=window.size, max_size=window.size))
    return ctx, view, k, hi, window, window[np.array(keep, dtype=bool)]


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tolist() == b.tolist()


class TestInnerPrefixProperty:
    """``short_records`` and the push gather read the inner short arcs as
    a prefix off the table; the parent's per-arc filter is the oracle."""

    @settings(max_examples=200, deadline=None)
    @given(state=window_states())
    def test_short_records_equal_the_per_arc_filter(self, state):
        ctx, view, _, hi, _, active = state
        short = view.short_offsets[active]
        assert_same_arrays(
            short_records(ctx, view, active, short, hi),
            short_records_oracle(ctx, view, active, short, hi),
        )

    @settings(max_examples=200, deadline=None)
    @given(state=window_states())
    def test_push_gather_equals_the_per_arc_filter(self, state):
        """Same batches in the same order, and the same scanned units, for
        members anywhere in the vertex range (rank cuts included)."""
        ctx, view, k, _, members, _ = state
        view.settled[members] = True
        (got, got_units), (want, want_units) = (
            gather(ctx, view, members, k)
            for gather in (gather_push_records, gather_push_records_oracle)
        )
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same_arrays(a, b)
        assert_same_arrays([got_units], [want_units])

    @settings(max_examples=100, deadline=None)
    @given(state=window_states())
    def test_table_counts_the_short_arcs_below_every_bound(self, state):
        ctx, view = state[:2]
        graph, delta = ctx.graph, ctx.config.delta
        table = inner_counts(graph, delta)
        width = min(delta, graph.max_weight + 1)
        assert table.shape == (graph.num_vertices, width + 1)
        assert np.iinfo(table.dtype).max >= ctx.short_offsets.max(initial=0)
        for u in range(graph.num_vertices):
            w = graph.neighbor_weights(u)
            want = [int(((w < b) & (w < delta)).sum()) for b in range(width + 1)]
            assert table[u].tolist() == want

    @pytest.mark.parametrize("leaves, dtype", [(255, np.uint8), (256, np.uint16)])
    def test_table_type_is_the_narrowest_that_holds_a_short_degree(
        self, leaves, dtype
    ):
        hub = np.zeros(leaves, dtype=np.int64)
        graph = from_edges(hub, np.arange(1, leaves + 1), np.ones(leaves, np.int64),
                           leaves + 1, undirected=False)
        table = inner_counts(graph.sorted_by_weight(), 5)
        assert table.dtype == dtype and table[0].tolist() == [0, 0, leaves]

    def test_the_paranoid_split_check_trips_on_a_short_prefix(self, star_graph):
        """A table read one column low classifies an inner arc outer."""
        from repro.runtime.guards import GuardViolation

        ctx = ctx_for(star_graph, delta=5, use_ios=True, paranoid=True)
        d = init_distances(star_graph.num_vertices, 0)
        view = whole_graph_view(ctx, d, np.zeros(d.size, dtype=bool))
        hub, hi = np.array([0]), 5
        args = (view.indptr[hub], view.short_offsets[hub])
        # The hub's short arcs weigh 1…4: all four are inner at d = 0.
        ctx.guards.check_ios_split(*args, np.array([4]), d[hub], view.weights, hi)
        with pytest.raises(GuardViolation, match="edge conservation"):
            ctx.guards.check_ios_split(*args, np.array([3]), d[hub], view.weights, hi)
