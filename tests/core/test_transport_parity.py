"""One kernel set, two transports: what is left to check.

The orchestrated solve and the SPMD solve make the *same* kernel pass
(:mod:`repro.core.phases`, ``pruning``, ``bellman_ford``) over the same
whole-graph view; they differ only in the transport (exchanges declared vs.
records moved). So the engines cannot disagree about the algorithm, and the
one differential worth running is over exactly that pair: the declaring
transport and the mailbox must produce the same distances and, field for
field, the same accounting records. :func:`assert_parity` is that comparison,
stated once; the fixed-graph rows of the older suites
(``tests/core/test_mode_parity.py``, ``tests/core/test_stepping.py``,
``tests/spmd/test_spmd.py``) call it under the ids they have always had.
The unit tests below pin the two seams themselves.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SolverConfig, preset
from repro.core.context import make_context
from repro.core.delta_stepping import DeltaSteppingEngine
from repro.core.distances import init_distances
from repro.core.transport import DeclaredTransport
from repro.core.views import active_per_rank, rank_cuts, whole_graph_view
from repro.graph.builder import from_undirected_edges
from repro.obs.tracer import TraceConfig
from repro.runtime.costmodel import evaluate_cost
from repro.runtime.machine import MachineConfig
from repro.spmd.engine import spmd_delta_stepping

CONFIGS = {
    "delta": SolverConfig(delta=5),
    "opt": preset("opt", 5),
    "lb-opt": preset("lb-opt", 5),
    "radius": preset("radius"),
    "rho": SolverConfig(strategy="rho", rho=8),
}
#: flag overrides that only the delta strategy accepts
DELTA_VARIANTS = (
    {"use_ios": False},
    {"use_ios": True},
    {"use_pruning": True, "pushpull_mode": "push"},
    {"use_pruning": True, "pushpull_mode": "pull"},
)


def random_graph(seed: int):
    """Undirected graph with zero-weight edges and disconnected vertices."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    m = int(rng.integers(0, 4 * n))
    tails = rng.integers(0, n, m)
    heads = rng.integers(0, n, m)
    keep = tails != heads
    weights = rng.integers(0, 12, int(keep.sum()))
    return from_undirected_edges(tails[keep], heads[keep], weights, n)


def both_drivers(graph, root, machine, config, moved=None):
    """``moved(graph, root, machine)`` replaces the rank driver's entry
    point."""
    ctx = make_context(graph, machine, config)
    d_declared = DeltaSteppingEngine(ctx).run(root)
    if moved is None:
        moved = functools.partial(spmd_delta_stepping, config=config)
    d_moved, ctx_moved = moved(graph, root, machine)
    return (d_declared, ctx.metrics), (d_moved, ctx_moved.metrics)


def assert_parity(graph, root, machine, config, moved=None):
    """Both drivers agree on the distances and on every accounting fact:
    the step records field for field — hence ``summary()`` and the priced
    cost — the per-bucket stats (members, relaxations, chosen mode and its
    estimates) and the per-phase relaxation series. Returns the declared
    side's ``(distances, metrics)`` for a row's own assertions."""
    (d_a, m_a), (d_b, m_b) = both_drivers(graph, root, machine, config, moved)
    assert np.array_equal(d_a, d_b)
    assert m_a.records == m_b.records
    assert m_a.summary() == m_b.summary()
    assert m_a.per_bucket_stats == m_b.per_bucket_stats
    assert m_a.per_phase_relaxations == m_b.per_phase_relaxations
    assert evaluate_cost(m_a, machine) == evaluate_cost(m_b, machine)
    return d_a, m_a


class TestTransportParity:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.sampled_from(sorted(CONFIGS)),
        st.sampled_from(DELTA_VARIANTS),
        st.integers(1, 5),
    )
    def test_declared_equals_moved(self, seed, name, variant, ranks):
        config = CONFIGS[name]
        if config.strategy == "delta":
            config = config.evolve(**variant)
        graph = random_graph(seed)
        machine = MachineConfig(num_ranks=ranks, threads_per_rank=2)
        assert_parity(graph, seed % graph.num_vertices, machine, config)

    @pytest.mark.parametrize("ranks, use_ios", [(3, False), (4, True)])
    def test_fixed_graphs(self, rmat2_small, ranks, use_ios):
        """RMAT-2 at Δ=25: the rows that used to compare only the
        per-bucket stats (3 ranks) and the phase series (4 ranks, IOS)."""
        machine = MachineConfig(num_ranks=ranks, threads_per_rank=2)
        _, metrics = assert_parity(
            rmat2_small, 7, machine, SolverConfig(delta=25, use_ios=use_ios)
        )
        assert metrics.per_bucket_stats and metrics.per_phase_relaxations


class TestTelemetryParity:
    def test_span_sequences_equal(self, rmat1_small):
        """Both drivers emit the same spans and instants with the same
        attribute keys; only the mailbox's ``superstep`` spans are extra."""
        machine = MachineConfig(num_ranks=4, threads_per_rank=2)
        config = preset("opt", 25).evolve(trace=TraceConfig())
        (_, m_a), (_, m_b) = both_drivers(rmat1_small, 3, machine, config)

        def shape(metrics):
            return [
                (e["type"], e["name"], e.get("cat"), sorted(e["args"]))
                for e in metrics.tracer.events
                if e["type"] != "record" and e.get("cat") != "superstep"
            ]

        declared, moved = shape(m_a), shape(m_b)
        assert declared == moved
        names = {name for _, name, _, _ in declared}
        assert {"solve", "short", "long", "bf", "hybrid-check"} <= names


class TestWholeGraphView:
    @pytest.fixture()
    def ctx(self, rmat1_small):
        machine = MachineConfig(num_ranks=4, threads_per_rank=2)
        return make_context(rmat1_small, machine, preset("opt", 25))

    def test_shares_the_csr(self, ctx):
        n = ctx.graph.num_vertices
        d = init_distances(n, 0)
        view = whole_graph_view(ctx, d, np.zeros(n, dtype=bool))
        assert np.shares_memory(view.indptr, ctx.graph.indptr)
        assert np.shares_memory(view.adj, ctx.graph.adj)
        assert np.shares_memory(view.weights, ctx.graph.weights)
        assert np.shares_memory(view.short_offsets, ctx.short_offsets)
        assert view.d is d
        assert view.num_unsettled == n

    def test_identity_addressing_allocates_nothing(self, ctx):
        """Vertex ids are global everywhere: the view has no rank, no range
        and no id translation to apply."""
        n = ctx.graph.num_vertices
        view = whole_graph_view(ctx, init_distances(n, 0), np.zeros(n, dtype=bool))
        for gone in ("rank", "lo", "hi", "to_global", "to_local", "num_local"):
            assert not hasattr(view, gone)
        ids = np.array([3, 1, 4], dtype=np.int64)
        nd = np.array([5, 6, 7], dtype=np.int64)
        assert view.apply(ids, nd).tolist() == [1, 3, 4]
        assert view.d[ids].tolist() == nd.tolist()

    def test_per_rank_facts_match_rank_states(self, ctx):
        """The per-rank facts are cuts of sorted ids at the partition
        boundaries: equal to what each rank would count over its own block."""
        n = ctx.graph.num_vertices
        rng = np.random.default_rng(5)
        active = np.flatnonzero(rng.random(n) < 0.3)
        whole = whole_graph_view(ctx, init_distances(n, 0), np.zeros(n, dtype=bool))
        whole.active = active
        ranges = [ctx.partition.rank_range(r) for r in range(ctx.machine.num_ranks)]
        mine = [active[(active >= lo) & (active < hi)] for lo, hi in ranges]
        assert active_per_rank(ctx, whole).tolist() == [m.size for m in mine]
        cuts = rank_cuts(ctx, active)
        assert [active[a:b].tolist() for a, b in zip(cuts[:-1], cuts[1:])] == [
            m.tolist() for m in mine
        ]


class TestDeclaredTransport:
    def make(self, path_graph):
        machine = MachineConfig(num_ranks=2, threads_per_rank=1)
        ctx = make_context(path_graph, machine, SolverConfig(delta=5))
        return ctx, DeclaredTransport(ctx.comm)

    def exchanges(self, ctx):
        return [r for r in ctx.metrics.records if r.kind == "exchange"]

    def test_one_exchange_per_deliver_columns_unreordered(self, path_graph):
        ctx, transport = self.make(path_graph)
        src = np.array([0, 4, 1], dtype=np.int64)
        dst = np.array([4, 0, 3], dtype=np.int64)
        nd = np.array([70, 10, 30], dtype=np.int64)
        transport.send(src, dst, nd)
        transport.send(src[:1], dst[:1], nd[:1] + 1)
        got_dst, got_nd = transport.exchange(16, phase_kind="short")
        assert got_dst.tolist() == [4, 0, 3, 4]
        assert got_nd.tolist() == [70, 10, 30, 71]
        (exchange,) = self.exchanges(ctx)
        assert exchange.phase_kind == "short"
        # vertices 0-2 live on rank 0, 3-4 on rank 1: all four records cross
        assert exchange.bytes_total == 4 * 16

    def test_single_post_is_handed_back_uncopied(self, path_graph):
        _, transport = self.make(path_graph)
        dst = np.array([1], dtype=np.int64)
        nd = np.array([9], dtype=np.int64)
        transport.send(np.array([0], dtype=np.int64), dst, nd)
        got_dst, got_nd = transport.exchange(16)
        assert got_dst is dst and got_nd is nd

    def test_idle_deliver_still_declares_an_exchange(self, path_graph):
        ctx, transport = self.make(path_graph)
        columns = transport.exchange(24, num_columns=3)
        assert [c.size for c in columns] == [0, 0, 0]
        assert len(self.exchanges(ctx)) == 1

    def test_allreduces_return_the_single_value(self, path_graph):
        ctx, transport = self.make(path_graph)
        assert transport.allreduce_sum(7) == 7
        assert transport.allreduce_min(3) == 3
        assert transport.allreduce_sum(5, phase_kind="recovery") == 5
        assert ctx.metrics.total_allreduces == 3
        assert [r.phase_kind for r in ctx.metrics.records] == [
            "bucket", "bucket", "recovery"
        ]

    def test_column_count_mismatch_rejected(self, path_graph):
        _, transport = self.make(path_graph)
        ids = np.array([0], dtype=np.int64)
        transport.send(ids, ids, ids)
        with pytest.raises(ValueError, match="columns"):
            transport.exchange(24, num_columns=3)
