"""Unit tests for the execution context and its preprocessing."""

import numpy as np
import pytest

from repro.core.config import DELTA_INFINITY, SolverConfig
from repro.core.context import make_context
from repro.runtime.machine import MachineConfig
from repro.runtime.metrics import ComputeKind


def ctx_for(graph, *, delta=25, ranks=2, threads=2, **cfg):
    machine = MachineConfig(num_ranks=ranks, threads_per_rank=threads)
    return make_context(graph, machine, SolverConfig(delta=delta, **cfg))


class TestMakeContext:
    def test_graph_is_weight_sorted(self, rmat1_small):
        ctx = ctx_for(rmat1_small)
        for u in range(0, ctx.graph.num_vertices, 53):
            assert np.all(np.diff(ctx.graph.neighbor_weights(u)) >= 0)

    def test_short_long_tables_consistent(self, rmat1_small):
        ctx = ctx_for(rmat1_small, delta=25)
        assert np.array_equal(
            ctx.short_offsets + ctx.long_degrees, ctx.graph.degrees
        )
        # short offsets count exactly the arcs lighter than delta
        assert ctx.short_offsets.sum() == (ctx.graph.weights < 25).sum()

    def test_partition_matches_machine(self, rmat1_small):
        ctx = ctx_for(rmat1_small, ranks=4)
        assert ctx.partition.num_ranks == 4
        assert ctx.partition.num_vertices == rmat1_small.num_vertices

    def test_heavy_threshold_disabled_without_lb(self, rmat1_small):
        ctx = ctx_for(rmat1_small)
        assert ctx.heavy_threshold == float("inf")

    def test_heavy_threshold_derived_with_lb(self, rmat1_small):
        ctx = ctx_for(rmat1_small, intra_lb=True)
        assert ctx.heavy_threshold < float("inf")
        assert ctx.heavy_threshold >= 8

    @pytest.mark.parametrize("partition", ["block", "degree"])
    @pytest.mark.parametrize("ranks, threads", [(1, 1), (3, 5), (8, 8), (13, 2)])
    def test_a_vertex_thread_lies_on_its_rank(self, rmat1_small, partition, ranks, threads):
        """``thread_map // T == owner_map``: the fused delivery fold reads a
        record's destination rank off its destination thread."""
        ctx = ctx_for(rmat1_small, ranks=ranks, threads=threads, partition=partition)
        assert np.array_equal(ctx.thread_map // threads, ctx.partition.owner_map)
        maps = ctx.metrics.maps
        assert maps.thread is ctx.thread_map
        assert maps.rank is ctx.partition.owner_map


SHARED_TABLES = (
    "graph", "partition", "machine", "config", "short_offsets", "long_degrees",
    "reverse_graph", "reverse_short_offsets", "reverse_long_degrees",
    "weight_histogram", "thread_map",
)


class TestFork:
    def test_forks_share_tables_but_not_run_state(self, rmat1_small):
        template = ctx_for(rmat1_small, ranks=4)
        owner_map = template.partition.owner_map
        a, b = template.fork(), template.fork()
        for ctx in (a, b):
            for name in SHARED_TABLES:
                assert getattr(ctx, name) is getattr(template, name), name
            assert ctx.partition.owner_map is owner_map
            assert ctx.heavy_threshold == template.heavy_threshold
            assert ctx.metrics is not template.metrics
            assert ctx.comm is not template.comm
            # the communicator reports into its own context's metrics
            assert ctx.comm.metrics is ctx.metrics
            assert ctx.comm.partition is template.partition
            assert ctx.guards is None and ctx.tracer is None
        assert a.metrics is not b.metrics and a.comm is not b.comm

    def test_accounting_stays_with_the_fork(self, path_graph):
        template = ctx_for(path_graph)
        a, b = template.fork(), template.fork()
        a.comm.allreduce(3)
        a.scan_all_ranks()
        assert len(a.metrics.records) == 2
        assert b.metrics.records == [] and template.metrics.records == []

    def test_directed_tables_shared(self):
        from repro.graph.builder import from_edges

        g = from_edges(np.array([0, 1, 2]), np.array([1, 2, 0]),
                       np.array([4, 30, 2]), 3)
        template = ctx_for(g, use_pruning=True, pushpull_estimator="histogram")
        assert template.reverse_graph is not None
        assert template.weight_histogram is not None
        fork = template.fork()
        for name in SHARED_TABLES:
            assert getattr(fork, name) is getattr(template, name), name

    def test_paranoid_fork_gets_fresh_guards(self, path_graph):
        template = ctx_for(path_graph, paranoid=True)
        a, b = template.fork(), template.fork()
        assert template.guards is not None
        assert a.guards is not None and b.guards is not None
        assert len({id(template.guards), id(a.guards), id(b.guards)}) == 3
        a.guards.on_bucket_start(4)
        b.guards.on_bucket_start(0)  # would trip monotonicity if shared
        assert (a.guards.delta, a.guards.num_vertices) == (
            template.guards.delta, template.guards.num_vertices,
        )

    def test_tracer_wiring(self, path_graph):
        from repro.obs.tracer import TraceConfig, Tracer

        template = ctx_for(path_graph, trace=TraceConfig())
        a, b = template.fork(), template.fork()
        # a configured trace builds one tracer per run …
        assert isinstance(a.tracer, Tracer) and a.tracer is not b.tracer
        assert a.tracer is not template.tracer
        assert a.metrics.tracer is a.tracer
        # … unless the caller attaches its own
        shared = Tracer(template.machine, TraceConfig())
        c = template.fork(shared)
        assert c.tracer is shared and c.metrics.tracer is shared


class TestCharging:
    def test_charge_records_compute(self, path_graph):
        ctx = ctx_for(path_graph)
        ctx.charge(
            ComputeKind.SHORT_RELAX,
            np.array([0, 1]),
            np.array([3.0, 4.0]),
            phase_kind="short",
        )
        rec = ctx.metrics.records[-1]
        assert rec.comp_total == 7.0
        assert ctx.metrics.total_relaxations == 0  # not counted by default

    def test_charge_count_as_relax(self, path_graph):
        ctx = ctx_for(path_graph)
        ctx.charge(
            ComputeKind.SHORT_RELAX,
            np.array([0, 1]),
            None,
            phase_kind="short",
            count_as_relax=True,
        )
        assert ctx.metrics.total_relaxations == 2

    def test_charge_scan_uniform_within_rank(self, path_graph):
        ctx = ctx_for(path_graph, ranks=2, threads=2)
        ctx.charge_scan(np.array([4, 2]))
        rec = ctx.metrics.records[-1]
        assert rec.kind == ComputeKind.BUCKET_SCAN.value
        assert rec.comp_max == 2.0  # 4 vertices over 2 threads
        assert rec.phase_kind == "bucket"

    def test_charge_scan_shape_checked(self, path_graph):
        ctx = ctx_for(path_graph, ranks=2)
        with pytest.raises(ValueError):
            ctx.charge_scan(np.array([1, 2, 3]))

    def test_scan_all_ranks_defaults_to_n(self, path_graph):
        ctx = ctx_for(path_graph, ranks=2, threads=1)
        ctx.scan_all_ranks()
        rec = ctx.metrics.records[-1]
        assert rec.comp_total == pytest.approx(path_graph.num_vertices)

    def test_charge_with_lb_spreads_heavy(self, star_graph):
        ctx = ctx_for(star_graph, ranks=1, threads=4, intra_lb=True, heavy_degree=2)
        ctx.charge(
            ComputeKind.LONG_PUSH_RELAX,
            np.array([0]),
            np.array([8.0]),
            phase_kind="long",
        )
        rec = ctx.metrics.records[-1]
        assert rec.comp_max == pytest.approx(2.0)  # 8 units over 4 threads


def fresh_copy(graph):
    """The same graph as a new object: nothing memoised on it yet."""
    from repro.graph.csr import CSRGraph

    return CSRGraph(graph.indptr.copy(), graph.adj.copy(), graph.weights.copy(),
                    graph.undirected)


def assert_tables_equal(got, want):
    for name in ("short_offsets", "long_degrees", "thread_map",
                 "reverse_short_offsets", "reverse_long_degrees"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), name)
    np.testing.assert_array_equal(got.partition.boundaries, want.partition.boundaries)
    assert type(got.partition) is type(want.partition)
    for name in ("indptr", "adj", "weights"):
        np.testing.assert_array_equal(getattr(got.graph, name), getattr(want.graph, name))
        if want.reverse_graph is not None:
            np.testing.assert_array_equal(
                getattr(got.reverse_graph, name), getattr(want.reverse_graph, name)
            )
    assert (got.reverse_graph is None) == (want.reverse_graph is None)
    assert got.heavy_threshold == want.heavy_threshold


#: one enumerated grid of every key of the memo: Δ × P × T × partition kind
GRID = [
    dict(delta=delta, ranks=ranks, threads=threads, partition=kind)
    for delta in (10, 25) for ranks in (2, 4) for threads in (1, 3)
    for kind in ("block", "degree")
]


class TestMemo:
    """The per-graph tables hang off the weight-sorted graph: made once per
    key, shared by every context of the graph, read-only, and holding no
    reference back to the graph."""

    def test_contexts_of_one_graph_share_the_tables(self, rmat1_small):
        graph = rmat1_small.sorted_by_weight()
        a, b = ctx_for(graph, ranks=4), ctx_for(graph, ranks=4)
        for name in ("short_offsets", "long_degrees", "partition", "thread_map"):
            assert getattr(a, name) is getattr(b, name), name
        assert a.metrics is not b.metrics and a.comm is not b.comm
        shared = (a.short_offsets, a.long_degrees, a.thread_map,
                  a.partition.owner_map, a.partition.narrow_owner_map)
        for table in shared:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1

    def test_every_key_gets_its_own_tables(self, rmat1_small):
        graph = rmat1_small.sorted_by_weight()
        made = [(key, ctx_for(graph, **key)) for key in GRID]
        for key, ctx in made:
            assert_tables_equal(ctx, ctx_for(fresh_copy(graph), **key))
            for other_key, other in made:
                same_split = key["delta"] == other_key["delta"]
                same_partition = (key["partition"], key["ranks"]) == (
                    other_key["partition"], other_key["ranks"]
                )
                same_threads = same_partition and key["threads"] == other_key["threads"]
                assert (ctx.short_offsets is other.short_offsets) == same_split
                assert (ctx.long_degrees is other.long_degrees) == same_split
                assert (ctx.partition is other.partition) == same_partition
                assert (ctx.thread_map is other.thread_map) == same_threads

    def test_directed_and_histogram_contexts_equal_a_fresh_build(self):
        from repro.graph.builder import from_edges

        rng = np.random.default_rng(4)
        g = from_edges(rng.integers(0, 40, 200), rng.integers(0, 40, 200),
                       rng.integers(1, 60, 200), 40, undirected=False)
        graph = g.sorted_by_weight()
        cfg = dict(use_pruning=True, pushpull_estimator="histogram")
        first, again = ctx_for(graph, **cfg), ctx_for(graph, **cfg)
        assert again.reverse_graph is first.reverse_graph
        assert again.reverse_short_offsets is first.reverse_short_offsets
        want = ctx_for(fresh_copy(graph), **cfg)
        assert_tables_equal(again, want)
        for name in ("cumulative", "bin_width", "num_bins"):
            np.testing.assert_array_equal(
                getattr(again.weight_histogram, name),
                getattr(want.weight_histogram, name),
            )

    def test_the_ios_prefix_table_is_one_shared_read_only_entry(
        self, rmat1_small, monkeypatch
    ):
        """Built once per (graph, Δ), by the first context to ask; shared
        by every context and fork of the graph — a solver's template and
        the rank driver's context per solve alike — and read-only."""
        import repro.core.context as context
        from repro.core.solver import BatchSolver
        from repro.spmd.engine import spmd_delta_stepping

        builds = []
        split = context.concat_ranges
        monkeypatch.setattr(
            context, "concat_ranges",
            lambda *a: builds.append(1) or split(*a),
        )
        graph = rmat1_small.sorted_by_weight()
        # No IOS, or Δ = ∞ (no short phase at all): no table.
        assert ctx_for(graph).inner_counts() is None
        unbounded = ctx_for(graph, delta=DELTA_INFINITY, use_ios=True)
        assert unbounded.inner_counts() is None
        a = ctx_for(graph, use_ios=True, ranks=2)
        table = a.inner_counts()
        b = ctx_for(graph, use_ios=True, ranks=4, partition="degree")
        solver = BatchSolver(graph, algorithm="opt", delta=25, num_ranks=3)
        solver.solve(3)
        spmd_ctxs = [
            spmd_delta_stepping(graph, root, a.machine, config=a.config)[1]
            for root in (3, 5)
        ]
        for ctx in (a.fork(), b, b.fork(), solver._template_ctx, *spmd_ctxs):
            assert ctx.inner_counts() is table
        assert len(builds) == 1
        other = ctx_for(graph, delta=10, use_ios=True).inner_counts()
        assert other is not table and len(builds) == 2
        assert other.shape[1] == 11 and table.shape[1] == 26
        for t in (table, other):
            assert not t.flags.writeable
            with pytest.raises(ValueError):
                t[0, 0] = 1

    def test_a_dropped_graph_goes_without_the_cycle_collector(self, rmat1_small):
        import gc
        import weakref

        from repro.graph.builder import from_edges

        directed = from_edges(np.array([0, 1, 2]), np.array([1, 2, 0]),
                              np.array([4, 30, 2]), 3, undirected=False)
        gc.collect()
        gc.disable()
        try:
            for source in (rmat1_small, directed):
                graph = fresh_copy(source).sorted_by_weight()
                for key in GRID[:4]:
                    ctx = ctx_for(graph, **key)
                    ctx_for(graph, use_ios=True, **key).inner_counts()
                ref = weakref.ref(graph)
                del ctx, graph
                assert ref() is None
        finally:
            gc.enable()
