"""Unit tests for the multi-root BatchSolver."""

import numpy as np
import pytest

from repro.core.config import SolverConfig
from repro.core.reference import dijkstra_reference
from repro.core.solver import BatchSolver, solve_sssp
from repro.graph.roots import choose_roots


class TestBatchSolver:
    def test_matches_solve_sssp(self, rmat1_small):
        solver = BatchSolver(rmat1_small, algorithm="opt", delta=25,
                             num_ranks=4, threads_per_rank=2)
        for root in choose_roots(rmat1_small, 4, seed=1):
            batch = solver.solve(int(root))
            single = solve_sssp(rmat1_small, int(root), algorithm="opt",
                                delta=25, num_ranks=4, threads_per_rank=2)
            assert np.array_equal(batch.distances, single.distances)
            assert batch.metrics.summary() == single.metrics.summary()
            assert batch.gteps == pytest.approx(single.gteps)

    @pytest.mark.parametrize("algorithm", ["opt", "lb-opt-split", "radius", "rho"])
    def test_forked_solve_equals_fresh_context(self, rmat1_small, algorithm):
        """Every counter of a solve on a forked context equals a solve on a
        context built from scratch — for the first root and for roots
        solved after the same solver has served others."""
        kwargs = dict(algorithm=algorithm, delta=25, num_ranks=4, threads_per_rank=2)
        solver = BatchSolver(rmat1_small, **kwargs)
        roots = [int(r) for r in choose_roots(rmat1_small, 3, seed=1)]
        for root in roots + roots[:1]:
            batch = solver.solve(root)
            single = solve_sssp(rmat1_small, root, **kwargs)
            assert np.array_equal(batch.distances, single.distances)
            assert batch.metrics.summary() == single.metrics.summary()
            assert batch.metrics.per_bucket_stats == single.metrics.per_bucket_stats
            assert batch.metrics.records == single.metrics.records
            assert batch.cost == single.cost
            assert batch.gteps == single.gteps
            assert batch.num_proxies == single.num_proxies
            assert batch.algorithm == single.algorithm

    def test_paranoid_solves_get_their_own_guards(self, rmat1_small):
        cfg = SolverConfig(delta=25, paranoid=True)
        solver = BatchSolver(rmat1_small, algorithm="x", config=cfg,
                             num_ranks=2, threads_per_rank=2)
        a, b = solver.solve(3), solver.solve(5)
        assert a.guards is not None and a.guards is not b.guards
        assert a.guards.checks > 0 and a.guards.violations == 0

    def test_from_context_matches_constructor(self, rmat1_small):
        from repro.core.config import preset
        from repro.core.context import make_context
        from repro.runtime.machine import MachineConfig

        machine = MachineConfig(num_ranks=4, threads_per_rank=2)
        ctx = make_context(rmat1_small, machine, preset("opt", 25))
        adopted = BatchSolver.from_context(ctx, algorithm="opt-25")
        built = BatchSolver(rmat1_small, algorithm="opt", delta=25, machine=machine)
        assert adopted._template_ctx is ctx
        assert (adopted.algorithm, adopted.config, adopted.machine) == (
            built.algorithm, built.config, built.machine,
        )
        for root in (int(r) for r in choose_roots(rmat1_small, 2, seed=6)):
            a, b = adopted.solve(root, validate=True), built.solve(root)
            assert np.array_equal(a.distances, b.distances)
            assert a.metrics.records == b.metrics.records
            assert (a.cost, a.gteps, a.num_vertices, a.num_edges) == (
                b.cost, b.gteps, b.num_vertices, b.num_edges,
            )
        assert ctx.metrics.records == []  # the template is never run on

    def test_from_context_rejects_vertex_splitting(self, rmat1_small):
        from repro.core.context import make_context
        from repro.runtime.machine import MachineConfig

        cfg = SolverConfig(delta=25, inter_split=True, split_degree=24)
        ctx = make_context(rmat1_small, MachineConfig(num_ranks=2), cfg)
        with pytest.raises(ValueError, match="vertex-splitting"):
            BatchSolver.from_context(ctx)

    def test_solve_each_root(self, rmat1_small):
        solver = BatchSolver(rmat1_small, num_ranks=2, threads_per_rank=2)
        roots = choose_roots(rmat1_small, 3, seed=2)
        results = [solver.solve(r, validate=True) for r in roots]
        assert len(results) == 3
        assert [r.root for r in results] == [int(x) for x in roots]

    def test_roots_share_one_trace(self, rmat1_small, tmp_path):
        from repro.obs.export import finalize_trace, validate_trace_file
        from repro.obs.tracer import TraceConfig, Tracer

        path = tmp_path / "batch.jsonl"
        solver = BatchSolver(rmat1_small, num_ranks=2, threads_per_rank=2)
        roots = [int(r) for r in choose_roots(rmat1_small, 3, seed=4)]
        # the caller owns the shared tracer: it opens one span per root,
        # each solve nests under it, and the caller finalizes once
        shared = Tracer(solver.machine, TraceConfig(path=str(path)))
        results = []
        for r in roots:
            with shared.span(f"root-{r}", cat="root", root=r):
                results.append(solver.solve(r, tracer=shared))
        finalize_trace(shared)
        assert [r.root for r in results] == roots
        assert all(r.trace is shared for r in results)
        fmt, problems = validate_trace_file(str(path))
        assert fmt == "jsonl"
        assert problems == []
        import json

        lines = [json.loads(l) for l in path.read_text().splitlines()]
        root_spans = [e for e in lines
                      if e.get("type") == "span" and e.get("cat") == "root"]
        # one trace file, one root-level span per solved root
        assert [s["args"]["root"] for s in root_spans] == roots

    def test_metrics_independent_per_root(self, rmat1_small):
        solver = BatchSolver(rmat1_small, num_ranks=2, threads_per_rank=2)
        a = solver.solve(3)
        b = solver.solve(3)
        assert a.metrics is not b.metrics
        assert a.metrics.summary() == b.metrics.summary()

    def test_with_vertex_splitting(self, rmat1_small):
        cfg = SolverConfig(delta=25, use_ios=True, use_pruning=True,
                           use_hybrid=True, intra_lb=True,
                           inter_split=True, split_degree=24)
        solver = BatchSolver(rmat1_small, algorithm="split", config=cfg,
                             num_ranks=4, threads_per_rank=2)
        assert solver.num_proxies > 0
        root = int(choose_roots(rmat1_small, 1, seed=3)[0])
        res = solver.solve(root, validate=True)
        assert np.array_equal(res.distances, dijkstra_reference(rmat1_small, root))
        assert res.num_edges == rmat1_small.num_undirected_edges

    def test_split_rejects_directed(self):
        from repro.graph.builder import from_edges

        g = from_edges(np.array([0]), np.array([1]), np.array([1]), 2)
        cfg = SolverConfig(delta=25, inter_split=True)
        with pytest.raises(ValueError, match="undirected"):
            BatchSolver(g, algorithm="x", config=cfg, num_ranks=2)

    def test_preprocessing_shared(self, rmat1_small):
        # the work graph is sorted once; per-root solves reuse the object
        solver = BatchSolver(rmat1_small, num_ranks=2, threads_per_rank=2)
        g1 = solver._template_ctx.graph
        solver.solve(3)
        assert solver._template_ctx.graph is g1

    def test_faster_than_repeated_solves_on_unsorted_graph(self, rmat2_small):
        import time

        roots = [int(r) for r in choose_roots(rmat2_small, 4, seed=5)]
        t0 = time.perf_counter()
        solver = BatchSolver(rmat2_small, num_ranks=2, threads_per_rank=2)
        for r in roots:
            solver.solve(r)
        batched = time.perf_counter() - t0
        t0 = time.perf_counter()
        for r in roots:
            solve_sssp(rmat2_small, r, num_ranks=2, threads_per_rank=2)
        repeated = time.perf_counter() - t0
        # only a smoke check: batched must not be slower by a wide margin
        assert batched < repeated * 1.5
