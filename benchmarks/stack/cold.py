"""The cold-solve workloads: one caller, closed loop, every solve from
scratch.

``cold_rmat`` (few buckets, huge frontiers) and ``cold_grid`` (hundreds of
buckets, tiny frontiers) drive ``BatchSolver.solve`` on opposite regimes of
the same engine; ``cold_spmd`` drives the message-passing engine on the
R-MAT graph. Roots are visited in two passes over one seeded list; in a
traced run each root goes through the span proxies in one of its two
solves, so it has an untraced and a traced time and the difference is the
tracing overhead.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time

import numpy as np

import repro.core.solver as solver_module
import repro.spmd.engine as spmd_module
from repro.core.context import make_context
from repro.core.delta_stepping import DeltaSteppingEngine
from repro.core.paths import build_parent_tree
from repro.core.reference import dijkstra_reference
from repro.core.solver import BatchSolver
from repro.core.config import preset
from repro.core.validation import validate_sssp_structure
from repro.graph import from_edges, grid_graph, rmat_graph
from repro.obs.tracer import TraceConfig
from repro.runtime import MachineConfig, evaluate_cost, simulated_gteps

from benchmarks.stack.loadgen import sample_roots
from benchmarks.stack.oracle import Oracle
from benchmarks.stack.spans import self_times
from benchmarks.stack.spec import (
    ALGORITHM,
    DELTA,
    OUT_DIR,
    RANKS,
    THREADS,
    Block,
    Run,
    put_end_to_end,
    timed_setup,
)

__all__ = [
    "arm_solver",
    "build_rmat",
    "cold_grid",
    "cold_rmat",
    "cold_spmd",
    "probe_graph",
    "put_solver_spans",
]

#: distinct roots per run (at ``run_seconds``) and passes over them; in a
#: traced run each root is armed in one of its two solves
ROOTS = {"cold_rmat": 80, "cold_grid": 64, "cold_spmd": 56}
PASSES = 2
#: consecutive solves per throughput block
BLOCK = 16
PROBE_ROOTS = 8


def _machine() -> MachineConfig:
    return MachineConfig(num_ranks=RANKS, threads_per_rank=THREADS)


def _batch_solver(graph, algorithm: str = ALGORITHM, config=None) -> BatchSolver:
    return BatchSolver(
        graph, algorithm=algorithm, delta=DELTA, config=config,
        num_ranks=RANKS, threads_per_rank=THREADS,
    )


def build_rmat(run: Run, scale: int):
    with run.span("gen", "graph"):
        graph = rmat_graph(scale, seed=run.int_seed("graph"))
    with run.span("sort_by_weight", "graph"):
        return graph.sorted_by_weight()


def _build_grid(run: Run):
    side = run.size["grid_side"]
    with run.span("gen", "graph"):
        graph = grid_graph(side, side, seed=run.int_seed("graph"))
    with run.span("sort_by_weight", "graph"):
        return graph.sorted_by_weight()


# ----------------------------------------------------------------------
# Engines under test: ``solve(root) -> (distances, handle)``
# ----------------------------------------------------------------------
def arm_solver(recorder) -> None:
    """Proxies on what one ``BatchSolver.solve`` calls, wherever it runs."""
    recorder.wrap(BatchSolver, "solve", "solve", "core")
    recorder.wrap(solver_module, "make_context", "context_build", "core")
    recorder.wrap(DeltaSteppingEngine, "run", "engine_run", "core")
    recorder.wrap(solver_module, "evaluate_cost", "evaluate_cost", "runtime")
    recorder.wrap(solver_module, "simulated_gteps", "evaluate_cost", "runtime")


class _Orchestrated:
    def __init__(self, run: Run, graph) -> None:
        self.graph = graph
        with run.span("batchsolver_init", "core"):
            self.solver = _batch_solver(graph)

    def solve(self, root: int):
        result = self.solver.solve(root)
        return result.distances, result

    def gteps(self, result) -> float:
        return result.gteps

    def arm(self, recorder) -> None:
        arm_solver(recorder)


class _Spmd:
    def __init__(self, run: Run, graph) -> None:
        self.graph = graph
        self.machine = _machine()
        self.config = preset(ALGORITHM, DELTA)

    def solve(self, root: int, **kwargs):
        # Through the module attribute, which is where the proxy sits.
        return spmd_module.spmd_delta_stepping(
            self.graph, root, self.machine, config=self.config, **kwargs
        )

    def gteps(self, ctx) -> float:
        return simulated_gteps(
            self.graph.num_undirected_edges, ctx.metrics, self.machine
        )

    def arm(self, recorder) -> None:
        recorder.wrap(spmd_module, "spmd_delta_stepping", "solve", "spmd")
        recorder.wrap(spmd_module, "make_context", "context_build", "core")
        recorder.wrap(spmd_module, "build_rank_states", "rank_state_build", "spmd")


# ----------------------------------------------------------------------
# The shared closed loop
# ----------------------------------------------------------------------
def _cold(run: Run, build_graph, engine_type):
    def build():
        graph = build_graph()
        engine = engine_type(run, graph)
        engine.solve(int(np.flatnonzero(np.diff(graph.indptr) > 0)[0]))  # warm-up
        return engine

    engine = timed_setup(run, build)
    graph = engine.graph
    roots = sample_roots(graph, run.ops(ROOTS[run.workload], at_least=4), run.rng("roots"))
    recorder = run.recorder

    # SciPy solves every root right after the engine does (outside the
    # timed section): that is the correctness check, and it gives every
    # block of solves the yardstick it is normalised by.
    oracle = Oracle(graph)
    blocks: list[Block] = []
    times: dict[bool, dict[int, float]] = {False: {}, True: {}}
    first: dict[int, tuple] = {}
    wrong = 0
    for p in range(PASSES):
        for i, root in enumerate(int(r) for r in roots):
            op_id = p * len(roots) + i
            if op_id % BLOCK == 0:
                blocks.append(Block())
            # In a traced run each root is solved once armed and once not,
            # alternating op by op so that a drift of the machine's speed
            # cancels in the pair.
            traced = run.traced and (p + i) % 2 == 1
            if traced:
                engine.arm(recorder)
            t0 = time.perf_counter()
            if traced:
                with recorder.span("op", "bench", op_id=op_id):
                    distances, handle = engine.solve(root)
            else:
                distances, handle = engine.solve(root)
            elapsed = time.perf_counter() - t0
            if traced:
                recorder.restore()
            else:
                blocks[-1].add_op(elapsed)
            times[traced][root] = elapsed
            first.setdefault(root, (distances, handle))
            wrong += not blocks[-1].verify(oracle, root, distances)
    run.count_ops(PASSES * len(roots), wrong, "distances differ from SciPy")
    put_end_to_end(run, blocks, [engine.gteps(handle) for _, handle in first.values()])
    return engine, roots, first, times


# ----------------------------------------------------------------------
# Per-layer numbers of a traced run
# ----------------------------------------------------------------------
def _paired_overhead_pct(times) -> float:
    """Median over roots of (traced − untraced) / untraced, in percent."""
    shares = [
        (times[True][r] - times[False][r]) / times[False][r]
        for r in times[True]
        if r in times[False]
    ]
    return 100.0 * statistics.median(shares) if shares else 0.0


def probe_graph(run: Run, graph) -> None:
    """``graph.*``: generation and sort come from the set-up spans."""
    run.put("graph.gen_s", run.span_ms("graph", "gen", scale=1.0))
    run.put("graph.sort_by_weight_ms", run.span_ms("graph", "sort_by_weight"))
    since = len(run.recorder.spans)
    for _ in range(3):
        with run.span("from_edges", "graph"):
            from_edges(*graph.to_edge_list(), graph.num_vertices, undirected=True)
    for _ in range(5):
        with run.span("max_weight", "graph"):
            graph.max_weight
    run.put("graph.from_edges_ms", run.span_ms("graph", "from_edges", since))
    run.put("graph.max_weight_us", run.span_ms("graph", "max_weight", since, scale=1e6))
    run.put("graph.vertices", graph.num_vertices)
    run.put("graph.arcs", graph.num_arcs)


def put_solver_spans(run: Run, since: int = 0) -> None:
    """``core.*`` / ``runtime.evaluate_cost_ms`` from the spans the solver
    proxies recorded (in whichever thread the solves ran)."""
    recorder = run.recorder
    spans = recorder.spans[since:]
    solves = [s for s in spans if (s.layer, s.name) == ("core", "solve")]
    if not solves:
        return
    selfs = self_times(spans)
    solve_ms = statistics.median(s.duration for s in solves) * 1e3
    parts = {
        "core.context_build_ms": run.span_ms("core", "context_build", since),
        "core.engine_run_ms": run.span_ms("core", "engine_run", since),
        "core.result_assembly_ms": statistics.median(selfs[s.id] for s in solves) * 1e3,
    }
    # evaluate_cost and simulated_gteps both price every record; one solve
    # pays for both, so the per-solve figure is their sum.
    cost = recorder.durations("runtime", "evaluate_cost", since)
    parts["runtime.evaluate_cost_ms"] = sum(cost) / len(solves) * 1e3
    for name, value in parts.items():
        run.put(name, value, len(solves))
    run.put("bench.explained_share", sum(parts.values()) / solve_ms, len(solves))


def _put_counts(run: Run, results, engine_s: float) -> None:
    """Exact per-root means of what the simulated machine counted."""
    def mean(get):
        return statistics.mean(get(r) for r in results)

    relaxations = mean(lambda r: r.metrics.total_relaxations)
    buckets = mean(lambda r: r.metrics.buckets_processed)
    run.put("core.relaxations", relaxations)
    run.put("core.phases", mean(lambda r: r.metrics.total_phases))
    run.put("core.buckets", buckets)
    run.put("core.pull_buckets", mean(lambda r: r.metrics.pull_buckets))
    run.put("runtime.bytes", mean(lambda r: r.metrics.total_bytes))
    run.put("runtime.allreduces", mean(lambda r: r.metrics.total_allreduces))
    run.put("runtime.records", mean(lambda r: len(r.metrics.records)))
    run.put("runtime.sim_time_s", mean(lambda r: r.cost.total_time))
    run.put("core.ns_per_relaxation", engine_s / relaxations * 1e9)
    run.put("core.ms_per_bucket", engine_s / buckets * 1e3)


def _probe_accounting(run: Run, graph, roots) -> None:
    """``runtime.*`` busy time: proxies on the communicator, the work
    charges and the metrics sink of contexts the benchmark builds itself."""
    recorder = run.recorder
    machine, config = _machine(), preset(ALGORITHM, DELTA)
    since = len(recorder.spans)
    for root in roots:
        with recorder.span("probe_solve", "bench"):
            with recorder.span("context_build", "core"):
                ctx = make_context(graph, machine, config)
            for name in ("exchange_by_vertex", "exchange_by_rank",
                         "exchange_by_rank_counts", "allreduce"):
                recorder.wrap(ctx.comm, name, "comm", "runtime")
            for name in ("charge", "charge_scan", "scan_all_ranks"):
                recorder.wrap(ctx, name, "metrics", "runtime")
            for name in ("note_phase", "note_bucket", "add_compute"):
                recorder.wrap(ctx.metrics, name, "metrics", "runtime")
            with recorder.span("engine_run", "core"):
                DeltaSteppingEngine(ctx).run(int(root))
            recorder.restore()
            with recorder.span("evaluate_cost", "runtime"):
                evaluate_cost(ctx.metrics, machine)
    spans = recorder.spans[since:]
    selfs = self_times(spans)
    n = len(roots)

    def busy_ms(name):
        return sum(selfs[s.id] for s in spans if s.name == name) / n * 1e3

    comm, metrics, cost = busy_ms("comm"), busy_ms("metrics"), busy_ms("evaluate_cost")
    wall = statistics.mean(s.duration for s in spans if s.name == "probe_solve") * 1e3
    run.put("runtime.comm_busy_ms", comm, n)
    run.put("runtime.comm_calls", sum(s.name == "comm" for s in spans) / n, n)
    run.put("runtime.metrics_busy_ms", metrics, n)
    run.put("runtime.accounting_share", (comm + metrics + cost) / wall, n)


def _p50_ms(fn, roots) -> float:
    times = []
    for root in roots:
        t0 = time.perf_counter()
        fn(int(root))
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def _probe_core(run: Run, graph, roots, first) -> None:
    """Strategy variants and the post-solve helpers, a few roots each."""
    for name in ("delta", "rho", "radius"):
        solver = _batch_solver(graph, algorithm=name)
        run.put(f"core.solve_ms.{name}", _p50_ms(solver.solve, roots), len(roots))
    few = [int(r) for r in roots[:4]]
    run.put("core.reference_dijkstra_ms",
            _p50_ms(lambda r: dijkstra_reference(graph, r), few[:1]), 1)
    run.put("core.parent_tree_ms",
            _p50_ms(lambda r: build_parent_tree(graph, first[r][0], r), few), len(few))
    run.put("core.validate_structural_ms",
            _p50_ms(lambda r: validate_sssp_structure(graph, r, first[r][0]), few),
            len(few))


def _probe_obs(run: Run, graph, roots) -> None:
    """Cost of arming the program's own tracer (``repro.obs``) on a solve."""
    plain = _batch_solver(graph)
    armed = _batch_solver(graph, config=preset(ALGORITHM, DELTA).evolve(trace=TraceConfig()))
    run.put(
        "obs.trace_solve_overhead_ratio",
        _p50_ms(armed.solve, roots) / _p50_ms(plain.solve, roots),
        len(roots),
    )


def _trace_orchestrated(run: Run, engine, roots, first, times) -> None:
    graph = engine.graph
    probe_roots = roots[:PROBE_ROOTS]
    probe_graph(run, graph)
    run.put("core.batchsolver_init_ms", run.span_ms("core", "batchsolver_init"))
    put_solver_spans(run)
    engine_s = statistics.mean(run.recorder.durations("core", "engine_run"))
    _put_counts(run, [handle for _, handle in first.values()], engine_s)
    _probe_accounting(run, graph, probe_roots)
    _probe_core(run, graph, probe_roots, first)
    run.put("bench.trace_overhead_pct", _paired_overhead_pct(times), len(times[True]))


def cold_rmat(run: Run) -> None:
    engine, roots, first, times = _cold(
        run, lambda: build_rmat(run, run.size["cold_scale"]), _Orchestrated
    )
    if run.traced:
        _trace_orchestrated(run, engine, roots, first, times)
        _probe_obs(run, engine.graph, roots[:PROBE_ROOTS])


def cold_grid(run: Run) -> None:
    engine, roots, first, times = _cold(run, lambda: _build_grid(run), _Orchestrated)
    if run.traced:
        _trace_orchestrated(run, engine, roots, first, times)


def cold_spmd(run: Run) -> None:
    engine, roots, first, times = _cold(
        run, lambda: build_rmat(run, run.size["cold_scale"]), _Spmd
    )
    if not run.traced:
        return
    graph = engine.graph
    probe_graph(run, graph)
    run.put("core.context_build_ms", run.span_ms("core", "context_build"))
    run.put("spmd.rank_state_build_ms", run.span_ms("spmd", "rank_state_build"))
    run.put("bench.trace_overhead_pct", _paired_overhead_pct(times), len(times[True]))

    # Same roots on the orchestrated engine: wall-time ratio and parity of
    # distances and of every counter the simulated machine keeps.
    probe_roots = [int(r) for r in roots[:PROBE_ROOTS]]
    solver = _batch_solver(graph)
    results = {}

    def orchestrated(root):
        results[root] = solver.solve(root)

    spmd_ms = _p50_ms(engine.solve, probe_roots)
    run.put("spmd.vs_orchestrated_ratio",
            spmd_ms / _p50_ms(orchestrated, probe_roots), len(probe_roots))
    parity = all(
        np.array_equal(first[r][0], results[r].distances)
        and first[r][1].metrics.summary() == results[r].metrics.summary()
        for r in probe_roots
    )
    run.put("spmd.parity_ok", float(parity), len(probe_roots))
    if not parity:
        run.count_ops(0, 1, "SPMD and orchestrated engines disagree")

    OUT_DIR.mkdir(exist_ok=True)
    checkpoint_dir = tempfile.mkdtemp(prefix="ckpt-", dir=OUT_DIR)
    try:
        few = probe_roots[:8]
        with_ckpt = _p50_ms(lambda r: engine.solve(r, checkpoint_dir=checkpoint_dir), few)
        run.put("spmd.checkpoint_overhead_ratio", with_ckpt / _p50_ms(engine.solve, few), len(few))
    finally:
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
