"""Command-line interface.

Subcommands cover the common workflows::

    python -m repro solve        --scale 13 --algorithm opt --delta 25
    python -m repro compare      --scale 12 --delta 25
    python -m repro sweep        --scale 12 --deltas 1,10,25,40,100
    python -m repro bfs          --scale 12
    python -m repro serve-bench  --scale 12 --requests 200 --zipf 1.1
    python -m repro trace-report run.trace.jsonl

All graph and machine knobs are flags; output is the same plain-text
tables the benchmark harness prints.  ``solve --trace PATH`` captures a
structured trace of the run (a ``*.json`` PATH gets a Chrome/Perfetto
``trace_events`` file loadable in ui.perfetto.dev, any other a JSONL log);
``trace-report`` summarises a captured trace offline.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.phase_stats import algorithm_comparison
from repro.analysis.sweep import delta_sweep
from repro.core.config import PRESETS
from repro.core.solver import solve_sssp
from repro.graph.rmat import RMAT1, RMAT2, rmat_graph
from repro.graph.roots import choose_root
from repro.runtime.machine import MachineConfig
from repro.util.tables import format_table

__all__ = ["main", "build_parser"]


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scale", type=int, default=12,
                   help="log2 of the vertex count (default 12)")
    p.add_argument("--edge-factor", type=int, default=16,
                   help="undirected edges per vertex (default 16)")
    p.add_argument("--family", choices=["rmat1", "rmat2"], default="rmat1",
                   help="R-MAT parameter set (default rmat1)")
    p.add_argument("--seed", type=int, default=0, help="generator seed")


def _add_machine_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ranks", type=int, default=8,
                   help="simulated nodes (default 8)")
    p.add_argument("--threads", type=int, default=16,
                   help="threads per node (default 16)")


def _add_solver_args(p: argparse.ArgumentParser, algorithm: str = "opt") -> None:
    """Graph, machine and algorithm-preset flags of every solving command."""
    _add_graph_args(p)
    _add_machine_args(p)
    p.add_argument("--algorithm", choices=sorted(PRESETS), default=algorithm,
                   help="algorithm preset: the paper's Δ-stepping family "
                        "(dijkstra/bellman-ford/delta/prune/opt/lb-opt*), or "
                        "a windowed stepping strategy — 'radius' (per-vertex "
                        "window widths, arXiv 1602.03881) / 'rho' (settle the "
                        "ρ closest unsettled vertices per step, arXiv "
                        f"2105.06145); default {algorithm}")
    p.add_argument("--delta", type=int, default=25,
                   help="bucket width Δ for the Δ-stepping presets "
                        "(ignored by radius/rho; default 25)")


def _make_graph(args: argparse.Namespace):
    params = RMAT1 if args.family == "rmat1" else RMAT2
    return rmat_graph(args.scale, args.edge_factor, params, seed=args.seed)


def _machine(args: argparse.Namespace) -> MachineConfig:
    return MachineConfig(num_ranks=args.ranks, threads_per_rank=args.threads)


def _add_serve_args(p: argparse.ArgumentParser) -> None:
    """Workload + broker knobs of ``serve-bench``."""
    _add_solver_args(p)
    p.add_argument("--requests", type=int, default=200,
                   help="queries in the stream (default 200)")
    p.add_argument("--arrival", choices=["open", "closed"],
                   default="closed",
                   help="open loop (Poisson arrivals at --rate) or "
                        "closed loop (--concurrency sync clients)")
    p.add_argument("--rate", type=float, default=500.0,
                   help="open-loop arrival rate in queries/s")
    p.add_argument("--concurrency", type=int, default=4,
                   help="closed-loop client count (default 4)")
    p.add_argument("--zipf", type=float, default=1.1,
                   help="root popularity skew s in p(k) ~ 1/k^s "
                        "(0 = uniform; default 1.1)")
    p.add_argument("--root-universe", type=int, default=64,
                   help="distinct candidate roots (default 64)")
    p.add_argument("--workers", type=int, default=1,
                   help="batch worker threads (default 1)")
    p.add_argument("--cache-mb", type=float, default=64.0,
                   help="distance-cache byte budget in MiB (0 disables)")
    p.add_argument("--deadline", type=int, metavar="N", default=None,
                   help="per-request superstep budget (watchdog)")
    p.add_argument("--chaos", metavar="SPEC", default=None,
                   help="inject seeded faults, e.g. "
                        "'error=0.2,corrupt=0.1,clean-after=2,seed=3' "
                        "(see ChaosPlan.from_spec)")
    p.add_argument("--retries", type=int, metavar="N", default=None,
                   help="retry failed solves up to N attempts total")
    p.add_argument("--retry-backoff-ms", type=float, default=1.0,
                   help="base retry backoff in ms (doubles per "
                        "attempt, capped; default 1)")
    p.add_argument("--breaker-threshold", type=int, metavar="N",
                   default=None,
                   help="open the circuit breaker after N consecutive "
                        "failures of one class")
    p.add_argument("--verify-structural", action="store_true",
                   help="structurally validate every solve before "
                        "serving it (detects corruption)")
    p.add_argument("--update-stream", type=int, metavar="N", default=0,
                   help="live-graph mode: interleave N seeded edge-churn "
                        "update batches with the (open-loop) request "
                        "stream")
    p.add_argument("--churn", type=float, default=0.01,
                   help="edge fraction churned per update batch "
                        "(default 0.01)")
    p.add_argument("--repair-hot-roots", type=int, metavar="K", default=4,
                   help="hot cached roots carried across each snapshot "
                        "by incremental repair (default 4)")


def _build_serve_broker(args: argparse.Namespace):
    """Construct the (broker, workload spec) pair from serve CLI args."""
    from repro.runtime.watchdog import DeadlineConfig
    from repro.serve import QueryBroker, WorkloadSpec

    graph = _make_graph(args)
    deadline = None
    if args.deadline is not None:
        deadline = DeadlineConfig(max_supersteps=args.deadline)
    resilience: dict = {}
    if args.chaos is not None:
        from repro.serve.chaos import ChaosPlan

        resilience["chaos"] = ChaosPlan.from_spec(args.chaos)
    if args.retries is not None:
        from repro.serve.retry import RetryPolicy

        resilience["retry"] = RetryPolicy(
            max_attempts=args.retries,
            backoff_base_s=args.retry_backoff_ms / 1e3,
        )
    if args.breaker_threshold is not None:
        from repro.serve.breaker import BreakerConfig

        resilience["breaker"] = BreakerConfig(
            failure_threshold=args.breaker_threshold
        )
    if args.verify_structural:
        resilience["verify"] = "structural"
    spec = WorkloadSpec(
        num_requests=args.requests,
        arrival=args.arrival,
        rate_qps=args.rate,
        concurrency=args.concurrency,
        zipf_s=args.zipf,
        root_universe=args.root_universe,
        seed=args.seed,
    )
    broker = QueryBroker(
        graph,
        algorithm=args.algorithm,
        delta=args.delta,
        machine=_machine(args),
        num_workers=args.workers,
        cache_bytes=int(args.cache_mb * (1 << 20)),
        default_deadline=deadline,
        events=args.events,
        **resilience,
    )
    return graph, broker, spec


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all six subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scalable SSSP reproduction (IPDPS 2014) on a simulated "
                    "massively parallel machine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one SSSP solve")
    _add_solver_args(p_solve)
    p_solve.add_argument("--root", type=int, default=None,
                         help="source vertex (default: sampled non-isolated)")
    p_solve.add_argument("--validate", nargs="?", const=True, default=False,
                         choices=["structural"],
                         help="cross-check against sequential Dijkstra; "
                              "'--validate structural' runs the O(m+n) "
                              "Graph 500-style structural validator instead")
    p_solve.add_argument("--faults", metavar="SPEC", default=None,
                         help="run --algorithm on the self-healing rank "
                              "driver under injected faults; SPEC keys are "
                              "loss, dup, reorder, delay (rates), seed, "
                              "crash=RANK@STEP and stall=RANK@STEP[xROUNDS], "
                              "e.g. 'loss=0.05,dup=0.02,seed=3,crash=1@4'")
    p_solve.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                         help="write durable epoch checkpoints to DIR "
                              "(atomic, digest-protected); a killed solve "
                              "can be continued with --resume")
    p_solve.add_argument("--resume", action="store_true",
                         help="resume from the newest valid checkpoint in "
                              "--checkpoint-dir instead of starting over")
    p_solve.add_argument("--deadline", type=int, metavar="N", default=None,
                         help="superstep budget; the watchdog stops the "
                              "solve when it is exhausted and raises a "
                              "structured timeout with a resumable "
                              "checkpoint")
    p_solve.add_argument("--paranoid", action="store_true",
                         help="enable per-superstep runtime invariant "
                              "guards (bucket monotonicity, settled "
                              "finality, IOS edge conservation)")
    p_solve.add_argument("--json", metavar="PATH", default=None,
                         help="also write a JSON report to PATH ('-' = stdout)")
    p_solve.add_argument("--trace", metavar="PATH", default=None,
                         help="capture a structured trace of the solve to "
                              "PATH: a '*.json' PATH gets Chrome trace_events "
                              "JSON for ui.perfetto.dev, any other a JSONL "
                              "event log (both read back by 'repro "
                              "trace-report')")
    p_solve.add_argument("--metrics-out", metavar="PATH", default=None,
                         help="write a Prometheus text-format metrics "
                              "snapshot of the solve to PATH")

    p_cmp = sub.add_parser(
        "compare", help="compare the algorithm family (at --delta)"
    )
    _add_solver_args(p_cmp)

    p_sweep = sub.add_parser("sweep", help="sweep the bucket width Δ")
    _add_solver_args(p_sweep, algorithm="delta")
    p_sweep.add_argument("--deltas", default="1,10,25,40,100",
                         help="comma-separated Δ values")

    p_bfs = sub.add_parser("bfs", help="run direction-optimizing BFS")
    _add_graph_args(p_bfs)
    _add_machine_args(p_bfs)
    p_bfs.add_argument("--direction", choices=["auto", "top-down", "bottom-up"],
                       default="auto")
    p_bfs.add_argument("--root", type=int, default=None)

    p_serve = sub.add_parser(
        "serve-bench",
        help="run a synthetic query workload against the serving layer",
    )
    _add_serve_args(p_serve)
    p_serve.add_argument("--slo-min-hit-rate", type=float, default=None,
                         help="fail (exit 1) when the cache hit rate is lower")
    p_serve.add_argument("--metrics-out", metavar="PATH", default=None,
                         help="write the service metrics registry in "
                              "Prometheus text format to PATH")
    p_serve.add_argument("--json", metavar="PATH", default=None,
                         help="also write the report as JSON to PATH "
                              "('-' = stdout)")
    p_serve.add_argument("--events", metavar="PATH", default=None,
                         help="arm request-scoped observability and write "
                              "one wide event per request as JSONL to PATH "
                              "(canonical replay form via "
                              "'python -m repro.serve.events PATH "
                              "--canonical')")

    p_trace = sub.add_parser(
        "trace-report",
        help="summarise a trace captured with 'solve --trace'",
    )
    p_trace.add_argument("trace", metavar="TRACE",
                         help="trace file (JSONL or Perfetto JSON)")
    p_trace.add_argument("--top", type=int, default=15,
                         help="spans to show in the slowest-spans table "
                              "(default 15)")
    p_trace.add_argument("--validate", action="store_true",
                         help="schema-check the trace file and exit non-zero "
                              "on problems (prints them) — used by CI")
    return parser


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.runtime.watchdog import DeadlineConfig, SolveTimeout

    graph = _make_graph(args)
    root = args.root if args.root is not None else choose_root(graph, seed=args.seed)
    deadline = None
    if args.deadline is not None:
        deadline = DeadlineConfig(max_supersteps=args.deadline)
    trace_cfg = None
    if args.trace is not None or args.metrics_out is not None:
        from repro.obs.tracer import TraceConfig

        perfetto = args.trace is not None and args.trace.endswith(".json")
        trace_cfg = TraceConfig(
            path=args.trace,
            format="perfetto" if perfetto else "jsonl",
            metrics_path=args.metrics_out,
        )
    faults = None
    if args.faults is not None:
        from repro.spmd.faults import FaultPlan

        faults = FaultPlan.from_spec(args.faults)
    try:
        res = solve_sssp(
            graph, root, algorithm=args.algorithm, delta=args.delta,
            machine=_machine(args), validate=args.validate, faults=faults,
            paranoid=args.paranoid, trace=trace_cfg, deadline=deadline,
            checkpoint_dir=args.checkpoint_dir, resume=args.resume,
        )
    except SolveTimeout as exc:
        print(f"solve timed out: {exc}", file=sys.stderr)
        return 3
    print(f"graph: {graph}")
    print(f"root:  {root}")
    print(format_table([res.summary()], "result"))
    print(format_table([res.cost.as_row()], "simulated time breakdown"))
    if faults is not None:
        rec = res.metrics.recovery
        row = {
            **rec.summary(),
            "recovery_bytes": res.metrics.recovery_bytes,
            "checkpoints": rec.checkpoints_taken,
            "faults": sum(rec.faults_injected.values()),
        }
        print(format_table([row], "recovery overhead"))
    if res.trace is not None:
        for kind, path in sorted(res.trace.artifacts.items()):
            print(f"{kind} written to {path}")
    if args.json is not None:
        from repro.util.reports import dump_json, sssp_report

        text = dump_json(sssp_report(res),
                         None if args.json == "-" else args.json)
        if args.json == "-":
            print(text)
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.serve import SloPolicy, run_workload

    try:
        policy = SloPolicy(min_hit_rate=args.slo_min_hit_rate)
    except ValueError as exc:
        print(f"serve-bench: {exc}", file=sys.stderr)
        return 2
    graph, broker, spec = _build_serve_broker(args)
    churn = None
    if args.update_stream:
        from repro.serve.workload import ChurnSpec

        churn = ChurnSpec(
            updates=args.update_stream,
            churn_fraction=args.churn,
            repair_hot_roots=args.repair_hot_roots,
            seed=args.seed,
        )
    try:
        report = run_workload(broker, spec, churn=churn)
    finally:
        broker.shutdown(drain=True)
    print(f"graph: {graph}")
    traffic = {
        k: report[k]
        for k in ("workload", "offered", "completed", "shed", "batches",
                  "solves", "mean_batch_size", "throughput_qps")
    }
    latency = {
        k: v for k, v in report.items()
        if k.endswith("_s") and k not in ("wall_s", "zipf_s")
    }
    print(format_table([traffic], "traffic"))
    print(format_table([{k: f"{v * 1e3:.3f}" for k, v in latency.items()}],
                       "latency (ms)"))
    print(format_table([broker.cache.stats.as_row()], "distance cache"))
    resilient = any(
        (args.chaos, args.retries, args.breaker_threshold,
         args.verify_structural)
    )
    if resilient:
        row = {
            k: report[k]
            for k in ("retries", "hedges", "retried_ok",
                      "cache_quarantined", "negative_hits")
        }
        row.update({
            k: v for k, v in sorted(report.items())
            if k.startswith("outcome_")
        })
        print(format_table([row], "resilience"))
    if churn is not None:
        live = {
            k: report[k]
            for k in ("snapshot_id", "churn_updates", "churn_fraction",
                      "repairs", "repair_fallbacks", "snapshots_resident")
        }
        # reads answered by the lineage tier, beside the fresh solves
        live["outcome_solve"] = report.get("outcome_solve", 0)
        live["outcome_repair"] = report.get("outcome_repair", 0)
        print(format_table([live], "live graph"))
    if args.events is not None:
        print(f"{report.get('wide_events', 0)} wide events written "
              f"to {args.events}")
    if args.metrics_out is not None:
        with open(args.metrics_out, "w") as fh:
            fh.write(broker.registry.prometheus_text())
        print(f"metrics written to {args.metrics_out}")
    if args.json is not None:
        from repro.util.reports import dump_json

        text = dump_json(report, None if args.json == "-" else args.json)
        if args.json == "-":
            print(text)
    violations = policy.check(report)
    for violation in violations:
        print(f"SLO VIOLATION: {violation}", file=sys.stderr)
    return 1 if violations else 0


def _cmd_trace_report(args: argparse.Namespace) -> int:
    from repro.obs.export import validate_trace_file
    from repro.obs.report import load_trace, render_report

    if args.validate:
        fmt, problems = validate_trace_file(args.trace)
        if problems:
            print(f"{args.trace}: INVALID ({fmt})")
            for problem in problems:
                print(f"  - {problem}")
            return 1
        print(f"{args.trace}: OK ({fmt})")
        return 0
    print(render_report(load_trace(args.trace), top=args.top))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    graph = _make_graph(args)
    root = choose_root(graph, seed=args.seed)
    d = args.delta
    rows = algorithm_comparison(
        graph, root,
        [
            ("Dijkstra", "delta", 1),
            (f"Del-{d}", "delta", d),
            (f"Prune-{d}", "prune", d),
            (f"OPT-{d}", "opt", d),
            (f"LB-OPT-{d}", "lb-opt", d),
            ("Bellman-Ford", "bellman-ford", d),
        ],
        machine=_machine(args),
    )
    print(format_table(rows, f"algorithm family on {graph}"))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    graph = _make_graph(args)
    root = choose_root(graph, seed=args.seed)
    deltas = [int(x) for x in args.deltas.split(",") if x]
    rows = delta_sweep(graph, root, deltas, algorithm=args.algorithm,
                       num_ranks=args.ranks, threads_per_rank=args.threads)
    print(format_table(rows, f"Δ sweep of {args.algorithm} on {graph}"))
    return 0


def _cmd_bfs(args: argparse.Namespace) -> int:
    from repro.bfs import run_bfs

    graph = _make_graph(args)
    root = args.root if args.root is not None else choose_root(graph, seed=args.seed)
    res = run_bfs(graph, root, machine=_machine(args), direction=args.direction)
    print(f"graph: {graph}")
    print(f"root:  {root}; reached {res.num_reached} vertices in "
          f"{res.num_levels} levels")
    print("direction per level:", " ".join(res.direction_per_level))
    row = {
        "gteps": res.gteps,
        "edges_examined": res.metrics.total_relaxations,
        "bytes": res.metrics.total_bytes,
        "time_s": res.cost.total_time,
    }
    print(format_table([row], "BFS result"))
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "bfs": _cmd_bfs,
    "serve-bench": _cmd_serve_bench,
    "trace-report": _cmd_trace_report,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
