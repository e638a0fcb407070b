"""Tracing overhead benchmark: telemetry on vs off.

The observability layer (DESIGN.md §10) is pay-for-use: with no
:class:`~repro.obs.tracer.TraceConfig` on the solve, not a single tracer
branch beyond a ``None`` check runs, and the solve must be bit-identical
to the pre-PR tree. With tracing *enabled* the layer records a span per
epoch/phase/superstep and a per-rank timing sample per step record —
real work that must stay cheap enough to leave on during experiments.

For every preset this script times full solves twice — once untraced and
once with an in-memory tracer (``TraceConfig(path=None)``, so file I/O
does not pollute the measurement) — asserts the two variants are
bit-identical in distances, execution counters and simulated cost, and
reports the wall-clock overhead factor (untraced epochs/sec over traced
epochs/sec). Presets cover both engines and both bucket regimes (skewed
R-MAT, large-diameter grid).

Standalone usage::

    python benchmarks/bench_trace_overhead.py --scale tiny
    python benchmarks/bench_trace_overhead.py --scale default --update BENCH_PR4.json
    python benchmarks/bench_trace_overhead.py --scale tiny --max-overhead 3.0

``--max-overhead`` (default 3.0) is the CI smoke gate: the run exits
non-zero when any preset's enabled-tracing overhead factor exceeds it.
The cap was 2.0 while every solve reduced each accounting call on the
spot (worst preset 1.5x). Since the step ledger (DESIGN.md §9 rule 4) an
untraced solve only queues facts and folds them once, while an armed
tracer still has each record reduced as it happens — the denominator
shrank by up to a third, the traced solve is 4-14 % slower than it was,
and the worst preset reads 2.3x at tiny scale, where it would read 1.94x
if traced solves had not slowed at all (absolute times: DESIGN.md §10).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

if __package__ in (None, ""):  # standalone execution: python benchmarks/bench_*.py
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.common import (
    cached_grid,
    cached_rmat,
    choose_root,
    default_machine,
    print_table,
    write_bench_json,
)
from repro.core.config import preset
from repro.core.solver import solve_sssp
from repro.obs.tracer import TraceConfig
from repro.runtime.costmodel import evaluate_cost
from repro.spmd.engine import spmd_delta_stepping

SCALE_LABELS = {"tiny": 10, "default": 14}

#: preset name -> (graph builder, algorithm, delta, engine)
PRESETS = {
    "rmat1": (lambda scale: cached_rmat(scale, "rmat1"), "opt", 25, "orch"),
    "grid": (lambda scale: cached_grid(scale), "delta", 25, "orch"),
    "rmat1-spmd": (lambda scale: cached_rmat(scale, "rmat1"), "delta", 8, "spmd"),
    "grid-spmd": (lambda scale: cached_grid(scale), "delta", 25, "spmd"),
}

#: CI gate: fail when traced epochs/sec drops below 1/this of untraced.
DEFAULT_MAX_OVERHEAD = 3.0


def _solve(graph, root, cfg, machine, engine: str, trace):
    """One timed solve; returns (wall_s, distances, metrics, cost, tracer)."""
    if engine == "spmd":
        t0 = time.perf_counter()
        d, ctx = spmd_delta_stepping(graph, root, machine, config=cfg, trace=trace)
        wall = time.perf_counter() - t0
        return wall, d, ctx.metrics, evaluate_cost(ctx.metrics, machine), ctx.tracer
    res = solve_sssp(graph, root, config=cfg, machine=machine, trace=trace)
    return res.wall_time_s, res.distances, res.metrics, res.cost, res.trace


def _epochs(metrics) -> int:
    """Bucket epochs plus Bellman-Ford phases — one 'epoch' of either loop."""
    return int(metrics.buckets_processed + metrics.bf_phases)


def run_preset(name: str, scale: int, *, repeats: int, num_ranks: int) -> dict:
    """Time untraced vs traced solves of one preset; return a result row."""
    builder, algorithm, delta, engine = PRESETS[name]
    graph = builder(scale)
    root = choose_root(graph, seed=scale)
    machine = default_machine(num_ranks, threads_per_rank=8)
    cfg = preset(algorithm, delta)
    trace_cfg = TraceConfig(path=None)  # in-memory: measure tracing, not I/O
    variants: dict[str, dict] = {}
    solves: dict[str, tuple] = {}
    for variant, trace in (("off", None), ("on", trace_cfg)):
        best = None
        for _ in range(repeats):
            solved = _solve(graph, root, cfg, machine, engine, trace)
            if best is None or solved[0] < best[0]:
                best = solved
        wall, _, metrics, _, tracer = best
        solves[variant] = best
        num_edges = graph.num_undirected_edges
        variants[variant] = {
            "wall_s": wall,
            "ns_per_edge": wall * 1e9 / max(num_edges, 1),
            "epochs_per_sec": _epochs(metrics) / wall,
        }
        if tracer is not None:
            variants[variant]["trace_events"] = len(tracer.events)
    # Tracing must be invisible to results, counters and simulated cost.
    _, d_off, m_off, c_off, _ = solves["off"]
    _, d_on, m_on, c_on, _ = solves["on"]
    if not np.array_equal(d_off, d_on):
        raise AssertionError(f"{name}: distances differ with tracing on")
    if m_off.summary() != m_on.summary():
        raise AssertionError(f"{name}: metrics differ with tracing on")
    if c_off != c_on:
        raise AssertionError(f"{name}: simulated cost differs with tracing on")
    row = {
        "preset": name,
        "engine": engine,
        "algorithm": f"{algorithm}-{delta}",
        "scale": scale,
        "n": graph.num_vertices,
        "m": graph.num_undirected_edges,
        "epochs": _epochs(m_off),
        "overhead": (
            variants["off"]["epochs_per_sec"] / variants["on"]["epochs_per_sec"]
        ),
    }
    row.update(variants)
    return row


def run_suite(scale_label: str, *, repeats: int, num_ranks: int) -> dict:
    """Run every preset at one scale; return the JSON payload."""
    scale = SCALE_LABELS.get(scale_label)
    if scale is None:
        scale = int(scale_label)
    runs = []
    for name in PRESETS:
        row = run_preset(name, scale, repeats=repeats, num_ranks=num_ranks)
        row["scale_label"] = scale_label
        runs.append(row)
    return {
        "schema": 1,
        "machine": {"num_ranks": num_ranks, "threads_per_rank": 8},
        "repeats": repeats,
        "runs": runs,
    }


def check_overhead(payload: dict, max_overhead: float) -> list[str]:
    """Gate: every preset's enabled-tracing overhead must stay under the cap.

    Returns a list of human-readable failures (empty = gate passes).
    """
    failures: list[str] = []
    for run in payload["runs"]:
        if run["overhead"] > max_overhead:
            failures.append(
                f"{run['preset']}@{run['scale_label']}: tracing overhead "
                f"{run['overhead']:.2f}x exceeds the {max_overhead:.2f}x cap"
            )
    return failures


def merge_into_baseline(current: dict, baseline: dict) -> dict:
    """Replace baseline rows matched by (scale_label, preset); keep the rest."""
    fresh = {(r["scale_label"], r["preset"]): r for r in current["runs"]}
    kept = [
        r
        for r in baseline.get("runs", [])
        if (r["scale_label"], r["preset"]) not in fresh
    ]
    merged = dict(baseline)
    merged.update({k: current[k] for k in ("schema", "machine", "repeats")})
    merged["runs"] = kept + list(fresh.values())
    return merged


def main(argv=None) -> int:
    """CLI driver; returns a process exit code."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", default="tiny",
                    help="'tiny', 'default', or an explicit log2 scale")
    ap.add_argument("--repeats", type=int, default=3,
                    help="timed repeats per variant; best is kept (default 3)")
    ap.add_argument("--ranks", type=int, default=8,
                    help="simulated ranks (default 8)")
    ap.add_argument("--out", metavar="PATH", default=None,
                    help="write the results JSON to PATH")
    ap.add_argument("--update", metavar="PATH", default=None,
                    help="merge the results into an existing baseline JSON")
    ap.add_argument("--max-overhead", type=float, default=DEFAULT_MAX_OVERHEAD,
                    help="fail when any preset's tracing overhead factor "
                         f"exceeds this (default {DEFAULT_MAX_OVERHEAD})")
    args = ap.parse_args(argv)

    payload = run_suite(args.scale, repeats=args.repeats, num_ranks=args.ranks)
    rows = [
        {
            "preset": r["preset"],
            "engine": r["engine"],
            "epochs": r["epochs"],
            "off_eps": r["off"]["epochs_per_sec"],
            "on_eps": r["on"]["epochs_per_sec"],
            "overhead": r["overhead"],
            "events": r["on"].get("trace_events", 0),
        }
        for r in payload["runs"]
    ]
    print_table(rows, "tracing overhead (epochs/sec, off vs on)")

    if args.out:
        write_bench_json(args.out, payload)
    if args.update:
        path = Path(args.update)
        if path.exists():
            import json

            baseline = json.loads(path.read_text())
        else:
            baseline = {}
        write_bench_json(args.update, merge_into_baseline(payload, baseline))

    failures = check_overhead(payload, args.max_overhead)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
