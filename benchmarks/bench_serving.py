"""Serving reports: the batch-size curve and the open-loop saturation knee.

Two tables over one Zipf-skewed stream (DESIGN.md §11), nothing gated:

- the **batch-size curve** (default) drives a closed loop of four callers
  through the :class:`~repro.serve.broker.QueryBroker` unbatched with the
  cache off — every request its own engine solve — and then batched at
  k = 2..16 with the distance cache on, and prints throughput, p50/p99
  and the cache-hit vs cold-solve latency split of each shape;
- ``--rate-sweep`` offers the same stream open-loop at rising rates with
  the cache off and a modest admission queue, so the rows cross the
  saturation knee: shed fraction and tail latency against offered rate.

Standalone usage::

    python benchmarks/bench_serving.py --scale tiny
    python benchmarks/bench_serving.py --scale default --rate-sweep --requests 150

What CI holds the serving plane to (batching + cache against the unbatched
shape, hit p50 against cold p50, armed overheads, repair cost) is the gate
table of ``python -m benchmarks.gates``, whose paired gates run the
:func:`serve` shape defined here.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

if __package__ in (None, ""):  # standalone execution: python benchmarks/bench_*.py
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.common import (
    cached_rmat,
    default_machine,
    print_table,
    write_bench_json,
)
from repro.serve import QueryBroker, WorkloadSpec, run_workload
from repro.serve.slo import percentile

#: Open-loop offered rates for the saturation sweep (qps).
RATE_SWEEP = (25.0, 50.0, 100.0, 200.0, 400.0, 800.0)
BATCH_CURVE = (2, 4, 8, 16)

SCALE_LABELS = {"tiny": 10, "default": 14}
REQUESTS = {"tiny": 120, "default": 400}


def stream(scale_label: str, requests: int | None = None, **arrival) -> tuple:
    """``(graph, WorkloadSpec)`` of the bench's stream at one scale: RMAT-1,
    Zipf s=1.2 over 32 roots, seed 5; closed loop of 4 unless ``arrival``
    says otherwise."""
    scale = SCALE_LABELS.get(scale_label) or int(scale_label)
    if requests is None:
        requests = REQUESTS.get(scale_label, 200)
    arrival = {"arrival": "closed", "concurrency": 4, **arrival}
    return cached_rmat(scale, "rmat1"), WorkloadSpec(
        num_requests=requests, zipf_s=1.2, root_universe=32, seed=5, **arrival
    )


@contextlib.contextmanager
def serve(graph, spec: WorkloadSpec, *, num_ranks: int = 8, **broker_kwargs):
    """Drive ``spec`` through one broker of the bench's standard shape
    (``opt``/Δ=25, takes of at most 8, one worker, 64 MiB cache;
    ``broker_kwargs`` override) and yield ``(broker, report)`` with the
    broker still up; it is drained and shut down on exit."""
    shape = {
        "capacity": max(spec.num_requests, 256),
        "max_batch_size": 8,
        "num_workers": 1,
        "cache_bytes": 64 << 20,
        **broker_kwargs,
    }
    broker = QueryBroker(
        graph, algorithm="opt", delta=25,
        machine=default_machine(num_ranks, threads_per_rank=8), **shape,
    )
    try:
        yield broker, run_workload(broker, spec)
    finally:
        broker.shutdown(drain=True)


def run_batch_curve(scale_label: str, *, requests=None, **shape) -> list[dict]:
    """One row per broker shape: unbatched/cache-off, then the curve."""
    graph, spec = stream(scale_label, requests)
    rows = []
    for k in (1, *BATCH_CURVE):
        cache_bytes = (64 << 20) if k > 1 else 0
        with serve(graph, spec, max_batch_size=k, cache_bytes=cache_bytes,
                   **shape) as (broker, report):
            row = {
                "variant": f"batched-{k}" if k > 1 else "baseline",
                "batch_size": k,
                **{key: report[key] for key in (
                    "completed", "shed", "throughput_qps", "p50_s", "p99_s",
                    "mean_batch_size", "solves", "cache_hit_rate")},
            }
            # Exact per-source percentiles for the hit-vs-cold latency split.
            for source in ("cache", "solve"):
                samples = broker.latency.samples(source)
                if samples:
                    row[f"p50_{source}_s"] = percentile(samples, 50)
        row["speedup_vs_baseline"] = (
            row["throughput_qps"] / (rows[0] if rows else row)["throughput_qps"]
        )
        rows.append(row)
    return rows


def run_rate_sweep(scale_label: str, *, requests=None, rates=RATE_SWEEP,
                   **shape) -> list[dict]:
    """Open-loop rate sweep past saturation.

    Each rate drives the same Poisson stream shape; the broker's bounded
    admission queue converts overload into sheds, so the row sequence
    exposes the shed-fraction / latency knee rather than hiding it behind
    closed-loop self-pacing. Capacity is deliberately modest (64) and the
    cache is off — every request is a real solve, so the sweep is *meant*
    to cross the knee.
    """
    rows = []
    for rate in rates:
        graph, spec = stream(scale_label, requests, arrival="open",
                             rate_qps=float(rate))
        with serve(graph, spec, capacity=64, cache_bytes=0,
                   **shape) as (_, report):
            offered = report["offered"]
            rows.append({
                "variant": f"rate-{rate:g}",
                "rate_qps": float(rate),
                "offered": offered,
                "shed_fraction": report["shed"] / offered if offered else 0.0,
                **{key: report[key] for key in (
                    "completed", "shed", "throughput_qps", "p50_s", "p99_s")},
            })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", default="default",
        help="'tiny' (2^10), 'default' (2^14) or an explicit log2 vertex count",
    )
    parser.add_argument("--ranks", type=int, default=8)
    parser.add_argument("--workers", type=int, default=1,
                        help="broker worker threads (default 1)")
    parser.add_argument("--requests", type=int, default=None,
                        help="override the per-scale request count")
    parser.add_argument("--out", help="write the rows as JSON to this path")
    parser.add_argument(
        "--rate-sweep", action="store_true",
        help="open-loop offered-rate sweep past saturation (the shed-"
             "fraction / latency knee) instead of the batch-size curve",
    )
    args = parser.parse_args(argv)
    shape = {"num_ranks": args.ranks, "num_workers": args.workers}

    if args.rate_sweep:
        rows = run_rate_sweep(args.scale, requests=args.requests, **shape)
        table = [
            {
                "rate qps": f"{r['rate_qps']:g}",
                "done": r["completed"],
                "shed": f"{r['shed_fraction']:.2%}",
                "qps": f"{r['throughput_qps']:.1f}",
                "p50 ms": f"{r['p50_s'] * 1e3:.3f}",
                "p99 ms": f"{r['p99_s'] * 1e3:.3f}",
            }
            for r in rows
        ]
        title = f"Open-loop rate sweep past saturation ({args.scale})"
    else:
        rows = run_batch_curve(args.scale, requests=args.requests, **shape)
        table = [
            {
                "variant": r["variant"],
                "qps": f"{r['throughput_qps']:.1f}",
                "p50 ms": f"{r['p50_s'] * 1e3:.3f}",
                "p99 ms": f"{r['p99_s'] * 1e3:.3f}",
                "hit rate": f"{r['cache_hit_rate']:.2f}",
                "solves": r["solves"],
                "mean batch": f"{r['mean_batch_size']:.2f}",
                "vs baseline": f"{r['speedup_vs_baseline']:.2f}x",
                "hit/cold p50": (
                    f"{r['p50_cache_s'] * 1e3:.3f}/{r['p50_solve_s'] * 1e3:.3f} ms"
                    if "p50_cache_s" in r and "p50_solve_s" in r else "-"
                ),
            }
            for r in rows
        ]
        title = f"Serving: batched + cached vs unbatched baseline ({args.scale})"
    print_table(table, title)
    if args.out:
        write_bench_json(args.out, {
            "scale": args.scale,
            "machine": {"num_ranks": args.ranks, "threads_per_rank": 8},
            "runs": rows,
        })
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
