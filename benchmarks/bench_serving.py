"""Serving benchmark: micro-batching + cache vs one-solve-per-request.

The PR 5 baseline (DESIGN.md §11). Drives the same Zipf-skewed
closed-loop workload through the :class:`~repro.serve.broker.QueryBroker`
in two shapes:

- **baseline** — ``max_batch_size=1``, cache disabled: every request is
  its own engine solve, the pre-serving behavior a caller hand-rolling
  ``solve_sssp`` per query would get;
- **batched-k** — a batch-size curve (k = 2..max) with the distance
  cache on: duplicate roots coalesce within a batch window and hot roots
  hit the cache, which is where a skewed workload's throughput comes
  from.

Reports throughput (qps) and tail latency (p50/p99) per variant plus the
cache-hit vs cold-solve latency split of the largest batched variant.

Standalone usage::

    python benchmarks/bench_serving.py --scale tiny --out bench_tiny.json
    python benchmarks/bench_serving.py --scale default --update BENCH_PR5.json
    python benchmarks/bench_serving.py --scale tiny --check

``--check`` is the CI ``serve-smoke`` gate; it is self-contained (no
committed baseline needed) and fails unless

1. the best batched variant's throughput beats the unbatched baseline's
   (micro-batching must pay for itself on a Zipf workload), and
2. the cache-hit p50 latency is measurably below the cold-solve p50
   (at most ``HIT_LATENCY_CEILING`` of it).

``--overhead-check`` is the CI ``chaos-smoke`` gate (DESIGN.md §12): it
runs the same workload with the resilience machinery armed (retries +
circuit breaker + cache checksums) but **no chaos**, interleaved
best-of-3 against the resilience-off shape, and fails unless

1. answers under the armed broker are bit-identical to offline
   ``solve_sssp`` calls (resilience must be invisible when nothing
   fails), and
2. armed throughput is within ``--max-overhead-pct`` (default 2%) of
   the resilience-off throughput.

``--obs-overhead-check`` is the CI ``obs-serve-smoke`` gate (DESIGN.md
§14): the same paired shape, but arming the request-scoped observability
layer (wide events + latency exemplars) instead of resilience — the
observed system must stay bit-identical, emit exactly one wide event per
offered request, and cost under ``--max-overhead-pct`` of throughput.
With ``--out`` it publishes the ``BENCH_PR9.json`` payload.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

if __package__ in (None, ""):  # standalone execution: python benchmarks/bench_*.py
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.common import (
    cached_rmat,
    default_machine,
    load_bench_json,
    print_table,
    write_bench_json,
)
from repro.serve import QueryBroker, WorkloadSpec, run_workload
from repro.serve.slo import percentile

#: CI gate (ISSUE 10): incremental repair must cost at most this fraction
#: of a fresh solve at <= 1% edge churn.
REPAIR_COST_CEILING = 0.30

#: Open-loop offered rates for the saturation sweep (qps).
RATE_SWEEP = (25.0, 50.0, 100.0, 200.0, 400.0, 800.0)

SCALE_LABELS = {"tiny": 10, "default": 14}
REQUESTS = {"tiny": 120, "default": 400}

#: CI gate: batched throughput must exceed baseline throughput by this factor.
THROUGHPUT_FLOOR = 1.10
#: CI gate: cache-hit p50 latency must be at most this fraction of the
#: cold-solve p50.
HIT_LATENCY_CEILING = 0.5

BATCH_CURVE = (2, 4, 8, 16)


def _run_variant(
    graph,
    spec: WorkloadSpec,
    *,
    machine,
    batch_size: int,
    cache_bytes: int,
    workers: int,
) -> dict:
    """One broker configuration through the workload; returns a run row."""
    broker = QueryBroker(
        graph,
        algorithm="opt",
        delta=25,
        machine=machine,
        capacity=max(spec.num_requests, 256),
        max_batch_size=batch_size,
        flush_interval_s=0.002,
        num_workers=workers,
        cache_bytes=cache_bytes,
    )
    try:
        report = run_workload(broker, spec)
    finally:
        broker.shutdown(drain=True)
    row = {
        "batch_size": batch_size,
        "cache": cache_bytes > 0,
        "completed": report["completed"],
        "shed": report["shed"],
        "throughput_qps": report["throughput_qps"],
        "p50_s": report["p50_s"],
        "p99_s": report["p99_s"],
        "mean_batch_size": report["mean_batch_size"],
        "solves": report["solves"],
        "cache_hit_rate": report["cache_hit_rate"],
    }
    # Exact per-source percentiles for the hit-vs-cold latency split.
    for source in ("cache", "solve"):
        samples = broker.latency.samples(source)
        if samples:
            row[f"p50_{source}_s"] = percentile(samples, 50)
    return row


def run_suite(
    scale_label: str, *, num_ranks: int, workers: int, requests: int | None
) -> dict:
    scale = SCALE_LABELS.get(scale_label)
    if scale is None:
        scale = int(scale_label)
    if requests is None:
        requests = REQUESTS.get(scale_label, 200)
    graph = cached_rmat(scale, "rmat1")
    machine = default_machine(num_ranks, threads_per_rank=8)
    spec = WorkloadSpec(
        num_requests=requests,
        arrival="closed",
        concurrency=4,
        zipf_s=1.2,
        root_universe=32,
        seed=5,
    )
    cache_bytes = 64 << 20
    runs = []
    baseline = _run_variant(
        graph, spec, machine=machine, batch_size=1, cache_bytes=0,
        workers=workers,
    )
    baseline["variant"] = "baseline"
    runs.append(baseline)
    for k in BATCH_CURVE:
        row = _run_variant(
            graph, spec, machine=machine, batch_size=k,
            cache_bytes=cache_bytes, workers=workers,
        )
        row["variant"] = f"batched-{k}"
        row["speedup_vs_baseline"] = (
            row["throughput_qps"] / baseline["throughput_qps"]
        )
        runs.append(row)
    for run in runs:
        run["scale_label"] = scale_label
        run["scale"] = scale
    return {
        "schema": 1,
        "machine": {"num_ranks": num_ranks, "threads_per_rank": 8},
        "workload": {
            "arrival": spec.arrival,
            "num_requests": spec.num_requests,
            "concurrency": spec.concurrency,
            "zipf_s": spec.zipf_s,
            "root_universe": spec.root_universe,
            "seed": spec.seed,
        },
        "runs": runs,
    }


def check_gates(payload: dict) -> list[str]:
    """The self-contained CI gate (see module docstring)."""
    failures: list[str] = []
    runs = payload["runs"]
    baseline = next(r for r in runs if r["variant"] == "baseline")
    batched = [r for r in runs if r["variant"] != "baseline"]
    best = max(batched, key=lambda r: r["throughput_qps"])
    if best["throughput_qps"] < baseline["throughput_qps"] * THROUGHPUT_FLOOR:
        failures.append(
            f"batched throughput {best['throughput_qps']:.1f} qps "
            f"({best['variant']}) < {THROUGHPUT_FLOOR:.2f}x baseline "
            f"{baseline['throughput_qps']:.1f} qps"
        )
    split = [r for r in batched if "p50_cache_s" in r and "p50_solve_s" in r]
    if not split:
        failures.append("no batched variant observed both cache hits and solves")
    for run in split:
        ceiling = run["p50_solve_s"] * HIT_LATENCY_CEILING
        if run["p50_cache_s"] > ceiling:
            failures.append(
                f"{run['variant']}: cache-hit p50 {run['p50_cache_s'] * 1e3:.3f} ms "
                f"not measurably below cold-solve p50 "
                f"{run['p50_solve_s'] * 1e3:.3f} ms "
                f"(ceiling {HIT_LATENCY_CEILING:.0%})"
            )
    return failures


def _resilience_kwargs() -> dict:
    """The armed-but-quiet broker shape gated by ``--overhead-check``."""
    from repro.serve.breaker import BreakerConfig
    from repro.serve.retry import RetryPolicy

    return {
        "retry": RetryPolicy(max_attempts=3, backoff_base_s=0.001),
        "breaker": BreakerConfig(failure_threshold=3, recovery_time_s=0.25),
    }


def paired_overhead(
    off_kwargs,
    on_kwargs,
    *,
    scale_label: str,
    num_ranks: int,
    workers: int,
    requests: int | None,
    trials: int,
    check_on=None,
) -> tuple[list[float], list[float], list[float], float]:
    """Throughput of two broker shapes over ``trials`` alternated rounds.

    ``off_kwargs()`` / ``on_kwargs()`` give the extra ``QueryBroker``
    keywords of the baseline and of the armed shape. Throughput at tiny
    scale is noisy (sub-second runs), so a gate is computed from *paired*
    trials: each round runs both shapes back to back and contributes one
    on/off ratio; machine drift between rounds cancels out of each pair.
    Every armed trial must stay **bit-identical** to offline solves (the
    armed system is the same system); ``check_on(broker, report, kwargs)``
    adds a mode's own assertions. Returns ``(off_qps, on_qps, ratios,
    median ratio)``.
    """
    from repro.core.solver import solve_sssp
    from repro.graph.roots import choose_roots

    import numpy as np

    scale = SCALE_LABELS.get(scale_label)
    if scale is None:
        scale = int(scale_label)
    if requests is None:
        requests = REQUESTS.get(scale_label, 200)
    graph = cached_rmat(scale, "rmat1")
    machine = default_machine(num_ranks, threads_per_rank=8)
    spec = WorkloadSpec(
        num_requests=requests,
        arrival="closed",
        concurrency=4,
        zipf_s=1.2,
        root_universe=32,
        seed=5,
    )

    def one_trial(armed: bool) -> float:
        kwargs = on_kwargs() if armed else off_kwargs()
        broker = QueryBroker(
            graph,
            algorithm="opt",
            delta=25,
            machine=machine,
            capacity=max(spec.num_requests, 256),
            max_batch_size=8,
            flush_interval_s=0.002,
            num_workers=workers,
            cache_bytes=64 << 20,
            **kwargs,
        )
        try:
            report = run_workload(broker, spec)
            if armed:
                if check_on is not None:
                    check_on(broker, report, kwargs)
                for root in choose_roots(graph, 3, seed=7):
                    served = broker.query(int(root))
                    offline = solve_sssp(
                        graph, int(root), algorithm="opt", delta=25,
                        machine=machine,
                    )
                    assert np.array_equal(
                        served.distances, offline.distances
                    ), f"armed broker diverged from offline solve at {root}"
        finally:
            broker.shutdown(drain=True)
        return report["throughput_qps"]

    one_trial(False)  # untimed warmup: imports, graph + solver caches
    ratios, off_qps, on_qps = [], [], []
    for _ in range(trials):
        off = one_trial(False)
        on = one_trial(True)
        off_qps.append(off)
        on_qps.append(on)
        ratios.append(on / off)
    return off_qps, on_qps, ratios, sorted(ratios)[len(ratios) // 2]


def _gate(ratio, off_qps, on_qps, max_overhead_pct, on_name, off_name) -> list[str]:
    if ratio >= 1.0 - max_overhead_pct / 100.0:
        return []
    return [
        f"{on_name} throughput is more than {max_overhead_pct:.1f}% "
        f"below {off_name} (paired median ratio {ratio:.4f}; "
        f"off {off_qps}, on {on_qps})"
    ]


def run_overhead_check(
    scale_label: str,
    *,
    num_ranks: int,
    workers: int,
    requests: int | None,
    max_overhead_pct: float,
    trials: int = 5,
) -> list[str]:
    """Resilience-off vs armed-no-chaos (DESIGN.md §12), gated on the
    paired median ratio of :func:`paired_overhead`."""
    off_qps, on_qps, _, ratio = paired_overhead(
        dict, _resilience_kwargs, scale_label=scale_label,
        num_ranks=num_ranks, workers=workers, requests=requests, trials=trials,
    )
    print(
        f"overhead check ({scale_label}): resilience-off {max(off_qps):.1f} "
        f"qps, armed-no-chaos {max(on_qps):.1f} qps; paired median ratio "
        f"{ratio:.4f} ({(1 - ratio) * 100:+.2f}% overhead over "
        f"{trials} rounds)"
    )
    return _gate(ratio, off_qps, on_qps, max_overhead_pct,
                 "armed-no-chaos", "resilience-off")


def run_obs_overhead_check(
    scale_label: str,
    *,
    num_ranks: int,
    workers: int,
    requests: int | None,
    max_overhead_pct: float,
    trials: int = 5,
    out: str | None = None,
) -> list[str]:
    """Observability-off vs wide-events-armed, paired (DESIGN.md §14).

    The ISSUE 9 gate: arming request contexts + wide events + latency
    exemplars must stay bit-identical and within ``max_overhead_pct`` of
    the unobserved throughput (:func:`paired_overhead`). Also asserts the
    structural wide-event invariant — one event per offered request — on
    every armed trial. With ``out``, the payload (ratios and per-trial
    qps) is written as the ``BENCH_PR9`` baseline.
    """
    from repro.serve.events import WideEventLog

    def check_on(broker, report, kwargs) -> None:
        # structural invariant: one wide event per offered request
        emitted = kwargs["events"].emitted
        assert emitted == report["offered"], (
            f"{emitted} wide events for {report['offered']} offered requests"
        )
        # exemplars must have landed on the latency histogram
        assert any(
            broker.registry.exemplars(
                "serve_request_latency_seconds", source=source
            )
            for source in ("cache", "solve", "coalesced")
        ), "armed run produced no latency exemplars"

    off_qps, on_qps, ratios, ratio = paired_overhead(
        dict, lambda: {"events": WideEventLog()}, scale_label=scale_label,
        num_ranks=num_ranks, workers=workers, requests=requests,
        trials=trials, check_on=check_on,
    )
    print(
        f"observability overhead ({scale_label}): disabled {max(off_qps):.1f} "
        f"qps, events+exemplars armed {max(on_qps):.1f} qps; paired median "
        f"ratio {ratio:.4f} ({(1 - ratio) * 100:+.2f}% overhead over "
        f"{trials} rounds)"
    )
    if out:
        write_bench_json(out, {
            "schema": 1,
            "gate": "obs-overhead",
            "scale_label": scale_label,
            "machine": {"num_ranks": num_ranks, "threads_per_rank": 8},
            "trials": trials,
            "max_overhead_pct": max_overhead_pct,
            "disabled_qps": off_qps,
            "armed_qps": on_qps,
            "ratios": ratios,
            "paired_median_ratio": ratio,
        })
    return _gate(ratio, off_qps, on_qps, max_overhead_pct,
                 "events-armed", "observability-off")


def run_rate_sweep(
    scale_label: str,
    *,
    num_ranks: int,
    workers: int,
    requests: int | None,
    rates=RATE_SWEEP,
) -> dict:
    """Open-loop rate sweep past saturation (ISSUE 10 satellite a).

    Each rate drives the same Poisson stream shape; the broker's bounded
    admission queue converts overload into sheds, so the row sequence
    exposes the shed-fraction / latency knee rather than hiding it behind
    closed-loop self-pacing. Capacity is deliberately modest (64) and the
    cache is off — every request is a real solve, so the sweep is *meant*
    to cross the knee.
    """
    scale = SCALE_LABELS.get(scale_label)
    if scale is None:
        scale = int(scale_label)
    if requests is None:
        requests = REQUESTS.get(scale_label, 200)
    graph = cached_rmat(scale, "rmat1")
    machine = default_machine(num_ranks, threads_per_rank=8)
    runs = []
    for rate in rates:
        spec = WorkloadSpec(
            num_requests=requests,
            arrival="open",
            rate_qps=float(rate),
            zipf_s=1.2,
            root_universe=32,
            seed=5,
        )
        broker = QueryBroker(
            graph,
            algorithm="opt",
            delta=25,
            machine=machine,
            capacity=64,
            max_batch_size=8,
            flush_interval_s=0.002,
            num_workers=workers,
            cache_bytes=0,
        )
        try:
            report = run_workload(broker, spec)
        finally:
            broker.shutdown(drain=True)
        offered = report["offered"]
        runs.append({
            "variant": f"rate-{rate:g}",
            "scale_label": scale_label,
            "scale": scale,
            "rate_qps": float(rate),
            "offered": offered,
            "completed": report["completed"],
            "shed": report["shed"],
            "shed_fraction": report["shed"] / offered if offered else 0.0,
            "throughput_qps": report["throughput_qps"],
            "p50_s": report["p50_s"],
            "p99_s": report["p99_s"],
            "cache_hit_rate": report["cache_hit_rate"],
        })
    return {
        "schema": 1,
        "gate": "rate-sweep",
        "machine": {"num_ranks": num_ranks, "threads_per_rank": 8},
        "runs": runs,
    }


def run_update_stream(
    scale_label: str,
    *,
    num_ranks: int,
    requests: int | None = None,
    churn_fraction: float = 0.01,
    updates: int = 4,
    hot_roots: int = 4,
    seed: int = 0,
) -> dict:
    """Repair-vs-fresh cost on a live update stream (ISSUE 10 headline).

    Per churn round: apply a seeded ``churn_fraction`` batch through a
    :class:`~repro.dynamic.versioner.GraphVersioner`, repair each hot
    root's previous distances, and fresh-solve the same roots on the new
    snapshot. Every repaired vector is asserted bit-identical to its
    fresh solve before any timing is reported, and the published ratio is
    total repair seconds over total fresh-solve seconds.
    """
    import time

    import numpy as np

    from repro.core.config import preset
    from repro.core.solver import solve_sssp
    from repro.dynamic.repair import repair_sssp
    from repro.dynamic.updates import random_update_batch
    from repro.dynamic.versioner import GraphVersioner
    from repro.graph.roots import choose_roots

    scale = SCALE_LABELS.get(scale_label)
    if scale is None:
        scale = int(scale_label)
    graph = cached_rmat(scale, "rmat1")
    machine = default_machine(num_ranks, threads_per_rank=8)
    config = preset("opt", 25)
    versioner = GraphVersioner(
        graph, machine=machine, config=config, retention=updates + 1
    )
    roots = [int(r) for r in choose_roots(graph, hot_roots, seed=seed)]

    def fresh(g, root: int) -> tuple:
        t0 = time.perf_counter()
        result = solve_sssp(
            g, root, algorithm="opt", delta=25, machine=machine
        )
        return result.distances, time.perf_counter() - t0

    distances = {}
    for root in roots:
        distances[root], _ = fresh(graph, root)

    runs = []
    repair_total = fresh_total = 0.0
    fallbacks = 0
    for r in range(updates):
        batch = random_update_batch(
            versioner.current.graph,
            np.random.default_rng((seed, r)),
            churn_fraction=churn_fraction,
        )
        snap, _ = versioner.apply(batch)
        ctx = versioner.context_for(snap.snapshot_id)
        round_repair = round_fresh = 0.0
        round_dirty = 0
        for root in roots:
            result = repair_sssp(ctx, root, distances[root], snap.delta)
            fresh_d, fresh_s = fresh(snap.graph, root)
            round_fresh += fresh_s
            if result.fallback:
                fallbacks += 1
                distances[root] = fresh_d
                round_repair += fresh_s  # fallback pays the full solve
                continue
            round_repair += result.wall_time_s
            round_dirty += result.dirty
            assert np.array_equal(result.distances, fresh_d), (
                f"repair diverged from fresh solve: root {root}, "
                f"snapshot {snap.snapshot_id}"
            )
            distances[root] = result.distances
        repair_total += round_repair
        fresh_total += round_fresh
        runs.append({
            "variant": f"churn-round-{r}",
            "scale_label": scale_label,
            "scale": scale,
            "snapshot_id": snap.snapshot_id,
            "batch_size": batch.size,
            "churn_fraction": churn_fraction,
            "roots": len(roots),
            "dirty": round_dirty,
            "repair_s": round_repair,
            "fresh_s": round_fresh,
            "repair_cost_ratio": (
                round_repair / round_fresh if round_fresh else 0.0
            ),
        })
    return {
        "schema": 1,
        "gate": "update-stream",
        "machine": {"num_ranks": num_ranks, "threads_per_rank": 8},
        "churn": {
            "updates": updates,
            "churn_fraction": churn_fraction,
            "hot_roots": hot_roots,
            "seed": seed,
        },
        "repair_s": repair_total,
        "fresh_s": fresh_total,
        "repair_cost_ratio": (
            repair_total / fresh_total if fresh_total else 0.0
        ),
        "repair_fallbacks": fallbacks,
        "runs": runs,
    }


def check_update_stream_gate(payload: dict) -> list[str]:
    """Repaired-at-a-fraction-of-fresh, bit-identity already asserted."""
    failures = []
    ratio = payload["repair_cost_ratio"]
    if ratio >= REPAIR_COST_CEILING:
        failures.append(
            f"repair cost ratio {ratio:.3f} >= {REPAIR_COST_CEILING:.2f} "
            f"of fresh-solve cost at "
            f"{payload['churn']['churn_fraction']:.2%} churn"
        )
    return failures


def merge_section(path: str, section: str, payload: dict) -> None:
    """Write ``payload`` under its own section of a live-serving baseline
    JSON (``BENCH_PR10.json``), preserving the other sections."""
    base = load_bench_json(path) if Path(path).exists() else {}
    base["schema"] = 1
    base[section] = payload
    write_bench_json(path, base)


def merge_into_baseline(current: dict, baseline: dict) -> dict:
    """Replace rows matched by (scale_label, variant); keep the rest."""
    fresh = {(r["scale_label"], r["variant"]): r for r in current["runs"]}
    kept = [
        r
        for r in baseline.get("runs", [])
        if (r["scale_label"], r["variant"]) not in fresh
    ]
    merged = dict(baseline) if baseline else {}
    merged["schema"] = current["schema"]
    merged["machine"] = current["machine"]
    merged["workload"] = current["workload"]
    merged["runs"] = sorted(
        kept + list(fresh.values()),
        key=lambda r: (r["scale_label"], r["batch_size"]),
    )
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        default="default",
        help="'tiny' (2^10), 'default' (2^14) or an explicit log2 vertex count",
    )
    parser.add_argument("--ranks", type=int, default=8)
    parser.add_argument("--workers", type=int, default=1,
                        help="broker worker threads (default 1)")
    parser.add_argument("--requests", type=int, default=None,
                        help="override the per-scale request count")
    parser.add_argument("--out", help="write results JSON to this path")
    parser.add_argument(
        "--update", help="merge results into this baseline JSON (create if absent)"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail unless batching beats the unbatched baseline and "
             "cache hits are measurably faster than cold solves",
    )
    parser.add_argument(
        "--overhead-check",
        action="store_true",
        help="gate only: armed-no-chaos resilience must stay bit-identical "
             "and within --max-overhead-pct of resilience-off throughput",
    )
    parser.add_argument(
        "--obs-overhead-check",
        action="store_true",
        help="gate only: wide events + exemplars armed must stay "
             "bit-identical and within --max-overhead-pct of "
             "observability-off throughput (writes --out as the "
             "BENCH_PR9 payload when given)",
    )
    parser.add_argument(
        "--max-overhead-pct", type=float, default=2.0,
        help="allowed armed-no-chaos throughput regression (default 2%%)",
    )
    parser.add_argument(
        "--rate-sweep",
        action="store_true",
        help="open-loop offered-rate sweep past saturation: publishes the "
             "shed-fraction / latency knee (BENCH_PR10 'rate_sweep' "
             "section when --update names a baseline)",
    )
    parser.add_argument(
        "--update-stream",
        action="store_true",
        help="live-graph repair-vs-fresh cost stream: seeded churn rounds "
             "through a GraphVersioner, hot roots carried by incremental "
             "repair, bit-identity asserted (BENCH_PR10 'update_stream' "
             "section when --update names a baseline); with --check, "
             "fails unless repair costs < 30%% of fresh solves",
    )
    parser.add_argument(
        "--churn", type=float, default=0.01,
        help="edge-churn fraction per update round (default 1%%)",
    )
    parser.add_argument(
        "--updates", type=int, default=4,
        help="number of churn rounds in --update-stream (default 4)",
    )
    args = parser.parse_args(argv)

    if args.rate_sweep:
        payload = run_rate_sweep(
            args.scale, num_ranks=args.ranks, workers=args.workers,
            requests=args.requests,
        )
        print_table(
            [
                {
                    "rate qps": f"{r['rate_qps']:g}",
                    "done": r["completed"],
                    "shed": f"{r['shed_fraction']:.2%}",
                    "qps": f"{r['throughput_qps']:.1f}",
                    "p50 ms": f"{r['p50_s'] * 1e3:.3f}",
                    "p99 ms": f"{r['p99_s'] * 1e3:.3f}",
                }
                for r in payload["runs"]
            ],
            f"Open-loop rate sweep past saturation ({args.scale})",
        )
        if args.out:
            write_bench_json(args.out, payload)
        if args.update:
            merge_section(args.update, "rate_sweep", payload)
        return 0

    if args.update_stream:
        payload = run_update_stream(
            args.scale, num_ranks=args.ranks,
            churn_fraction=args.churn, updates=args.updates,
        )
        print_table(
            [
                {
                    "round": r["variant"],
                    "batch": r["batch_size"],
                    "dirty": r["dirty"],
                    "repair ms": f"{r['repair_s'] * 1e3:.1f}",
                    "fresh ms": f"{r['fresh_s'] * 1e3:.1f}",
                    "ratio": f"{r['repair_cost_ratio']:.3f}",
                }
                for r in payload["runs"]
            ],
            f"Incremental repair vs fresh solve ({args.scale}, "
            f"{args.churn:.2%} churn)",
        )
        print(
            f"total: repair {payload['repair_s'] * 1e3:.1f} ms vs fresh "
            f"{payload['fresh_s'] * 1e3:.1f} ms — ratio "
            f"{payload['repair_cost_ratio']:.3f} "
            f"({payload['repair_fallbacks']} fallbacks); answers "
            f"bit-identical on every snapshot"
        )
        if args.out:
            write_bench_json(args.out, payload)
        if args.update:
            merge_section(args.update, "update_stream", payload)
        if args.check:
            failures = check_update_stream_gate(payload)
            for failure in failures:
                print(f"REPAIR GATE: {failure}", file=sys.stderr)
            if failures:
                return 1
            print(
                "repair gate: OK (bit-identical, repair < "
                f"{REPAIR_COST_CEILING:.0%} of fresh-solve cost)"
            )
        return 0

    if args.obs_overhead_check:
        failures = run_obs_overhead_check(
            args.scale, num_ranks=args.ranks, workers=args.workers,
            requests=args.requests, max_overhead_pct=args.max_overhead_pct,
            out=args.out,
        )
        for failure in failures:
            print(f"OBS OVERHEAD GATE: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("obs overhead gate: OK (wide events armed, bit-identical, "
              "within budget)")
        return 0

    if args.overhead_check:
        failures = run_overhead_check(
            args.scale, num_ranks=args.ranks, workers=args.workers,
            requests=args.requests, max_overhead_pct=args.max_overhead_pct,
        )
        for failure in failures:
            print(f"OVERHEAD GATE: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("overhead gate: OK (resilience armed, bit-identical, "
              "within budget)")
        return 0

    payload = run_suite(
        args.scale, num_ranks=args.ranks, workers=args.workers,
        requests=args.requests,
    )
    rows = []
    for run in payload["runs"]:
        row = {
            "variant": run["variant"],
            "qps": f"{run['throughput_qps']:.1f}",
            "p50 ms": f"{run['p50_s'] * 1e3:.3f}",
            "p99 ms": f"{run['p99_s'] * 1e3:.3f}",
            "hit rate": f"{run['cache_hit_rate']:.2f}",
            "solves": run["solves"],
            "mean batch": f"{run['mean_batch_size']:.2f}",
        }
        if "speedup_vs_baseline" in run:
            row["vs baseline"] = f"{run['speedup_vs_baseline']:.2f}x"
        if "p50_cache_s" in run and "p50_solve_s" in run:
            row["hit/cold p50"] = (
                f"{run['p50_cache_s'] * 1e3:.3f}/"
                f"{run['p50_solve_s'] * 1e3:.3f} ms"
            )
        rows.append(row)
    print_table(
        rows, f"Serving: batched + cached vs unbatched baseline ({args.scale})"
    )

    if args.out:
        write_bench_json(args.out, payload)
    if args.update:
        base = load_bench_json(args.update) if Path(args.update).exists() else {}
        write_bench_json(args.update, merge_into_baseline(payload, base))
    if args.check:
        failures = check_gates(payload)
        for failure in failures:
            print(f"SERVE GATE: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("serving gate: OK (batching beats baseline; hits beat cold solves)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
