"""The serving workloads: traffic through ``QueryBroker``.

``serve_cold`` (every request a miss; a closed saturation phase, then an
open loop below the knee), ``serve_hot`` (every request a cache hit; one
synchronous caller) and ``serve_churn`` (update batches beside Zipf reads).
The broker keeps its defaults — one worker thread — and the benchmark adds
the one thread that generates load. In a traced run every second window or
round, and every fourth chunk of hits, goes through the span proxies.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import repro.dynamic.versioner as versioner_module
import repro.serve.broker as broker_module
from repro.dynamic.updates import random_update_batch
from repro.dynamic.versioner import structural_digest
from repro.serve import QueryBroker, ServiceOverload
from repro.serve.events import WideEventLog

from benchmarks.stack.cold import (
    arm_solver,
    build_rmat,
    probe_graph,
    put_solver_spans,
)
from benchmarks.stack.loadgen import (
    poisson_due_times,
    run_open_loop,
    sample_roots,
    zipf_indices,
)
from benchmarks.stack.oracle import Oracle
from benchmarks.stack.spec import (
    ALGORITHM,
    DELTA,
    RANKS,
    THREADS,
    Block,
    Run,
    put_end_to_end,
    timed_setup,
)
from benchmarks.stack.stats import percentile

__all__ = ["serve_cold", "serve_hot", "serve_churn"]

#: retained wide events: enough to cross-check ids, bounded so that a
#: 200 000-request run does not measure the event log's memory
EVENT_CAPACITY = 1024
#: at most this many served answers are compared with SciPy per run
VERIFY_SAMPLE = 128
ZIPF = 1.1


class _Service:
    """A broker on a seeded R-MAT graph plus what verification needs."""

    def __init__(self, run: Run, *, universe: int, warm: int, **broker_kwargs):
        graph = build_rmat(run, run.size["serve_scale"])
        self.events = WideEventLog(capacity=EVENT_CAPACITY)
        with run.span("broker_init", "serve"):
            self.broker = QueryBroker(
                graph, algorithm=ALGORITHM, delta=DELTA, num_ranks=RANKS,
                threads_per_rank=THREADS, events=self.events, **broker_kwargs,
            )
        self.universe = [
            int(r) for r in sample_roots(graph, universe, run.rng("roots"))
        ]
        # Warm-up: lazy set-up done, and for the cached services the
        # hottest roots resident, before the first timed operation.
        self.warm = {r: self.broker.query(r) for r in self.universe[: max(1, warm)]}

    def close(self) -> float:
        t0 = time.perf_counter()
        self.broker.shutdown()
        return time.perf_counter() - t0

    def arm(self, recorder) -> None:
        arm_solver(recorder)
        broker = self.broker
        recorder.wrap(broker, "submit", "submit", "serve")
        recorder.wrap(broker.cache, "get", "cache_get", "serve")
        recorder.wrap(broker.cache, "put", "cache_put", "serve")
        recorder.wrap(broker.events, "emit", "event_emit", "obs")


def _setup(run: Run, **kwargs) -> _Service:
    return timed_setup(run, lambda: _Service(run, **kwargs), _Service.close)


def _shutdown(run: Run, service: _Service) -> None:
    shutdown_s = service.close()
    if run.traced:
        run.put("serve.shutdown_ms", shutdown_s * 1e3)


def _gteps(results) -> list[float]:
    return [r.sssp.gteps for r in results if r.sssp is not None]


def _check_events(service: _Service, baseline: int, requests: int) -> int:
    """Exactly one wide event per request; returns how many are off."""
    emitted = service.events.emitted - baseline
    ids = [e["request_id"] for e in service.events.events()]
    duplicates = len(ids) - len(set(ids))
    return abs(emitted - requests) + duplicates


def _put_serving_layers(run: Run, service: _Service, since: int) -> None:
    """``serve.*`` / ``obs.*`` numbers every traced serving run reports."""
    broker = service.broker
    report = broker.report()
    run.put("serve.broker_init_ms", run.span_ms("serve", "broker_init"))
    run.put("serve.submit_us_p50", run.span_ms("serve", "submit", since, scale=1e6))
    run.put("serve.cache_get_us", run.span_ms("serve", "cache_get", since, scale=1e6))
    run.put("serve.cache_put_us", run.span_ms("serve", "cache_put", since, scale=1e6))
    run.put("serve.batches", report["batches"])
    run.put("serve.solves", report["solves"])
    run.put("serve.batch_size_mean", report["mean_batch_size"])
    run.put("serve.cache_hit_share", report["cache_hit_rate"])
    run.put("serve.cache_evictions", report["cache_evictions"])
    run.put("serve.shed", report["shed"])
    emits = run.recorder.durations("obs", "event_emit", since)
    run.put("obs.event_emit_us", statistics.median(emits) * 1e6 if emits else 0.0, len(emits))
    run.put("obs.events_emitted", service.events.emitted)
    waits = [
        sum(e["timing"]["queue_waits_s"])
        for e in service.events.events()
        if e["timing"]["queue_waits_s"]
    ]
    run.put("serve.queue_wait_ms_p50",
            statistics.median(waits) * 1e3 if waits else 0.0, len(waits))
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        broker.registry.prometheus_text()
        times.append(time.perf_counter() - t0)
    run.put("obs.prometheus_text_ms", statistics.median(times) * 1e3, len(times))
    probe_graph(run, service.broker.graph)
    put_solver_spans(run, since)


def _overhead_pct(untraced_per_op: list[float], traced_per_op: list[float]) -> float:
    if not untraced_per_op or not traced_per_op:
        return 0.0
    base = statistics.median(untraced_per_op)
    return 100.0 * (statistics.median(traced_per_op) - base) / base


# ----------------------------------------------------------------------
def serve_cold(run: Run) -> None:
    """Phase A: windows of 16 distinct roots, each awaited (closed, 16
    outstanding). Phase B: segments of Poisson arrivals at a fixed rate well
    below the knee (open), latency from the due time. Sampled answers are
    verified after each window and each segment, which also gives each of
    them its own SciPy yardstick."""
    window, windows = 16, run.ops(8, at_least=2)
    rate_qps, segments, per_segment = 12.0, run.ops(6, at_least=2), 20
    service = _setup(run, universe=512, warm=1, cache_bytes=0)
    broker, universe = service.broker, np.array(service.universe)
    window = min(window, len(universe))
    rng = run.rng("traffic")
    baseline = service.events.emitted
    recorder = run.recorder
    since = len(recorder.spans) if run.traced else 0
    oracle = Oracle(broker.graph)
    check_a = max(1, VERIFY_SAMPLE // 2 // windows)
    check_b = max(1, VERIFY_SAMPLE // 2 // segments)
    blocks: list[Block] = []
    checked = []
    failed = wrong = 0

    # -- phase A ---------------------------------------------------------
    window_s: dict[bool, list[float]] = {False: [], True: []}
    for w in range(windows):
        traced = run.traced and w % 2 == 1
        roots = rng.choice(universe, size=window, replace=False)
        if traced:
            service.arm(recorder)
        answers = []
        t0 = time.perf_counter()
        futures = broker.submit_many(roots)
        for future in futures:
            try:
                answers.append(future.result())
            except Exception:  # a typed serving error is a failed request
                failed += 1
        elapsed = time.perf_counter() - t0
        if traced:
            recorder.restore()
        window_s[traced].append(elapsed)
        block = Block(ops=window, busy_s=elapsed)
        checked += answers[:check_a]
        wrong += sum(not block.verify(oracle, r.root, r.distances) for r in answers[:check_a])
        if not traced:
            blocks.append(block)

    # -- phase B ---------------------------------------------------------
    late_s, engine_ms, overhead_ms = [], [], []
    for k in range(segments):
        traced = run.traced and k % 2 == 1
        roots = rng.choice(universe, size=per_segment)
        due = poisson_due_times(rng, rate_qps, per_segment)
        if traced:
            service.arm(recorder)
        outcome = run_open_loop(
            broker.submit, broker.drain, roots, due, shed_error=ServiceOverload,
            keep=range(check_b),
        )
        if traced:
            recorder.restore()
        failed += outcome.shed + outcome.errors
        late_s += outcome.late_s
        block = Block(op_s=outcome.latencies_s)
        for i, answer in outcome.results.items():
            checked.append(answer)
            wrong += not block.verify(oracle, answer.root, answer.distances)
            if answer.sssp is not None:
                engine_ms.append(answer.sssp.wall_time_s * 1e3)
                overhead_ms.append(outcome.latencies_s[i] * 1e3 - engine_ms[-1])
        if not traced:
            blocks.append(block)

    requests = windows * window + segments * per_segment
    off_events = _check_events(service, baseline, requests)
    run.count_ops(requests, failed + wrong + off_events,
                  f"errors+shed={failed} wrong={wrong} event_mismatch={off_events}")
    put_end_to_end(run, blocks, _gteps(checked))
    late_ms = percentile(late_s, 99) * 1e3
    if late_ms > 10.0:
        run.notes.append(f"generator ran late (p99 {late_ms:.1f} ms); latencies "
                         "run from due times, so the lateness is inside them")
    if run.traced:
        _put_serving_layers(run, service, since)
        run.put("serve.gen_late_ms_p99", late_ms, len(late_s))
        run.put("serve.engine_ms_p50", statistics.median(engine_ms), len(engine_ms))
        run.put("serve.overhead_ms_p50", statistics.median(overhead_ms), len(overhead_ms))
        run.put("bench.trace_overhead_pct",
                _overhead_pct(window_s[False], window_s[True]), len(window_s[True]))
    _shutdown(run, service)


# ----------------------------------------------------------------------
def serve_hot(run: Run) -> None:
    """One synchronous caller, Zipf over a universe solved during set-up:
    every request is a hit, so ``core/`` does no work at all. The warm-up
    answers are verified a few at a time between chunks of hits."""
    universe_size, queries, chunk, checks = 64, run.ops(160_000, at_least=200), 5000, 3
    service = _setup(run, universe=universe_size, warm=universe_size)
    broker, universe = service.broker, service.universe
    ranks = zipf_indices(run.rng("traffic"), len(universe), ZIPF, queries)
    roots = [universe[k] for k in ranks]
    keep = set(run.rng("verify").choice(queries, size=min(queries, VERIFY_SAMPLE),
                                        replace=False).tolist())
    baseline = service.events.emitted
    recorder = run.recorder
    since = len(recorder.spans) if run.traced else 0
    oracle = Oracle(broker.graph)
    warm = list(service.warm.items())

    blocks: list[Block] = []
    chunk_p50: dict[bool, list[float]] = {False: [], True: []}
    kept, not_cached, wrong = {}, 0, 0
    clock = time.perf_counter
    query = broker.query
    for c, start in enumerate(range(0, queries, chunk)):
        traced = run.traced and c % 4 == 1
        if traced:
            service.arm(recorder)
        block = Block()
        for i in range(start, min(start + chunk, queries)):
            t0 = clock()
            result = query(roots[i])
            block.add_op(clock() - t0)
            if result.source != "cache":
                not_cached += 1
            if i in keep:
                kept[i] = result
        if traced:
            recorder.restore()
        chunk_p50[traced].append(statistics.median(block.op_s))
        for j in range(checks):
            root, answer = warm[(c * checks + j) % len(warm)]
            wrong += not block.verify(oracle, root, answer.distances)
        if not traced:
            blocks.append(block)

    wrong += sum(
        not np.array_equal(res.distances, service.warm[res.root].distances)
        for res in kept.values()
    )
    off_events = _check_events(service, baseline, queries)
    run.count_ops(queries, wrong + off_events,
                  f"wrong={wrong} event_mismatch={off_events}")
    if not_cached:
        run.notes.append(f"{not_cached} of {queries} requests were not cache hits")
    put_end_to_end(run, blocks, _gteps(service.warm.values()))
    if run.traced:
        _put_serving_layers(run, service, since)
        run.put("bench.trace_overhead_pct",
                _overhead_pct(chunk_p50[False], chunk_p50[True]), len(chunk_p50[True]))
    _shutdown(run, service)


# ----------------------------------------------------------------------
def serve_churn(run: Run) -> None:
    """Rounds of one update batch (1 % of the edges, hot roots repaired in
    place) followed by synchronous Zipf reads. Batches are generated, and
    a few answers per round verified, between the timed sections.

    A read returns either from the cache in tens of microseconds or after a
    solve in tens of milliseconds, so a percentile of all reads sits on the
    edge between the two and jumps with the hit share. The latency metrics
    are therefore those of the reads that missed; hits, misses and updates
    together make the throughput, and the hit share is a per-layer metric."""
    universe_size, hot, per_round, churn, checks = 64, 16, 32, 0.01, 4
    rounds = run.ops(20, at_least=4)
    service = _setup(run, universe=universe_size, warm=hot)
    broker, universe = service.broker, service.universe
    queries = rounds * per_round
    ranks = zipf_indices(run.rng("traffic"), len(universe), ZIPF, queries)
    verify_rng = run.rng("verify")
    update_rng = run.rng("updates")
    baseline = service.events.emitted
    recorder = run.recorder
    since = len(recorder.spans) if run.traced else 0
    repairs: list = []

    blocks: list[Block] = []
    update_s: list[float] = []
    round_s: dict[bool, list[float]] = {False: [], True: []}
    hits = wrong = repaired = fallbacks = 0
    batch_sizes, fresh = [], []
    clock = time.perf_counter
    for r in range(rounds):
        traced = run.traced and r % 2 == 1
        batch = random_update_batch(broker.graph, update_rng, churn_fraction=churn)
        batch_sizes.append(batch.size)
        keep = set(verify_rng.choice(per_round, size=checks, replace=False).tolist())
        if traced:
            service.arm(recorder)
            recorder.wrap(broker.versioner, "apply", "versioner_apply", "dynamic")
            recorder.wrap(broker.versioner, "context_for", "context_for", "dynamic")
            recorder.wrap(versioner_module, "apply_batch", "apply_batch", "dynamic")
            recorder.wrap(broker_module, "repair_sssp", "repair", "dynamic", capture=repairs)
        block = Block(ops=1 + per_round)
        t0 = clock()
        report = broker.apply_updates(batch, repair_hot_roots=hot)
        block.busy_s = clock() - t0
        update_s.append(block.busy_s)
        repaired += report["repaired"]
        fallbacks += report["repair_fallbacks"]
        kept = []
        for i in range(per_round):
            root = universe[ranks[r * per_round + i]]
            t0 = clock()
            result = broker.query(root)
            dt = clock() - t0
            block.busy_s += dt
            if result.source == "cache":
                hits += 1
            else:
                block.op_s.append(dt)
            if result.sssp is not None:
                fresh.append(result.sssp)
            if i in keep:
                kept.append(result)
        if traced:
            recorder.restore()
        round_s[traced].append(block.busy_s)
        oracle = Oracle(broker.graph)  # this snapshot retires within a few rounds
        wrong += sum(
            res.snapshot_id != report["snapshot_id"]
            or not block.verify(oracle, res.root, res.distances)
            for res in kept
        )
        if not traced:
            blocks.append(block)

    off_events = _check_events(service, baseline, queries)
    run.count_ops(queries + rounds, wrong + off_events,
                  f"wrong={wrong} event_mismatch={off_events}")
    put_end_to_end(run, blocks, [s.gteps for s in fresh])
    if run.traced:
        _put_serving_layers(run, service, since)
        run.put("serve.cache_hit_share", hits / queries, queries)
        run.put("dynamic.update_ms_p50", statistics.median(update_s) * 1e3, len(update_s))
        for name in ("versioner_apply", "apply_batch", "context_for"):
            run.put(f"dynamic.{name}_ms", run.span_ms("dynamic", name, since))
        repair_ms = run.span_ms("dynamic", "repair", since)
        run.put("dynamic.repair_ms_p50", repair_ms, len(repairs))
        fresh_ms = statistics.median(s.wall_time_s for s in fresh) * 1e3
        run.put("dynamic.repair_vs_fresh_ratio", repair_ms / fresh_ms, len(fresh))
        run.put("dynamic.repairs", repaired)
        run.put("dynamic.repair_fallbacks", fallbacks)
        run.put("dynamic.dirty_mean",
                statistics.mean(r.dirty for r in repairs) if repairs else 0.0, len(repairs))
        run.put("dynamic.batch_size", statistics.mean(batch_sizes), len(batch_sizes))
        t0 = clock()
        structural_digest(broker.graph)
        run.put("dynamic.digest_ms", (clock() - t0) * 1e3, 1)
        run.put("serve.engine_ms_p50", fresh_ms, len(fresh))
        run.put("bench.trace_overhead_pct",
                _overhead_pct(round_s[False], round_s[True]), len(round_s[True]))
    _shutdown(run, service)
