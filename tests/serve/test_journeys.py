"""Journey invariant harness: randomized chaos journeys, replayed.

The tentpole test of the resilience work (ISSUE 6 / DESIGN §12). Each
journey drives a fully-armed broker — chaos injection, retries, a
circuit breaker on an injected clock, structural verification, tracing —
through a seeded random request stream, then checks *cross-system*
invariants rather than per-component behaviour:

1. every admitted request reaches exactly one typed terminal outcome
   (a result or a typed error; no future is ever leaked or dropped);
2. every ``ok`` response is bit-identical to an un-chaos'd offline
   solve with the same coordinates — through retries, hedges, cache
   hits, and the degraded Bellman-Ford fallback alike;
3. replaying the same seed reproduces the same outcome counts, the
   same chaos fault log, and the same breaker transition sequence;
4. the SLO accounting agrees with the tracer's span stream.

The harness runs on three fixed seeds (CI's ``chaos-smoke`` job) plus a
hypothesis sweep over random plans for invariant 2.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.solver import solve_sssp
from repro.graph.builder import from_undirected_edges
from repro.graph.roots import choose_roots
from repro.obs.tracer import TraceConfig
from repro.serve.breaker import BreakerConfig, CircuitBreaker
from repro.serve.broker import QueryBroker
from repro.serve.chaos import ChaosEvent, ChaosPlan, InjectedFault
from repro.serve.events import WideEventLog
from repro.serve.request import (
    ServiceUnavailable,
    SolveCorrupted,
)
from repro.serve.retry import RetryPolicy
from repro.runtime.watchdog import SolveTimeout

SEEDS = [3, 11, 42]
JOURNEY_STEPS = 24
TYPED_ERRORS = (InjectedFault, SolveTimeout, SolveCorrupted, ServiceUnavailable)
#: the sources a served request completes under; every other outcome failed
OK_SOURCES = ("cache", "solve", "repair", "coalesced", "degraded")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def run_journey(graph, seed: int) -> dict:
    """Drive one seeded journey; return everything the invariants need.

    Shape: a deterministic warm-up (one transient fault that recovers
    via retry, then a poisoned root that exhausts its budget and trips
    the breaker), a seeded random request stream over a small root pool
    (cache hits, degraded fallbacks, stale reads, more rate faults),
    and a final cold probe after the breaker's recovery window — so
    every seed crosses the whole resilience ladder.
    """
    rng = np.random.default_rng(seed)
    pool = [int(r) for r in choose_roots(graph, 8, seed=seed)]
    probe_root = pool.pop()
    poisoned, transient = pool[0], pool[1]
    clock = FakeClock()
    breaker = CircuitBreaker(
        BreakerConfig(failure_threshold=3, recovery_time_s=1.0),
        clock=clock,
    )
    broker = QueryBroker(
        graph,
        algorithm="opt", delta=25, num_ranks=2, threads_per_rank=2,
        num_workers=0,
        chaos=ChaosPlan(seed=seed, error_rate=0.15, stall_rate=0.05,
                        corrupt_rate=0.10, max_faulty_attempts=2,
                        events=(ChaosEvent(transient, 0, "error"),)
                        + tuple(ChaosEvent(poisoned, a, "error")
                                for a in range(3))),
        retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0),
        breaker=breaker,
        verify="structural",
        trace=TraceConfig(path=None),
        events=WideEventLog(),
    )
    journeys = []

    def step(root: int) -> None:
        future = broker.submit(root)
        # execute this request (and any retries it spawns) to completion
        # so the interleaving is sequential and the replay deterministic
        assert broker.drain(timeout=60.0)
        journeys.append((root, future))
        clock.advance(0.05)  # march the breaker clock between requests

    step(transient)  # fails once, retried-ok
    step(poisoned)   # exhausts its budget: terminal, trips the breaker
    for _ in range(JOURNEY_STEPS):
        step(int(pool[rng.integers(0, len(pool))]))
    clock.advance(2.0)  # past the recovery window: next acquire probes
    step(probe_root)
    report = broker.report()
    record = {
        "journeys": journeys,
        "report": report,
        "outcomes": {k: v for k, v in report.items()
                     if k.startswith("outcome_")},
        "chaos_log": list(broker.chaos.log),
        "transitions": [(cls, a, b)
                        for _, cls, a, b in breaker.transitions],
        "trace_events": list(broker.tracer.events),
        "events": broker.events.events(),
        "canonical": broker.events.canonical_text(),
        "latency_count": broker.latency.count,
        "registry": broker.registry.snapshot(),
        "exemplars": {
            source: broker.registry.exemplars(
                "serve_request_latency_seconds", source=source
            )
            for source in OK_SOURCES
        },
    }
    broker.shutdown()
    return record


@pytest.fixture(scope="module")
def offline(rmat1_small):
    """Memoised un-chaos'd reference solves."""
    cache: dict[int, np.ndarray] = {}

    def solve(root: int) -> np.ndarray:
        if root not in cache:
            cache[root] = solve_sssp(
                rmat1_small, root, algorithm="opt", delta=25,
                num_ranks=2, threads_per_rank=2,
            ).distances
        return cache[root]

    return solve


@pytest.mark.parametrize("seed", SEEDS)
class TestJourneyInvariants:
    def test_every_request_reaches_one_typed_outcome(self, rmat1_small, seed):
        record = run_journey(rmat1_small, seed)
        for root, future in record["journeys"]:
            assert future.done()
            exc = future.exception()
            if exc is not None:
                assert isinstance(exc, TYPED_ERRORS), exc
        report = record["report"]
        assert report["offered"] == len(record["journeys"])
        assert report["shed"] == 0
        assert sum(record["outcomes"].values()) == report["offered"]

    def test_ok_responses_are_bit_identical(self, rmat1_small, seed, offline):
        record = run_journey(rmat1_small, seed)
        checked = 0
        for root, future in record["journeys"]:
            if future.exception() is not None:
                continue
            res = future.result()
            ref = offline(root)
            assert np.array_equal(res.distances, ref), (
                f"root {root} via {res.source!r} diverged from offline solve"
            )
            assert res.distances.dtype == ref.dtype
            checked += 1
        assert checked > 0  # the journey can't be all failures

    def test_replay_is_deterministic(self, rmat1_small, seed):
        first = run_journey(rmat1_small, seed)
        second = run_journey(rmat1_small, seed)
        assert first["outcomes"] == second["outcomes"]
        assert first["chaos_log"] == second["chaos_log"]
        assert first["transitions"] == second["transitions"]
        firsts = [(r, f.exception() is None) for r, f in first["journeys"]]
        seconds = [(r, f.exception() is None) for r, f in second["journeys"]]
        assert firsts == seconds

    def test_slo_accounting_agrees_with_trace_spans(self, rmat1_small, seed):
        record = run_journey(rmat1_small, seed)
        spans = [e for e in record["trace_events"]
                 if e["type"] == "span" and e["name"] == "request"]
        assert len(spans) == sum(record["outcomes"].values())
        by_outcome: dict[str, int] = {}
        for span in spans:
            key = f"outcome_{span['args']['outcome']}"
            by_outcome[key] = by_outcome.get(key, 0) + 1
        assert by_outcome == record["outcomes"]
        retry_spans = [e for e in record["trace_events"]
                       if e["type"] == "span" and e["name"] == "retry"]
        assert len(retry_spans) == record["report"]["retries"]


@pytest.mark.parametrize("seed", SEEDS)
class TestWideEventReconciliation:
    """ISSUE 9 tentpole: every request's wide event reconciles with the
    tracer spans, the registry counters, and the SLO window."""

    def test_exactly_one_event_per_request(self, rmat1_small, seed):
        record = run_journey(rmat1_small, seed)
        events = record["events"]
        journeys = record["journeys"]
        assert len(events) == record["report"]["offered"] == len(journeys)
        ids = [e["request_id"] for e in events]
        assert len(set(ids)) == len(ids)
        # ids are minted in admission order: req-000000 .. req-NNNNNN
        assert sorted(ids) == [f"req-{i:06d}" for i in range(len(ids))]
        # submission is sequential here, so the i-th admitted request is
        # the i-th journey step; events carry the matching root
        by_id = {e["request_id"]: e for e in events}
        for i, (root, future) in enumerate(journeys):
            ev = by_id[f"req-{i:06d}"]
            assert ev["root"] == root
            assert ev["admission"] == "admitted"
            ok = future.exception() is None
            assert (ev["outcome"] in OK_SOURCES) == ok
            if ok:
                res = future.result()
                assert res.request_id == ev["request_id"]
                assert ev["outcome"] == res.source
                assert ev["source"] == res.source
                assert ev["attempts_total"] == res.attempts
                assert ev["stale_ok"] == res.stale_ok
                assert ev["degraded"] == res.degraded

    def test_events_reconcile_with_counters_and_spans(self, rmat1_small, seed):
        record = run_journey(rmat1_small, seed)
        events = record["events"]
        # outcome counts from events == report outcome_* == registry
        by_outcome: dict[str, int] = {}
        for ev in events:
            key = f"outcome_{ev['outcome']}"
            by_outcome[key] = by_outcome.get(key, 0) + 1
        assert by_outcome == record["outcomes"]
        for key, count in by_outcome.items():
            outcome = key[len("outcome_"):]
            counter = f'serve_requests_total{{outcome="{outcome}"}}'
            assert record["registry"][counter] == count
        # every request span's request_id and outcome match its event
        by_id = {e["request_id"]: e for e in events}
        spans = [e for e in record["trace_events"]
                 if e["type"] == "span" and e["name"] == "request"]
        assert len(spans) == len(events)
        for span in spans:
            ev = by_id[span["args"]["request_id"]]
            assert span["args"]["outcome"] == ev["outcome"]
            assert span["args"]["root"] == ev["root"]
        # batch and solve spans only name admitted request ids
        for span in record["trace_events"]:
            if span.get("type") == "span" and "request_ids" in span.get(
                "args", {}
            ):
                for rid in span["args"]["request_ids"]:
                    assert rid in by_id

    def test_events_reconcile_with_slo_window_and_exemplars(
        self, rmat1_small, seed
    ):
        record = run_journey(rmat1_small, seed)
        events = record["events"]
        # one latency sample per terminal completion (no sheds here)
        assert record["latency_count"] == len(events)
        # every exemplar points at a request that was actually served
        # from that source
        ids_by_source: dict[str, set] = {}
        for ev in events:
            ids_by_source.setdefault(ev["outcome"], set()).add(
                ev["request_id"]
            )
        seen = 0
        for source, slots in record["exemplars"].items():
            for slot in slots.values():
                assert slot["ref"] in ids_by_source.get(source, set())
                seen += 1
        assert seen > 0  # the run must have produced exemplars at all

    def test_event_internals_are_coherent(self, rmat1_small, seed):
        record = run_journey(rmat1_small, seed)
        for ev in record["events"]:
            # solved requests went through >= 1 batch and queue wait
            if ev["outcome"] == "solve":
                assert ev["batches"]
                assert ev["timing"]["queue_waits_s"]
                assert ev["attempts"]
                assert ev["attempts"][-1]["outcome"] == "ok"
            if ev["outcome"] == "cache":
                # submit-time hits carry attempts_total 0; dispatch-time
                # hits 1 (they consumed a dispatch) — never more, and no
                # solve attempt is ever recorded for either
                assert ev["attempts_total"] in (0, 1)
                assert ev["attempts"] == []
            if ev["degraded"]:
                assert ev["degraded_tier"] is not None

    def test_canonical_stream_is_replay_identical(self, rmat1_small, seed):
        first = run_journey(rmat1_small, seed)
        second = run_journey(rmat1_small, seed)
        assert first["canonical"]
        assert first["canonical"] == second["canonical"]


class TestJourneyChaosActuallyBites:
    def test_faults_are_injected_and_survived(self, rmat1_small):
        # Sanity for the whole harness: across the fixed seeds, chaos
        # really fires, retries really recover, and some requests still
        # end in typed errors — the invariants above are not vacuous.
        for seed in SEEDS:
            record = run_journey(rmat1_small, seed)
            assert len(record["chaos_log"]) > 0
            assert record["report"]["retried_ok"] > 0
            assert any(f.exception() is not None
                       for _, f in record["journeys"])
            # the breaker both opened and began recovering
            transitions = record["transitions"]
            assert ("error", "closed", "open") in transitions
            assert ("error", "open", "half_open") in transitions


def run_live_journey(graph, seed: int, *, steps: int = 18,
                     updates: int = 3) -> dict:
    """A journey with live-graph churn interleaved (DESIGN §15).

    Same resilience ladder as :func:`run_journey` minus the breaker
    theatrics, plus ``apply_updates`` fired at fixed step indices so
    requests straddle snapshot swaps — including requests admitted
    *before* a swap and executed after it.
    """
    from repro.dynamic.updates import random_update_batch

    rng = np.random.default_rng(seed)
    pool = [int(r) for r in choose_roots(graph, 6, seed=seed)]
    broker = QueryBroker(
        graph,
        algorithm="opt", delta=25, num_ranks=2, threads_per_rank=2,
        num_workers=0,
        snapshot_retention=updates + 1,
        chaos=ChaosPlan(seed=seed, error_rate=0.15, corrupt_rate=0.10,
                        max_faulty_attempts=2),
        retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0),
        verify="structural",
        events=WideEventLog(),
    )
    update_at = {((r + 1) * steps) // (updates + 1): r
                 for r in range(updates)}
    journeys = []
    for i in range(steps):
        if i in update_at:
            batch = random_update_batch(
                broker.versioner.current.graph,
                np.random.default_rng((seed, update_at[i])),
                churn_fraction=0.02,
            )
            broker.apply_updates(batch, repair_hot_roots=2)
        root = int(pool[rng.integers(0, len(pool))])
        future = broker.submit(root)
        if i % 3 == 0:
            # Let some requests straddle the *next* swap: only drain on
            # every third step, so queued work crosses snapshot epochs.
            assert broker.drain(timeout=60.0)
        journeys.append((root, future))
    assert broker.drain(timeout=60.0)
    record = {
        "journeys": journeys,
        "report": broker.report(),
        "chaos_log": list(broker.chaos.log),
        "events": broker.events.events(),
        "canonical": broker.events.canonical_text(),
        "graphs": {sid: broker.versioner.get(sid).graph
                   for sid in broker.versioner.ids()},
    }
    broker.shutdown()
    return record


@pytest.mark.parametrize("seed", SEEDS)
class TestLiveJourneyInvariants:
    """ISSUE 10 acceptance: the invariant harness under interleaved
    updates — no request ever observes mixed-snapshot distances."""

    def test_ok_answers_match_their_events_snapshot(self, rmat1_small, seed):
        record = run_live_journey(rmat1_small, seed)
        by_id = {e["request_id"]: e for e in record["events"]}
        ref: dict[tuple, np.ndarray] = {}
        checked = 0
        for root, future in record["journeys"]:
            if future.exception() is not None:
                continue
            res = future.result()
            sid = by_id[res.request_id]["snapshot_id"]
            assert sid == res.snapshot_id
            key = (sid, root)
            if key not in ref:
                ref[key] = solve_sssp(
                    record["graphs"][sid], root, algorithm="opt", delta=25,
                    num_ranks=2, threads_per_rank=2,
                ).distances
            # Bit-identical to an offline solve of the event's snapshot:
            # a mixed-snapshot answer could not satisfy this exactly.
            assert np.array_equal(res.distances, ref[key]), (
                f"root {root} on snapshot {sid} via {res.source!r} diverged"
            )
            checked += 1
        assert checked > 0
        # The journey genuinely crossed snapshots with live answers.
        assert len({sid for sid, _ in ref}) > 1
        # Some of them came from the lineage tier (a cached ancestor
        # repaired forward), and were held to the same offline solve.
        assert any(
            f.exception() is None and f.result().source == "repair"
            for _, f in record["journeys"]
        )
        assert any(e["cache_tier"] == "lineage" for e in record["events"])

    def test_requests_straddle_swaps(self, rmat1_small, seed):
        record = run_live_journey(rmat1_small, seed)
        report = record["report"]
        assert report["updates"] == 3
        assert report["snapshot_id"] == 3
        # Some request was admitted on an older snapshot than the final
        # one and still completed there (pinning, not draining).
        events = record["events"]
        assert {e["snapshot_id"] for e in events} == {0, 1, 2, 3}

    def test_live_replay_is_deterministic(self, rmat1_small, seed):
        first = run_live_journey(rmat1_small, seed)
        second = run_live_journey(rmat1_small, seed)
        assert first["canonical"]
        assert first["canonical"] == second["canonical"]
        assert first["chaos_log"] == second["chaos_log"]
        firsts = [(r, f.exception() is None) for r, f in first["journeys"]]
        seconds = [(r, f.exception() is None) for r, f in second["journeys"]]
        assert firsts == seconds
        for sid, graph in first["graphs"].items():
            np.testing.assert_array_equal(
                graph.weights, second["graphs"][sid].weights
            )


def tiny_graph() -> object:
    rng = np.random.default_rng(1234)
    n, m = 24, 60
    tails = rng.integers(0, n, m)
    heads = rng.integers(0, n, m)
    weights = rng.integers(1, 30, m).astype(np.int64)
    return from_undirected_edges(tails, heads, weights, n)


_TINY = tiny_graph()
_TINY_REF: dict[int, np.ndarray] = {}


def tiny_reference(root: int) -> np.ndarray:
    if root not in _TINY_REF:
        _TINY_REF[root] = solve_sssp(
            _TINY, root, algorithm="opt", delta=25,
            num_ranks=2, threads_per_rank=2,
        ).distances
    return _TINY_REF[root]


class TestChaosBitIdentityProperty:
    """Satellite (d): under *any* seeded plan, ok answers stay exact."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        error=st.floats(min_value=0.0, max_value=0.4),
        corrupt=st.floats(min_value=0.0, max_value=0.4),
        stall=st.floats(min_value=0.0, max_value=0.2),
        clean_after=st.integers(min_value=1, max_value=2),
    )
    def test_ok_responses_match_fresh_solves(
        self, seed, error, corrupt, stall, clean_after
    ):
        broker = QueryBroker(
            _TINY,
            algorithm="opt", delta=25, num_ranks=2, threads_per_rank=2,
            num_workers=0,
            chaos=ChaosPlan(seed=seed, error_rate=error, stall_rate=stall,
                            corrupt_rate=corrupt,
                            max_faulty_attempts=clean_after),
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0),
            verify="structural",
        )
        rng = np.random.default_rng(seed)
        futures = [broker.submit(int(rng.integers(0, _TINY.num_vertices)))
                   for _ in range(6)]
        assert broker.drain(timeout=60.0)
        for future in futures:
            if future.exception() is not None:
                assert isinstance(future.exception(), TYPED_ERRORS)
                continue
            res = future.result()
            assert np.array_equal(res.distances, tiny_reference(res.root))
        broker.shutdown()
