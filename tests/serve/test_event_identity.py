"""Event-identity gate: what the serving plane *says* about a run, pinned.

``test_journeys.py`` checks that wide events, registry counters, tracer
spans and ``report()`` agree with each other; this file pins what they
say. Three seeded manual-mode journeys — a chaos journey that walks the
whole resilience ladder, once ending in the bounded-exact rung and once in
refusal, and a live journey that crosses three snapshot swaps — are
reduced to SHA-256 digests of their canonical wide-event stream, their
span stream (timings stripped), their ``report()`` counters and their
registry exposition (series, label sets, ``# HELP``/``# TYPE`` lines), so a
change that is only meant to move code (who counts, who emits, who pins a
snapshot) cannot shift a single decision field without failing here.

The digests below are literals. They were produced by this file on commit
``1535178``, the last one where ``QueryBroker`` did its own snapshot
pinning, attempt running and terminal accounting, and must only ever be
regenerated for a change that intends to alter serving behaviour — say so
in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.dynamic.updates import random_update_batch
from repro.graph.roots import choose_roots
from repro.obs.tracer import TraceConfig
from repro.serve.breaker import BreakerConfig, CircuitBreaker
from repro.serve.broker import QueryBroker
from repro.serve.chaos import ChaosEvent, ChaosPlan
from repro.serve.events import WideEventLog
from repro.serve.request import ServiceOverload
from repro.serve.retry import RetryPolicy
from tests.serve.test_journeys import FakeClock

SEED = 7

#: report() keys whose values are wall-clock measurements
TIMING_KEYS = ("wall_s", "throughput_qps", "mean_s")

#: journey -> {what: (count, SHA-256 prefix)}
EXPECTED = {
    "chaos-bounded": {
        "events": (43, "2bb635511d1f9b590a9c"),
        "spans": (68, "0e7c9c3db5e5f6d75993"),
        "report": (28, "ee19dbd4948c4889cc33"),
        "exposition": (139, "ab597f0f5740a8980471"),
    },
    "chaos-refused": {
        "events": (43, "ae2110957200cacf25c7"),
        "spans": (72, "b31b4a9c748b15a79d58"),
        "report": (28, "05db5ab7fdb75f2c4f16"),
        "exposition": (139, "4300d27859533be60a93"),
    },
    "live": {
        "events": (22, "134d4acd91b7841a295e"),
        "spans": (40, "08f57faaa82dfc076c6e"),
        "report": (24, "1eeea5e3a990d8bfdbcb"),
        "exposition": (87, "10488c84aeb12c937c11"),
    },
}

#: the key set of ``QueryBroker.report()`` after the bounded chaos journey
REPORT_KEYS = [
    "batches", "cache_bytes", "cache_evictions", "cache_hit_rate",
    "cache_quarantined", "completed", "hedges", "mean_batch_size", "mean_s",
    "negative_hits", "offered", "outcome_cache", "outcome_coalesced",
    "outcome_corrupt", "outcome_degraded", "outcome_solve",
    "outcome_timeout", "p50_cache_s", "p50_coalesced_s", "p50_corrupt_s",
    "p50_degraded_s", "p50_s", "p50_solve_s", "p50_timeout_s", "p99_s",
    "queue_depth", "repair_fallbacks", "repairs", "requests", "retried_ok",
    "retries", "shed", "snapshot_id", "snapshots_resident", "solves",
    "throughput_qps", "updates", "wall_s", "wide_events",
]


def _digest(rows) -> tuple[int, str]:
    rows = list(rows)
    text = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    return len(rows), hashlib.sha256(text.encode()).hexdigest()[:20]


def _exposition_rows(registry) -> list[str]:
    """``# HELP``/``# TYPE`` lines verbatim, sample lines without values."""
    rows = []
    for line in registry.prometheus_text().splitlines():
        rows.append(line if line.startswith("#") else line.rsplit(" ", 1)[0])
    return sorted(rows)


def _fingerprint(broker) -> dict:
    """Everything the journey's broker said, reduced to digests."""
    report = broker.report()
    counters = {
        k: v for k, v in report.items()
        if k not in TIMING_KEYS and not k.startswith("p50_")
        and not k.startswith("p99_")
    }
    spans = []
    if broker.tracer is not None:
        spans = [
            {"name": e["name"], "cat": e["cat"], "args": e["args"]}
            for e in broker.tracer.events if e["type"] == "span"
        ]
    return {
        "events": _digest(
            json.loads(line)
            for line in broker.events.canonical_text().splitlines()
        ),
        "spans": _digest(spans),
        "report": _digest(sorted(counters.items())),
        "exposition": _digest(_exposition_rows(broker.registry)),
        "report_keys": sorted(report),
        "seen": {
            (e["outcome"], e["cache_tier"], e["degraded_tier"])
            for e in broker.events.events()
        } | {("negative",) for e in broker.events.events() if e["negative"]},
    }


def chaos_journey(graph, *, degrade_max_vertices: int) -> dict:
    """Retries, breaker, verification and the negative cache in one run.

    A transient error recovered by retry; a root stalled on every attempt
    (terminal timeout, tombstone, ``timeout`` class opens); cached and
    uncached reads while degraded (stale hits; bounded-exact or refused,
    by ``degrade_max_vertices``); a half-open probe that closes the
    breaker; the stalled root again (negative hit); a root corrupted on
    every attempt (``corrupt`` opens); then a seeded stream under rate
    faults, with path targets on every fourth request."""
    rng = np.random.default_rng(SEED)
    pool = [int(r) for r in choose_roots(graph, 9, seed=SEED)]
    transient, stalled, corrupted, probe = (pool.pop() for _ in range(4))
    clock = FakeClock()
    breaker = CircuitBreaker(
        BreakerConfig(failure_threshold=3, recovery_time_s=1.0,
                      degrade_max_vertices=degrade_max_vertices),
        clock=clock,
    )
    broker = QueryBroker(
        graph,
        algorithm="opt", delta=25, num_ranks=2, threads_per_rank=2,
        num_workers=0, max_batch_size=2,
        chaos=ChaosPlan(
            seed=SEED, error_rate=0.15, corrupt_rate=0.10,
            max_faulty_attempts=2,
            events=(ChaosEvent(transient, 0, "error"),)
            + tuple(ChaosEvent(stalled, a, "stall") for a in range(3))
            + tuple(ChaosEvent(corrupted, a, "corrupt") for a in range(3)),
        ),
        retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0),
        breaker=breaker,
        verify="structural",
        negative_ttl_s=3600.0,
        trace=TraceConfig(path=None),
        events=WideEventLog(),
    )

    def step(root: int, **kwargs) -> None:
        broker.submit(root, **kwargs)
        assert broker.drain(timeout=60.0)
        clock.advance(0.05)

    step(pool[0])      # clean solve: a cache entry to go stale
    step(transient)    # fails once, retried-ok
    step(stalled)      # three stalls: terminal timeout, breaker opens
    step(pool[0])      # stale hit at submit
    step(pool[1])      # no entry while open: bounded-exact or refused
    broker.submit(pool[2])
    broker.submit(pool[2])  # coalesced group through the ladder
    assert broker.drain(timeout=60.0)
    clock.advance(2.0)  # past recovery: the next solve is the probe
    step(probe)
    step(stalled)      # tombstone: fails fast, no attempt
    step(corrupted)    # three failed verifications: corrupt opens
    clock.advance(2.0)
    step(probe)        # the second probe: closes corrupt, a plain hit
    for root in (pool[3], pool[3], pool[4], pool[3]):
        # one batch coalesces the first two; the next batch finds the
        # last one's answer already cached at dispatch
        broker.submit(root)
    assert broker.drain(timeout=60.0)
    for i in range(28):
        root = int(pool[rng.integers(0, len(pool))])
        step(root, targets=(pool[0],) if i % 4 == 0 else ())
    out = _fingerprint(broker)
    out["transitions"] = [(c, a, b) for _, c, a, b in breaker.transitions]
    broker.shutdown()
    return out


def live_journey(graph) -> dict:
    """Three update batches with hot-root repair under retention 1,
    requests straddling the swaps (deferred retirement), one shed."""
    rng = np.random.default_rng(SEED)
    pool = [int(r) for r in choose_roots(graph, 10, seed=SEED)]
    pool, fillers = pool[:6], pool[6:]
    broker = QueryBroker(
        graph,
        algorithm="opt", delta=25, num_ranks=2, threads_per_rank=2,
        num_workers=0, capacity=3,
        snapshot_retention=1,
        chaos=ChaosPlan(seed=SEED, error_rate=0.15, corrupt_rate=0.10,
                        max_faulty_attempts=2),
        retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0),
        verify="structural",
        trace=TraceConfig(path=None),
        events=WideEventLog(),
    )
    steps, updates = 18, {4: 0, 9: 1, 13: 2}
    shed = 0
    for i in range(steps):
        if i in updates:
            batch = random_update_batch(
                broker.versioner.current.graph,
                np.random.default_rng((SEED, updates[i])),
                churn_fraction=0.02,
            )
            broker.apply_updates(batch, repair_hot_roots=2)
        broker.submit(int(pool[rng.integers(0, len(pool))]))
        if i == 11:
            # fill the queue with never-cached roots until admission
            # sheds one
            with pytest.raises(ServiceOverload):
                for root in fillers:
                    broker.submit(root)
            shed += 1
        if i % 3 == 0:
            assert broker.drain(timeout=60.0)
    assert broker.drain(timeout=60.0)
    out = _fingerprint(broker)
    out["shed"] = shed
    out["snapshots"] = {e["snapshot_id"] for e in broker.events.events()}
    out["resident"] = broker.versioner.ids()
    broker.shutdown()
    return out


JOURNEYS = {
    "chaos-bounded": lambda g: chaos_journey(g, degrade_max_vertices=1 << 17),
    "chaos-refused": lambda g: chaos_journey(g, degrade_max_vertices=0),
    "live": live_journey,
}


@pytest.fixture(scope="module")
def fingerprints(rmat1_small):
    return {name: run(rmat1_small) for name, run in JOURNEYS.items()}


@pytest.mark.parametrize("journey", sorted(EXPECTED))
@pytest.mark.parametrize("what", ["events", "spans", "report", "exposition"])
def test_digest_matches_the_pinned_literal(fingerprints, journey, what):
    assert fingerprints[journey][what] == EXPECTED[journey][what]


def test_report_key_set(fingerprints):
    assert fingerprints["chaos-bounded"]["report_keys"] == REPORT_KEYS


def test_journeys_cross_what_they_claim(fingerprints):
    """The digests are not of an idle run: the ladder was walked, the
    swaps were straddled, exactly one request was shed."""
    bounded, refused = fingerprints["chaos-bounded"], fingerprints["chaos-refused"]
    assert ("timeout", "closed", "open") in bounded["transitions"]
    assert ("timeout", "half_open", "closed") in bounded["transitions"]
    assert ("corrupt", "closed", "open") in bounded["transitions"]
    assert {
        ("cache", "stale_hit", "stale_cache"), ("coalesced", "miss", None),
        ("degraded", "miss", "bounded_exact"), ("negative",),
        ("corrupt", "miss", None), ("timeout", "miss", None),
    } <= bounded["seen"]
    assert ("unavailable", "miss", "refused") in refused["seen"]
    live = fingerprints["live"]
    assert live["shed"] == 1 and ("shed", "miss", None) in live["seen"]
    assert live["snapshots"] == {0, 1, 2, 3}
    assert live["resident"] == [3]


if __name__ == "__main__":  # regenerate: PYTHONPATH=src python -m tests.serve.test_event_identity
    from repro.graph.rmat import RMAT1, rmat_graph

    for name, run in JOURNEYS.items():
        fp = run(rmat_graph(scale=9, seed=42, params=RMAT1))
        print(name, {k: fp[k] for k in EXPECTED[name]}, fp["report_keys"])
