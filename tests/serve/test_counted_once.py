"""A count is kept once.

A serving component — the distance cache, the circuit breaker, the chaos
layer — counts only in its own state (``stats``; ``transitions`` and the
per-class states; ``log``) and reaches the registry through one
collector, run when something reads the registry. So a write path makes
no registry call at all, and one read publishes exactly what the
component's own state says. The broker's report reads its tallies off
the registry's counters, so the two cannot disagree either.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.graph.grid import grid_graph
from repro.obs.registry import MetricsRegistry
from repro.serve.breaker import BreakerConfig, CircuitBreaker
from repro.serve.broker import QueryBroker
from repro.serve.cache import DistanceCache
from repro.serve.chaos import ChaosEvent, ChaosPlan, ChaosSolver
from repro.serve.request import ServiceOverload
from repro.serve.retry import RetryPolicy

STATE_CODE = {"closed": 0, "open": 1, "half_open": 2}


class SpyRegistry(MetricsRegistry):
    """A registry that counts the writes made into it."""

    def __init__(self) -> None:
        super().__init__()
        self.writes: Counter = Counter()

    def inc(self, name, value=1.0, **kwargs):
        self.writes["inc"] += 1
        super().inc(name, value, **kwargs)

    def set_gauge(self, name, value, **kwargs):
        self.writes["set_gauge"] += 1
        super().set_gauge(name, value, **kwargs)

    def observe_many(self, name, values, **kwargs):
        self.writes["observe_many"] += 1
        super().observe_many(name, values, **kwargs)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class Solved:
    def __init__(self, root: int) -> None:
        self.distances = np.arange(4) + root


class FakeSolver:
    def solve(self, root, *, deadline=None):
        return Solved(root)


def _arr(n: int, fill: int = 1) -> np.ndarray:
    return np.full(n, fill, dtype=np.int64)


def _series(snapshot: dict, name: str) -> dict[str, float]:
    return {k: v for k, v in snapshot.items() if k.split("{")[0] == name}


def _exercised_cache(registry) -> DistanceCache:
    """Put, hit, miss, evict, reject, quarantine and negative hits."""
    cache = DistanceCache(
        _arr(8).nbytes * 2, registry=registry, checksum=True,
        negative_ttl_s=60.0, clock=FakeClock(),
    )
    cache.put(0, _arr(8))
    cache.put(1, _arr(8))
    cache.get(0)
    cache.get(7)
    cache.put(2, _arr(8))           # evicts one
    assert not cache.put(3, _arr(64))  # larger than the budget
    entry = cache._entries[2]
    entry.distances.setflags(write=True)
    entry.distances[0] += 1
    entry.distances.setflags(write=False)
    cache.verify_get = True
    assert cache.get(2) is None     # quarantined
    cache.note_timeout(5)
    assert cache.negative(5, count=3)
    cache.put((4, 1), _arr(4))
    cache.evict_snapshot(4)
    return cache


def _exercised_breaker(registry, clock) -> CircuitBreaker:
    breaker = CircuitBreaker(
        BreakerConfig(failure_threshold=1, recovery_time_s=1.0),
        clock=clock, registry=registry,
    )
    breaker.on_result("primary", "timeout")  # timeout opens
    clock.now = 2.0
    assert breaker.acquire() == "probe"      # half-open
    breaker.on_result("probe", "corrupt")    # re-opens
    breaker.on_result("primary", "error")    # error opens too
    return breaker


def _exercised_chaos(registry) -> ChaosSolver:
    chaos = ChaosSolver(
        ChaosPlan(events=(ChaosEvent(1, 0, "error"), ChaosEvent(2, 0, "stall"),
                          ChaosEvent(3, 0, "corrupt"), ChaosEvent(4, 0, "slow"),
                          ChaosEvent(5, 0, "corrupt")), slow_s=0.0),
        registry=registry,
    )
    for root in range(6):
        try:
            chaos.solve(root, deadline=None, attempt=0, solver=FakeSolver())
        except Exception:  # noqa: BLE001 — the injected error and stall
            pass
    return chaos


class TestWritePathsNeverTouchTheRegistry:
    def test_cache(self):
        registry = SpyRegistry()
        cache = _exercised_cache(registry)
        stats = cache.stats
        assert (stats.evictions, stats.rejected, stats.quarantined,
                stats.negative_hits) == (2, 1, 1, 3)
        assert registry.writes == Counter()

    def test_breaker_transitions(self):
        registry = SpyRegistry()
        breaker = _exercised_breaker(registry, FakeClock())
        assert len(breaker.transitions) == 4
        assert registry.writes == Counter()

    def test_chaos_injections(self):
        registry = SpyRegistry()
        chaos = _exercised_chaos(registry)
        assert len(chaos.log) == 5
        assert registry.writes == Counter()


class TestOneReadPublishesTheComponentsState:
    def test_cache_stats(self):
        registry = SpyRegistry()
        cache = _exercised_cache(registry)
        snap = registry.snapshot()
        assert registry.writes["inc"] and registry.writes["set_gauge"]
        for name in ("hits", "misses", "evictions", "rejected",
                     "quarantined", "negative_hits"):
            assert snap[f"serve_cache_{name}_total"] == getattr(cache.stats, name)
        assert snap["serve_cache_bytes"] == cache.stats.bytes_in_use
        assert snap["serve_cache_entries"] == len(cache)
        cache.get(0)
        cache.clear()
        snap = registry.snapshot()
        assert snap["serve_cache_misses_total"] == cache.stats.misses
        assert (snap["serve_cache_bytes"], snap["serve_cache_entries"]) == (0, 0)

    def test_size_gauges_appear_with_the_first_put(self):
        registry = SpyRegistry()
        cache = DistanceCache(1 << 10, registry=registry)
        cache.get(0)
        assert "serve_cache_bytes" not in registry.snapshot()
        cache.put(0, _arr(4))
        assert registry.snapshot()["serve_cache_entries"] == 1

    def test_breaker_transitions_and_states(self):
        registry = SpyRegistry()
        breaker = _exercised_breaker(registry, FakeClock())
        snap = registry.snapshot()
        moves = Counter((cls, to) for _, cls, _, to in breaker.transitions)
        assert _series(snap, "serve_breaker_transitions_total") == {
            f'serve_breaker_transitions_total{{class="{c}",to="{t}"}}': n
            for (c, t), n in moves.items()
        }
        assert _series(snap, "serve_breaker_state") == {
            f'serve_breaker_state{{class="{c}"}}': STATE_CODE[s]
            for c, s in breaker.states().items()
        }

    def test_injected_breaker_without_a_registry_publishes_nothing(self):
        clock = FakeClock()
        breaker = _exercised_breaker(None, clock)
        broker = QueryBroker(grid_graph(3, 3), num_ranks=2, threads_per_rank=2,
                             num_workers=0, breaker=breaker)
        text = broker.registry.prometheus_text()
        assert "serve_breaker" not in text
        broker.shutdown()

    def test_chaos_summary(self):
        registry = SpyRegistry()
        chaos = _exercised_chaos(registry)
        snap = registry.snapshot()
        assert _series(snap, "serve_chaos_injected_total") == {
            f'serve_chaos_injected_total{{kind="{k}"}}': n
            for k, n in chaos.summary().items()
        }
        assert registry.snapshot() == snap  # a second read adds nothing


def test_report_reads_the_registry_counters():
    """Retries, hedges, solves, batches, shed and every outcome: the
    report's numbers are the registry's counters."""
    graph = grid_graph(6, 6)
    broker = QueryBroker(
        graph, num_ranks=2, threads_per_rank=2, num_workers=0, capacity=2,
        chaos=ChaosPlan(seed=3, error_rate=0.3, slow_rate=0.2, slow_s=0.02,
                        max_faulty_attempts=2),
        retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0,
                          hedge_after_s=0.005, hedge_budget=2),
    )
    shed = 0
    for i in range(24):
        try:
            broker.submit(i % 9)
        except ServiceOverload:
            shed += 1
        if i % 4 == 3:
            broker.drain(timeout=60.0)
    broker.drain(timeout=60.0)
    report = broker.report()
    snap = broker.registry.snapshot()
    for key in ("retries", "hedges", "solves", "batches", "shed"):
        assert report[key] == snap.get(f"serve_{key}_total", 0), key
    outcomes = _series(snap, "serve_requests_total")
    assert {k: v for k, v in report.items() if k.startswith("outcome_")} == {
        "outcome_" + k.split('"')[1]: v for k, v in outcomes.items()
    }
    assert report["mean_batch_size"] == pytest.approx(
        snap["serve_batch_size"]["sum"] / snap["serve_batches_total"])
    assert shed and report["shed"] == shed
    assert report["retries"] and report["hedges"] and report["completed"]
    broker.shutdown()
