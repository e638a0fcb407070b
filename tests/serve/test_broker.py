"""QueryBroker semantics: admission, coalescing, deadlines, drain/shutdown.

Most tests run the broker in manual mode (``num_workers=0`` with
``process_once``) so batch composition is deterministic; a couple of
threaded smoke tests cover the worker-pool path.
"""

import numpy as np
import pytest

from repro.core.solver import solve_sssp
from repro.graph.grid import grid_graph
from repro.graph.roots import choose_root, choose_roots
from repro.runtime.watchdog import DeadlineConfig, SolveTimeout
from repro.serve.breaker import BreakerConfig, CircuitBreaker
from repro.serve.broker import QueryBroker
from repro.serve.chaos import ChaosEvent, ChaosPlan, InjectedFault
from repro.serve.request import (
    ServiceOverload,
    ServiceShutdown,
    ServiceUnavailable,
    SolveCorrupted,
)
from repro.serve.retry import RetryPolicy


def manual_broker(graph, **kwargs):
    kwargs.setdefault("num_workers", 0)
    kwargs.setdefault("num_ranks", 2)
    kwargs.setdefault("threads_per_rank", 2)
    return QueryBroker(graph, **kwargs)


class TestQueryPath:
    def test_cold_then_warm(self, rmat1_small):
        broker = manual_broker(rmat1_small)
        root = int(choose_root(rmat1_small, seed=0))
        cold = broker.query(root)
        warm = broker.query(root)
        assert cold.source == "solve"
        assert warm.source == "cache" and warm.cached
        # a hit hands back the cached array itself: bit-identical for free
        assert warm.distances is cold.distances
        broker.shutdown()

    def test_distances_match_offline_solve(self, rmat1_small):
        broker = manual_broker(rmat1_small)
        root = int(choose_root(rmat1_small, seed=1))
        served = broker.query(root)
        offline = solve_sssp(rmat1_small, root, algorithm="opt", delta=25,
                             num_ranks=2, threads_per_rank=2)
        assert np.array_equal(served.distances, offline.distances)
        assert served.distances.dtype == offline.distances.dtype
        broker.shutdown()

    def test_paths_to_targets(self, path_graph):
        broker = manual_broker(path_graph)
        res = broker.query(0, targets=(4, 2))
        assert res.paths[4] == [0, 1, 2, 3, 4]
        assert res.paths[2] == [0, 1, 2]
        assert res.distance_to(4) == 16
        broker.shutdown()

    def test_unreachable_target_is_none(self, disconnected_graph):
        broker = manual_broker(disconnected_graph)
        res = broker.query(0, targets=(1, 3))
        assert res.paths[1] == [0, 1]
        assert res.paths[3] is None
        broker.shutdown()

    def test_invalid_root_and_target(self, path_graph):
        broker = manual_broker(path_graph)
        with pytest.raises(ValueError, match="root"):
            broker.submit(99)
        with pytest.raises(ValueError, match="target"):
            broker.submit(0, targets=(99,))
        broker.shutdown()

    def test_non_integer_root_is_refused(self, path_graph):
        """``int(root)`` answered 1.7 and "3" for roots 1 and 3."""
        broker = manual_broker(path_graph)
        for bad in (1.7, "3", 2.0):
            with pytest.raises(ValueError, match="integer vertex id"):
                broker.query(bad)
            with pytest.raises(ValueError, match="integer vertex id"):
                broker.submit_many([0, bad])
        assert broker.query(np.int64(1)).root == 1
        broker.shutdown()

    def test_non_integer_target_is_refused(self):
        """``int(t)`` answered ``targets=[1.7]`` with the path to vertex 1."""
        broker = manual_broker(grid_graph(4, 4))
        for bad in (1.7, "3", 2.0, np.float64(1.0)):
            with pytest.raises(ValueError, match="integer vertex id"):
                broker.query(0, targets=[bad])
            with pytest.raises(ValueError, match="integer vertex id"):
                broker.submit(0, targets=[1, bad])
        assert broker.report()["offered"] == 0  # refused before admission
        assert list(broker.query(0, targets=[np.int32(1)]).paths) == [1]
        broker.shutdown()

    def test_query_many_input_order(self, rmat1_small):
        broker = manual_broker(rmat1_small, max_batch_size=8)
        roots = [int(r) for r in choose_roots(rmat1_small, 4, seed=2)]
        results = broker.query_many(roots)
        assert [r.root for r in results] == roots
        broker.shutdown()


class TestCoalescing:
    def test_duplicate_roots_share_one_solve(self, rmat1_small):
        broker = manual_broker(rmat1_small, max_batch_size=8)
        root = int(choose_root(rmat1_small, seed=3))
        other = int(choose_root(rmat1_small, seed=4))
        assert root != other
        futures = broker.submit_many([root, root, root, other])
        served = broker.process_once(block=True)
        assert served == 4
        results = [f.result() for f in futures]
        assert [r.source for r in results] == [
            "solve", "coalesced", "coalesced", "solve",
        ]
        assert broker.report()["solves"] == 2
        # coalesced answers are the same array as the fresh solve's
        assert results[1].distances is results[0].distances
        broker.shutdown()

    def test_different_deadlines_never_coalesce(self, rmat1_small):
        broker = manual_broker(rmat1_small, max_batch_size=8)
        root = int(choose_root(rmat1_small, seed=3))
        lax = DeadlineConfig(max_supersteps=100_000)
        f1 = broker.submit(root, deadline=None)
        f2 = broker.submit(root, deadline=lax)
        broker.process_once(block=True)
        assert f1.result().source == "solve"
        assert f2.result().source == "solve"  # own solve, not coalesced
        assert broker.report()["solves"] == 2
        broker.shutdown()

    def test_dispatch_rechecks_cache(self, rmat1_small):
        # A root queued behind an identical earlier batch is answered from
        # the cache at dispatch time, without another solve.
        broker = manual_broker(rmat1_small, max_batch_size=1)
        root = int(choose_root(rmat1_small, seed=3))
        f1 = broker.submit(root)
        f2 = broker.submit(root)  # separate batch (max_batch_size=1)
        broker.process_once(block=True)
        broker.process_once(block=True)
        assert f1.result().source == "solve"
        assert f2.result().source == "cache"
        assert broker.report()["solves"] == 1
        broker.shutdown()


class TestOverloadAndShutdown:
    def test_overload_sheds_typed(self, rmat1_small):
        # a count is an integer: 2.5 served with a queue of 2, True with 1
        for bad in ({"capacity": 2.5}, {"max_batch_size": 1.5},
                    {"capacity": True}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                manual_broker(rmat1_small, **bad)
        broker = manual_broker(rmat1_small, capacity=2)
        roots = [int(r) for r in choose_roots(rmat1_small, 3, seed=5)]
        broker.submit(roots[0])
        broker.submit(roots[1])
        with pytest.raises(ServiceOverload) as info:
            broker.submit(roots[2])
        assert info.value.capacity == 2
        assert broker.queue_depth == 2
        report = broker.report()
        assert report["shed"] == 1
        assert report["offered"] == 3
        assert "serve_shed_total 1" in broker.registry.prometheus_text()
        broker.shutdown()  # graceful: the two queued requests complete
        assert broker.report()["completed"] == 2

    def test_shutdown_drains_queued_work(self, rmat1_small):
        broker = manual_broker(rmat1_small)
        roots = [int(r) for r in choose_roots(rmat1_small, 3, seed=6)]
        futures = broker.submit_many(roots)
        assert not any(f.done() for f in futures)
        broker.shutdown(drain=True)
        assert all(f.done() for f in futures)
        assert [f.result().root for f in futures] == roots

    def test_shutdown_refuses_new_submits(self, rmat1_small):
        broker = manual_broker(rmat1_small)
        broker.shutdown()
        with pytest.raises(ServiceShutdown):
            broker.submit(0)
        with pytest.raises(ServiceShutdown):
            broker.query(0)

    def test_shutdown_without_drain_cancels_queued(self, rmat1_small):
        broker = manual_broker(rmat1_small)
        futures = broker.submit_many(
            [int(r) for r in choose_roots(rmat1_small, 2, seed=7)]
        )
        broker.shutdown(drain=False)
        for future in futures:
            with pytest.raises(ServiceShutdown):
                future.result()
        assert broker.report()["outcome_cancelled"] == 2

    def test_shutdown_idempotent(self, rmat1_small):
        broker = manual_broker(rmat1_small)
        broker.shutdown()
        broker.shutdown()

    def test_context_manager_drains(self, rmat1_small):
        with manual_broker(rmat1_small) as broker:
            future = broker.submit(int(choose_root(rmat1_small, seed=8)))
        assert future.done()
        assert broker.closed


class TestDeadlines:
    def test_deadline_expiry_surfaces_watchdog_timeout(self, rmat1_small):
        # delta=1 forces many bucket epochs, so a 2-superstep budget trips.
        broker = manual_broker(rmat1_small, algorithm="delta", delta=1)
        root = int(choose_root(rmat1_small, seed=3))
        future = broker.submit(
            root, deadline=DeadlineConfig(max_supersteps=2)
        )
        broker.process_once(block=True)
        with pytest.raises(SolveTimeout, match="superstep budget"):
            future.result()
        assert broker.report()["outcome_timeout"] == 1
        broker.shutdown()

    def test_default_deadline_applies(self, rmat1_small):
        broker = manual_broker(
            rmat1_small,
            algorithm="delta",
            delta=1,
            default_deadline=DeadlineConfig(max_supersteps=2),
        )
        root = int(choose_root(rmat1_small, seed=3))
        with pytest.raises(SolveTimeout):
            broker.query(root)
        broker.shutdown()

    def test_timed_out_root_is_not_cached(self, rmat1_small):
        broker = manual_broker(rmat1_small, algorithm="delta", delta=1)
        root = int(choose_root(rmat1_small, seed=3))
        with pytest.raises(SolveTimeout):
            broker.query(root, deadline=DeadlineConfig(max_supersteps=2))
        # a lax retry must re-solve, not hit a poisoned cache entry
        res = broker.query(root)
        assert res.source == "solve"
        broker.shutdown()


class TestWorkersAndTelemetry:
    def test_worker_pool_serves(self, rmat1_small):
        broker = QueryBroker(
            rmat1_small, num_ranks=2, threads_per_rank=2,
            num_workers=2, max_batch_size=4,
        )
        roots = [int(r) for r in choose_roots(rmat1_small, 6, seed=9)]
        futures = broker.submit_many(roots + roots)  # half should hit/coalesce
        assert broker.drain(timeout=30.0)
        results = [f.result(timeout=5.0) for f in futures]
        base = {r: results[i].distances for i, r in enumerate(roots)}
        for res in results:
            assert np.array_equal(res.distances, base[res.root])
        broker.shutdown()
        report = broker.report()
        assert report["completed"] == 12
        # with racing workers duplicates may each solve before the cache
        # fills; the guarantee is answer identity, not solve count
        assert 6 <= report["solves"] <= 12

    def test_registry_metrics_exposed(self, rmat1_small):
        broker = manual_broker(rmat1_small)
        broker.query(int(choose_root(rmat1_small, seed=0)))
        broker.shutdown()
        text = broker.registry.prometheus_text()
        for name in (
            "serve_requests_total",
            "serve_batches_total",
            "serve_solves_total",
            "serve_batch_size",
            "serve_request_latency_seconds",
            "serve_queue_depth",
            "serve_cache_misses_total",
        ):
            assert name in text, name

    def test_trace_artifacts_validate(self, rmat1_small, tmp_path):
        from repro.obs.export import validate_trace_file
        from repro.obs.tracer import TraceConfig

        path = tmp_path / "serve.jsonl"
        broker = manual_broker(
            rmat1_small, trace=TraceConfig(path=str(path))
        )
        root = int(choose_root(rmat1_small, seed=0))
        broker.query(root)
        broker.query(root)  # one cache hit
        broker.shutdown()
        fmt, problems = validate_trace_file(str(path))
        assert fmt == "jsonl"
        assert problems == []


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


class TestFailureIsolation:
    def test_failing_root_fails_only_its_request(self, rmat1_small):
        bad, good = (int(r) for r in choose_roots(rmat1_small, 2, seed=3))
        broker = manual_broker(
            rmat1_small,
            max_batch_size=8,
            chaos=ChaosPlan(error_rate=1.0, roots=(bad,)),
        )
        f_bad = broker.submit(bad)
        f_good = broker.submit(good)
        broker.process_once(block=True)  # one batch, two groups
        with pytest.raises(InjectedFault):
            f_bad.result()
        res = f_good.result()
        offline = solve_sssp(rmat1_small, good, algorithm="opt", delta=25,
                             num_ranks=2, threads_per_rank=2)
        assert np.array_equal(res.distances, offline.distances)
        assert broker.report()["outcome_error"] == 1
        broker.shutdown()

    def test_coalesced_requests_share_the_failure(self, rmat1_small):
        bad = int(choose_root(rmat1_small, seed=3))
        broker = manual_broker(
            rmat1_small,
            max_batch_size=8,
            chaos=ChaosPlan(error_rate=1.0, roots=(bad,)),
        )
        futures = broker.submit_many([bad, bad])
        broker.process_once(block=True)
        for future in futures:
            with pytest.raises(InjectedFault):
                future.result()
        broker.shutdown()


class TestRetries:
    def test_retry_succeeds_after_transient_fault(self, rmat1_small):
        root = int(choose_root(rmat1_small, seed=3))
        broker = manual_broker(
            rmat1_small,
            chaos=ChaosPlan(error_rate=1.0, roots=(root,),
                            max_faulty_attempts=1),
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0),
        )
        res = broker.query(root)
        assert res.attempts == 2
        assert res.retried
        assert res.source == "solve"
        offline = solve_sssp(rmat1_small, root, algorithm="opt", delta=25,
                             num_ranks=2, threads_per_rank=2)
        assert np.array_equal(res.distances, offline.distances)
        report = broker.report()
        assert report["retries"] == 1
        assert report["retried_ok"] == 1
        assert report["outcome_solve"] == 1
        broker.shutdown()

    def test_retry_budget_exhausted_is_typed(self, rmat1_small):
        root = int(choose_root(rmat1_small, seed=3))
        broker = manual_broker(
            rmat1_small,
            chaos=ChaosPlan(error_rate=1.0, roots=(root,)),  # never clean
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
        )
        with pytest.raises(InjectedFault):
            broker.query(root)
        report = broker.report()
        assert report["retries"] == 1  # one retry, then terminal
        assert report["outcome_error"] == 1
        broker.shutdown()

    def test_drain_waits_for_inflight_retries(self, rmat1_small):
        # Satellite: drain must account for requests being retried —
        # a future is never leaked even when its retry is mid-backoff.
        root = int(choose_root(rmat1_small, seed=3))
        broker = QueryBroker(
            rmat1_small, num_ranks=2, threads_per_rank=2,
            num_workers=1,
            chaos=ChaosPlan(error_rate=1.0, roots=(root,),
                            max_faulty_attempts=1),
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.05),
        )
        future = broker.submit(root)
        assert broker.drain(timeout=30.0)
        assert future.done()
        assert future.result().attempts == 2
        broker.shutdown()

    def test_abort_cancels_pending_retries(self, rmat1_small):
        root = int(choose_root(rmat1_small, seed=3))
        broker = manual_broker(
            rmat1_small,
            chaos=ChaosPlan(error_rate=1.0, roots=(root,)),
            retry=RetryPolicy(max_attempts=5, backoff_base_s=10.0),
        )
        future = broker.submit(root)
        broker.process_once(block=True)  # attempt 0 fails; retry backoff 10s
        assert not future.done()
        broker.shutdown(drain=False)
        with pytest.raises((ServiceShutdown, InjectedFault)):
            future.result(timeout=1.0)
        broker.shutdown()


class TestVerification:
    def test_corrupt_solve_is_caught_and_retried(self, rmat1_small):
        root = int(choose_root(rmat1_small, seed=3))
        broker = manual_broker(
            rmat1_small,
            verify="structural",
            chaos=ChaosPlan(events=(ChaosEvent(root, 0, "corrupt"),)),
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
        )
        res = broker.query(root)
        assert res.attempts == 2
        offline = solve_sssp(rmat1_small, root, algorithm="opt", delta=25,
                             num_ranks=2, threads_per_rank=2)
        assert np.array_equal(res.distances, offline.distances)
        broker.shutdown()

    def test_corrupt_without_retry_is_typed_terminal(self, rmat1_small):
        root = int(choose_root(rmat1_small, seed=3))
        broker = manual_broker(
            rmat1_small,
            verify="structural",
            chaos=ChaosPlan(error_rate=0.0,
                            events=(ChaosEvent(root, 0, "corrupt"),)),
        )
        with pytest.raises(SolveCorrupted) as info:
            broker.query(root)
        assert info.value.root == root
        assert broker.report()["outcome_corrupt"] == 1
        # the corrupted answer never reached the cache
        assert root not in broker.cache
        broker.shutdown()


class TestBreakerLadder:
    def open_breaker(self, graph, bad, **broker_kwargs):
        clock = FakeClock()
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=1, recovery_time_s=1.0,
                          **broker_kwargs.pop("breaker_kwargs", {})),
            clock=clock,
        )
        broker = manual_broker(
            graph,
            breaker=breaker,
            chaos=ChaosPlan(error_rate=1.0, roots=(bad,)),
            **broker_kwargs,
        )
        return broker, breaker, clock

    def test_breaker_opens_and_flags_stale_cache_hits(self, rmat1_small):
        bad, good = (int(r) for r in choose_roots(rmat1_small, 2, seed=3))
        broker, breaker, _ = self.open_breaker(rmat1_small, bad)
        fresh = broker.query(good)  # cache fill while healthy
        assert not fresh.stale_ok
        with pytest.raises(InjectedFault):
            broker.query(bad)  # threshold 1: opens the "error" class
        assert breaker.state_of("error") == "open"
        stale = broker.query(good)
        assert stale.cached
        assert stale.stale_ok  # flagged: served while degraded
        broker.shutdown()

    def test_breaker_open_degrades_to_bounded_exact(self, rmat1_small):
        bad, cold = (int(r) for r in choose_roots(rmat1_small, 2, seed=4))
        broker, breaker, _ = self.open_breaker(rmat1_small, bad)
        with pytest.raises(InjectedFault):
            broker.query(bad)
        res = broker.query(cold)  # no cache entry: bounded-exact fallback
        assert res.degraded
        assert res.source == "degraded"
        offline = solve_sssp(rmat1_small, cold, algorithm="opt", delta=25,
                             num_ranks=2, threads_per_rank=2)
        # degrade-to-Bellman-Ford is exact: distances still bit-identical
        assert np.array_equal(res.distances, offline.distances)
        assert broker.report()["outcome_degraded"] == 1
        broker.shutdown()

    def test_breaker_open_sheds_large_graph_typed(self, rmat1_small):
        bad, cold = (int(r) for r in choose_roots(rmat1_small, 2, seed=4))
        broker, breaker, _ = self.open_breaker(
            rmat1_small, bad,
            breaker_kwargs={"degrade_max_vertices": 0},  # fallback never fits
        )
        with pytest.raises(InjectedFault):
            broker.query(bad)
        with pytest.raises(ServiceUnavailable) as info:
            broker.query(cold)
        assert info.value.open_classes == ("error",)
        assert broker.report()["outcome_unavailable"] == 1
        broker.shutdown()

    def test_half_open_probe_success_recloses(self, rmat1_small):
        bad, cold = (int(r) for r in choose_roots(rmat1_small, 2, seed=4))
        broker, breaker, clock = self.open_breaker(rmat1_small, bad)
        with pytest.raises(InjectedFault):
            broker.query(bad)
        clock.t = 2.0  # past recovery_time_s: half-open
        res = broker.query(cold)  # the probe solve, clean root
        assert not res.degraded  # probes run the primary path
        assert breaker.state_of("error") == "closed"
        assert not breaker.degraded
        broker.shutdown()


class TestNegativeCaching:
    def test_timed_out_root_fast_fails_within_ttl(self, rmat1_small):
        broker = manual_broker(
            rmat1_small, algorithm="delta", delta=1, negative_ttl_s=60.0
        )
        root = int(choose_root(rmat1_small, seed=3))
        with pytest.raises(SolveTimeout):
            broker.query(root, deadline=DeadlineConfig(max_supersteps=2))
        solves_before = broker.report()["solves"]
        with pytest.raises(SolveTimeout, match="negative-cached"):
            broker.query(root)  # fast-fail: no engine work burned
        report = broker.report()
        assert report["solves"] == solves_before
        assert report["negative_hits"] == 1
        assert report["outcome_timeout"] == 2
        broker.shutdown()


class TestHedging:
    def test_hedge_rescues_straggling_attempt(self, rmat1_small):
        root = int(choose_root(rmat1_small, seed=3))
        broker = manual_broker(
            rmat1_small,
            chaos=ChaosPlan(events=(ChaosEvent(root, 0, "slow"),),
                            slow_s=0.5),
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0,
                              hedge_after_s=0.01, hedge_budget=4),
        )
        t0 = __import__("time").perf_counter()
        res = broker.query(root)
        elapsed = __import__("time").perf_counter() - t0
        offline = solve_sssp(rmat1_small, root, algorithm="opt", delta=25,
                             num_ranks=2, threads_per_rank=2)
        assert np.array_equal(res.distances, offline.distances)
        assert broker.report()["hedges"] == 1
        assert elapsed < 0.5  # the hedge returned before the straggler
        broker.shutdown()

    def test_hedge_budget_exhausted_waits_for_primary(self, rmat1_small):
        root = int(choose_root(rmat1_small, seed=3))
        broker = manual_broker(
            rmat1_small,
            chaos=ChaosPlan(events=(ChaosEvent(root, 0, "slow"),),
                            slow_s=0.05),
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0,
                              hedge_after_s=0.01, hedge_budget=0),
        )
        res = broker.query(root)  # no budget: primary finishes on its own
        assert broker.report()["hedges"] == 0
        assert res.attempts == 1
        broker.shutdown()
