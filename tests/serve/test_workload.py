"""Workload generator: Zipf popularity, arrival processes, run_workload."""

import numpy as np
import pytest

from repro.graph.roots import choose_roots
from repro.serve.broker import QueryBroker
from repro.serve.workload import (
    WorkloadSpec,
    interarrival_times,
    root_sequence,
    run_workload,
    zipf_weights,
)


class TestSpec:
    def test_defaults_valid(self):
        spec = WorkloadSpec()
        assert spec.arrival == "closed"

    def test_evolve(self):
        spec = WorkloadSpec().evolve(num_requests=7, zipf_s=0.0)
        assert spec.num_requests == 7
        assert spec.zipf_s == 0.0

    @pytest.mark.parametrize(
        "changes",
        [
            {"arrival": "poisson"},
            {"num_requests": 0},
            {"rate_qps": 0.0},
            {"concurrency": 0},
            {"zipf_s": -1.0},
            {"root_universe": 0},
        ],
    )
    def test_validation(self, changes):
        with pytest.raises(ValueError):
            WorkloadSpec(**changes)


class TestZipf:
    def test_weights_normalized_and_decreasing(self):
        w = zipf_weights(16, 1.1)
        assert w.sum() == pytest.approx(1.0)
        assert (np.diff(w) < 0).all()

    def test_s_zero_is_uniform(self):
        w = zipf_weights(8, 0.0)
        assert np.allclose(w, 1 / 8)

    def test_root_sequence_deterministic_and_in_universe(self, rmat1_small):
        spec = WorkloadSpec(num_requests=100, root_universe=16, seed=3)
        a = root_sequence(rmat1_small, spec)
        b = root_sequence(rmat1_small, spec)
        assert np.array_equal(a, b)
        universe = set(
            int(r) for r in choose_roots(rmat1_small, 16, seed=3)
        )
        assert set(a.tolist()) <= universe
        # roots are servable: none isolated
        assert all(rmat1_small.degrees[r] > 0 for r in set(a.tolist()))

    def test_skew_concentrates_traffic(self, rmat1_small):
        spec = WorkloadSpec(
            num_requests=400, root_universe=32, zipf_s=1.5, seed=0
        )
        roots = root_sequence(rmat1_small, spec)
        _, counts = np.unique(roots, return_counts=True)
        # the hottest root dominates well beyond the uniform share
        assert counts.max() > 3 * spec.num_requests / spec.root_universe

    def test_interarrival_seeded_and_rate_scaled(self):
        spec = WorkloadSpec(num_requests=2000, arrival="open", rate_qps=100.0)
        gaps = interarrival_times(spec)
        assert np.array_equal(gaps, interarrival_times(spec))
        assert (gaps >= 0).all()
        assert gaps.mean() == pytest.approx(1 / 100.0, rel=0.2)


class TestSlo:
    def test_policy_pass_and_fail(self):
        from repro.serve.slo import SloPolicy

        report = {
            "p50_s": 0.001, "p99_s": 0.1, "cache_hit_rate": 0.6,
            "offered": 100, "shed": 10,
        }
        assert SloPolicy().check(report) == []
        assert SloPolicy(p99_s=1.0, min_hit_rate=0.5,
                         max_shed_fraction=0.2).check(report) == []
        violations = SloPolicy(p50_s=0.0001, p99_s=0.01, min_hit_rate=0.9,
                               max_shed_fraction=0.05).check(report)
        assert len(violations) == 4

    def test_percentile_exact_lower(self):
        from repro.serve.slo import percentile

        assert percentile([3.0, 1.0, 2.0], 50) == 2.0
        assert np.isnan(percentile([], 50))

    def test_latency_window_split_by_source(self):
        from repro.serve.slo import LatencyWindow

        window = LatencyWindow(window=4)
        for latency in (0.1, 0.2, 0.3):
            window.record("solve", latency)
        window.record("cache", 0.001)
        summary = window.summary()
        assert summary["requests"] == 4
        assert summary["p50_cache_s"] == 0.001
        assert summary["p50_solve_s"] == 0.2
        # bounded reservoir: old samples age out
        for _ in range(10):
            window.record("solve", 9.0)
        assert window.samples("solve") == [9.0] * 4


class TestRunWorkload:
    def test_closed_loop_manual_broker(self, rmat1_small):
        broker = QueryBroker(
            rmat1_small, num_ranks=2, threads_per_rank=2,
            num_workers=0,
        )
        spec = WorkloadSpec(
            num_requests=20, arrival="closed", concurrency=1,
            zipf_s=1.2, root_universe=4, seed=1,
        )
        report = run_workload(broker, spec)
        broker.shutdown()
        assert report["completed"] == 20
        assert report["shed"] == 0
        assert report["workload"] == "closed"
        assert 0.0 < report["cache_hit_rate"] < 1.0
        assert report["throughput_qps"] > 0
        for key in ("p50_s", "p99_s", "mean_batch_size", "solves"):
            assert key in report

    def test_closed_loop_threaded_clients(self, rmat1_small):
        broker = QueryBroker(
            rmat1_small, num_ranks=2, threads_per_rank=2,
            num_workers=1, max_batch_size=4,
        )
        spec = WorkloadSpec(
            num_requests=24, arrival="closed", concurrency=3,
            zipf_s=1.2, root_universe=4, seed=2,
        )
        report = run_workload(broker, spec)
        broker.shutdown()
        assert report["completed"] == 24
        # 4 distinct roots, 24 requests: the cache must absorb most
        assert report["solves"] <= 8

    def test_open_loop(self, rmat1_small):
        broker = QueryBroker(
            rmat1_small, num_ranks=2, threads_per_rank=2,
            num_workers=1, max_batch_size=8,
        )
        spec = WorkloadSpec(
            num_requests=15, arrival="open", rate_qps=5000.0,
            zipf_s=1.1, root_universe=4, seed=3,
        )
        report = run_workload(broker, spec)
        broker.shutdown()
        assert report["completed"] + report["shed"] == 15
        assert report["shed"] == 0  # capacity 256 cannot overflow here

    def test_report_is_delta_scoped(self, rmat1_small):
        # two runs over one broker: the second report counts only its own
        broker = QueryBroker(
            rmat1_small, num_ranks=2, threads_per_rank=2,
            num_workers=0,
        )
        spec = WorkloadSpec(
            num_requests=10, arrival="closed", concurrency=1,
            root_universe=4, seed=4,
        )
        first = run_workload(broker, spec)
        second = run_workload(broker, spec)
        broker.shutdown()
        assert first["completed"] == 10
        assert second["completed"] == 10
