"""Unit tests for latency windows, exact percentiles, and SLO verdicts."""

import math

import numpy as np
import pytest

from repro.serve.slo import LatencyWindow, SloPolicy, percentile


class TestPercentile:
    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50))
        assert math.isnan(percentile((), 99))

    def test_single_sample(self):
        assert percentile([0.25], 50) == 0.25
        assert percentile([0.25], 99) == 0.25

    def test_lower_interpolation_returns_observed_value(self):
        # 'lower' must pick an actually observed sample, never an average
        samples = [0.1, 0.2, 0.3, 0.4]
        for q in (25, 50, 75, 90, 99):
            assert percentile(samples, q) in samples

    def test_p50_of_even_set_is_lower_median(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0

    def test_order_insensitive(self):
        assert percentile([3.0, 1.0, 2.0], 99) == percentile([1.0, 2.0, 3.0], 99)


class TestLatencyWindow:
    def test_window_must_be_positive(self):
        # the integer rule: no zero, no float (2.5 kept 2), no bool
        for bad in (0, -1, 2.5, 2.0, True, "3"):
            with pytest.raises(ValueError, match="window"):
                LatencyWindow(window=bad)
        assert LatencyWindow(window=np.int32(2)).window == 2

    def test_eviction_at_exact_boundary(self):
        w = LatencyWindow(window=3)
        for lat in (0.1, 0.2, 0.3):
            w.record("solve", lat)
        assert w.samples("solve") == [0.1, 0.2, 0.3]
        # the fourth sample evicts exactly the oldest, nothing else
        w.record("solve", 0.4)
        assert w.samples("solve") == [0.2, 0.3, 0.4]
        # count is lifetime-recorded, not window-resident
        assert w.count == 4

    def test_window_is_per_source(self):
        w = LatencyWindow(window=2)
        w.record("cache", 0.1)
        w.record("cache", 0.2)
        w.record("solve", 0.9)
        w.record("cache", 0.3)
        # cache evicted its own oldest; solve untouched
        assert w.samples("cache") == [0.2, 0.3]
        assert w.samples("solve") == [0.9]

    def test_merged_samples_ordering(self):
        # merged order: per-source insertion order, sources in
        # first-record order — the documented contract.
        w = LatencyWindow()
        w.record("cache", 0.1)
        w.record("solve", 0.9)
        w.record("cache", 0.2)
        w.record("solve", 0.8)
        assert w.samples(None) == [0.1, 0.2, 0.9, 0.8]
        assert w.samples() == w.samples(None)

    def test_unknown_source_empty(self):
        assert LatencyWindow().samples("nope") == []

    def test_recent_filters_by_timestamp(self):
        # a sample is its bare latency, taken as a float: no timestamp
        w = LatencyWindow()
        w.record("solve", np.float32(0.5))
        w.record("solve", 2)
        assert w.samples("solve") == [0.5, 2.0]
        assert all(type(s) is float for s in w.samples())

    def test_recent_honours_explicit_now(self):
        # record_many (the broker's fold) appends in order, bounded alike
        w = LatencyWindow(window=2)
        w.record_many("solve", [0.1, 0.2, 0.3])
        assert w.samples("solve") == [0.2, 0.3]
        assert w.count == 3

    def test_summary_has_per_source_p50(self):
        w = LatencyWindow()
        w.record("cache", 0.1)
        w.record("solve", 0.5)
        row = w.summary()
        assert row["requests"] == 2
        assert row["p50_cache_s"] == 0.1
        assert row["p50_solve_s"] == 0.5
        assert row["p50_s"] in (0.1, 0.5)

    def test_summary_empty_is_nan(self):
        row = LatencyWindow().summary()
        assert row["requests"] == 0
        assert math.isnan(row["p50_s"])
        assert math.isnan(row["mean_s"])


class TestSloPolicy:
    def test_no_bounds_no_violations(self):
        assert SloPolicy().check({"p99_s": 99.0}) == []

    def test_p99_violation(self):
        policy = SloPolicy(p99_s=0.1)
        assert policy.check({"p99_s": 0.05}) == []
        violations = policy.check({"p99_s": 0.2})
        assert len(violations) == 1 and "p99_s" in violations[0]

    def test_hit_rate_floor(self):
        policy = SloPolicy(min_hit_rate=0.5)
        assert policy.check({"cache_hit_rate": 0.6}) == []
        assert len(policy.check({"cache_hit_rate": 0.4})) == 1

    def test_shed_fraction_ceiling(self):
        policy = SloPolicy(max_shed_fraction=0.1)
        assert policy.check({"offered": 100, "shed": 5}) == []
        assert len(policy.check({"offered": 100, "shed": 20})) == 1

    def test_missing_keys_ignored(self):
        policy = SloPolicy(p50_s=0.1, p99_s=0.1, min_hit_rate=0.5)
        assert policy.check({}) == []
