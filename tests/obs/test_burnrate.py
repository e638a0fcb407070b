"""Is the service within its budget? SLO verdicts over the bounded window.

A served run's budget is judged by :class:`~repro.serve.slo.SloPolicy`
against a report row whose exact percentiles come from the broker's
:class:`~repro.serve.slo.LatencyWindow` — the newest ``window`` latencies
of each outcome source. These tests hold the verdicts (which bounds fire,
on what, with which message) and the window's bound (old samples leave,
one source at a time).
"""

import math

import pytest

from repro.serve.slo import LatencyWindow, SloPolicy

#: every source a served request completes under, then failure outcomes
SERVED = ("cache", "solve", "repair", "coalesced", "degraded")
FAILED = ("timeout", "error", "unavailable")


def _window(*samples, window: int = 100_000) -> LatencyWindow:
    """A window filled with ``(source, latency_s)`` samples, in order."""
    w = LatencyWindow(window=window)
    for source, latency in samples:
        w.record(source, latency)
    return w


class TestConfig:
    def test_validation(self):
        for bound in (float("nan"), -0.1, float("inf")):
            for name in ("p50_s", "p99_s", "min_hit_rate", "max_shed_fraction"):
                with pytest.raises(ValueError, match=name):
                    SloPolicy(**{name: bound})
        assert SloPolicy(p99_s=0.0, max_shed_fraction=0.0).check(
            {"p99_s": 0.0, "offered": 4, "shed": 0}) == []

    def test_error_budget(self):
        # the shed bound is an error budget: at it passes, past it fails
        policy = SloPolicy(max_shed_fraction=0.01)
        assert policy.check({"offered": 100, "shed": 1}) == []
        assert policy.check({"offered": 100, "shed": 2}) == [
            "shed fraction 0.020 > SLO 0.010"]

    def test_ok_sources_cover_serving_outcomes(self):
        # every outcome lands in its own series; the merged row sees all
        w = _window(*((s, 0.01) for s in SERVED + FAILED))
        row = w.summary()
        assert row["requests"] == len(SERVED + FAILED)
        assert {k for k in row if k.startswith("p50_") and k != "p50_s"} == {
            f"p50_{s}_s" for s in SERVED + FAILED}
        for source in SERVED + FAILED:
            assert w.samples(source) == [0.01]


class TestBurnRate:
    def test_thin_window_is_nan(self):
        # nothing recorded: NaN percentiles, which no latency bound fires on
        row = LatencyWindow().summary()
        assert math.isnan(row["p50_s"]) and math.isnan(row["p99_s"])
        assert SloPolicy(p50_s=0.0, p99_s=0.0).check(row) == []

    def test_burn_is_bad_fraction_over_budget(self):
        policy = SloPolicy(max_shed_fraction=0.1)
        (violation,) = policy.check({"offered": 10, "shed": 2})
        assert violation == "shed fraction 0.200 > SLO 0.100"

    def test_old_samples_age_out_of_window(self):
        # a full window of slow samples, then a window's worth of fast
        # ones evicts every one of them
        w = _window(*[("solve", 1.0)] * 3, window=3)
        policy = SloPolicy(p99_s=0.1)
        w.record("solve", 0.01)
        assert len(policy.check(w.summary())) == 1
        w.record("solve", 0.01)
        w.record("solve", 0.01)
        assert w.samples("solve") == [0.01] * 3
        assert policy.check(w.summary()) == []
        assert w.count == 6  # the lifetime count keeps the evicted ones

    def test_slow_success_burns_when_latency_slo_set(self):
        # 'lower' percentiles: p99 of three samples is the second largest
        w = _window(("solve", 0.05), ("solve", 0.50), ("solve", 0.50))
        (violation,) = SloPolicy(p99_s=0.1).check(w.summary())
        assert violation == "p99_s 0.500000 > SLO 0.100000"

    def test_without_latency_slo_slow_success_is_fine(self):
        w = _window(("solve", 99.0))
        assert SloPolicy().check(w.summary()) == []
        assert SloPolicy(min_hit_rate=0.5).check(w.summary()) == []


class TestEvaluate:
    def test_healthy_budget_no_alerts(self):
        w = _window(*[("cache", 0.001)] * 50)
        policy = SloPolicy(p50_s=0.01, p99_s=0.01)
        assert policy.check(w.summary()) == []

    def test_hard_burn_pages(self):
        # every bound broken at once: one violation per bound, in order
        policy = SloPolicy(p50_s=0.1, p99_s=0.1, min_hit_rate=0.9,
                           max_shed_fraction=0.0)
        report = {**_window(("solve", 1.0)).summary(),
                  "cache_hit_rate": 0.5, "offered": 2, "shed": 1}
        violations = policy.check(report)
        assert [v.split()[0] for v in violations] == [
            "p50_s", "p99_s", "cache_hit_rate", "shed"]

    def test_companion_gate_clears_alerts_after_burn_stops(self):
        # a burst stays in its own source's series: other traffic does not
        # evict it, only its source's newer samples do
        w = _window(*[("timeout", 1.0)] * 3, window=3)
        policy = SloPolicy(p99_s=0.1)
        for _ in range(10):
            w.record("cache", 0.001)
        assert len(policy.check(w.summary())) == 1
        for _ in range(3):
            w.record("timeout", 0.01)
        assert policy.check(w.summary()) == []

    def test_thin_window_never_fires(self):
        # no offered load: the shed bound has nothing to judge
        policy = SloPolicy(max_shed_fraction=0.0)
        assert policy.check({"offered": 0, "shed": 0}) == []
        assert policy.check({}) == []

    def test_ticket_without_page(self):
        # a 2 % tail breaks p99 but leaves the median alone
        w = _window(*[("solve", 0.01)] * 98, *[("solve", 1.0)] * 2)
        violations = SloPolicy(p50_s=0.1, p99_s=0.1).check(w.summary())
        assert [v.split()[0] for v in violations] == ["p99_s"]

    def test_describe_is_informative(self):
        policy = SloPolicy(p99_s=0.1, min_hit_rate=0.75)
        assert policy.check({"p99_s": 0.2, "cache_hit_rate": 0.5}) == [
            "p99_s 0.200000 > SLO 0.100000",
            "cache_hit_rate 0.500 < SLO 0.750",
        ]


class TestSummary:
    def test_summary_shape(self):
        w = _window(("cache", 0.001), ("solve", 0.1), ("solve", 0.3))
        row = w.summary()
        assert row == {
            "requests": 3, "p50_s": 0.1, "p99_s": 0.1,
            "mean_s": pytest.approx(0.401 / 3),
            "p50_cache_s": 0.001, "p50_solve_s": 0.1,
        }

    def test_summary_nan_on_empty(self):
        row = LatencyWindow().summary()
        assert row["requests"] == 0 and math.isnan(row["mean_s"])
        assert not any(k.startswith("p50_") and k != "p50_s" for k in row)
