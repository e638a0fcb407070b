"""Unit tests for the multi-window SLO burn-rate monitor."""

import math

import pytest

from repro.obs.burnrate import (
    COMPANION_DIVISOR,
    OK_SOURCES,
    BurnAlert,
    BurnRateConfig,
    BurnRateMonitor,
)
from repro.serve.slo import LatencyWindow


class FakeClock:
    def __init__(self, t0: float = 0.0) -> None:
        self.t = t0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _monitor(clock, **cfg) -> tuple[LatencyWindow, BurnRateMonitor]:
    window = LatencyWindow(clock=clock)
    return window, BurnRateMonitor(window, BurnRateConfig(**cfg))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BurnRateConfig(objective=1.0)
        with pytest.raises(ValueError):
            BurnRateConfig(objective=0.0)
        with pytest.raises(ValueError):
            BurnRateConfig(fast_window_s=0.0)
        with pytest.raises(ValueError):
            BurnRateConfig(slow_threshold=-1.0)
        with pytest.raises(ValueError):
            BurnRateConfig(min_samples=0)

    def test_error_budget(self):
        assert BurnRateConfig(objective=0.99).error_budget == pytest.approx(0.01)
        assert BurnRateConfig(objective=0.9).error_budget == pytest.approx(0.1)

    def test_ok_sources_cover_serving_outcomes(self):
        # every way the broker can successfully serve must not burn budget
        assert set(OK_SOURCES) == {
            "cache", "solve", "repair", "coalesced", "degraded"
        }


class TestBurnRate:
    def test_thin_window_is_nan(self):
        clock = FakeClock()
        window, mon = _monitor(clock, min_samples=10)
        for _ in range(9):
            window.record("solve", 0.01)
        burn, bad, total = mon.burn_rate(60.0)
        assert math.isnan(burn)
        assert (bad, total) == (0, 9)

    def test_burn_is_bad_fraction_over_budget(self):
        clock = FakeClock()
        window, mon = _monitor(clock, objective=0.9, min_samples=1)
        for _ in range(8):
            window.record("solve", 0.01)
        for _ in range(2):
            window.record("timeout", 0.01)
        burn, bad, total = mon.burn_rate(60.0)
        # bad fraction 0.2 over a 0.1 budget = burning 2x
        assert burn == pytest.approx(2.0)
        assert (bad, total) == (2, 10)

    def test_old_samples_age_out_of_window(self):
        clock = FakeClock()
        window, mon = _monitor(clock, objective=0.9, min_samples=1)
        window.record("timeout", 0.01)
        clock.advance(120.0)
        for _ in range(5):
            window.record("solve", 0.01)
        burn, bad, total = mon.burn_rate(60.0)
        assert burn == pytest.approx(0.0)
        assert (bad, total) == (0, 5)

    def test_slow_success_burns_when_latency_slo_set(self):
        clock = FakeClock()
        window, mon = _monitor(
            clock, objective=0.9, min_samples=1, latency_slo_s=0.1
        )
        window.record("solve", 0.05)   # good and fast
        window.record("solve", 0.50)   # good but slow -> budget spend
        burn, bad, total = mon.burn_rate(60.0)
        assert (bad, total) == (1, 2)
        assert burn == pytest.approx(5.0)

    def test_without_latency_slo_slow_success_is_fine(self):
        clock = FakeClock()
        window, mon = _monitor(clock, objective=0.9, min_samples=1)
        window.record("solve", 99.0)
        burn, _, _ = mon.burn_rate(60.0)
        assert burn == pytest.approx(0.0)


class TestEvaluate:
    def _saturate(self, window, source, n):
        for _ in range(n):
            window.record(source, 0.01)

    def test_healthy_budget_no_alerts(self):
        clock = FakeClock()
        window, mon = _monitor(clock, min_samples=1)
        self._saturate(window, "solve", 50)
        assert mon.evaluate() == []
        assert mon.summary()["paging"] is False

    def test_hard_burn_pages(self):
        clock = FakeClock()
        window, mon = _monitor(clock, objective=0.9, min_samples=1)
        # 100% bad -> burn 10x > page threshold 14.4? No: 10 < 14.4.
        # Use a tighter objective so full badness clearly pages.
        window, mon = _monitor(clock, objective=0.99, min_samples=1)
        self._saturate(window, "timeout", 20)
        alerts = mon.evaluate()
        assert [a.severity for a in alerts] == ["page", "ticket"]
        page = alerts[0]
        assert page.burn == pytest.approx(100.0)
        assert page.companion_burn == pytest.approx(100.0)
        assert mon.summary()["paging"] is True

    def test_companion_gate_clears_alerts_after_burn_stops(self):
        clock = FakeClock()
        window, mon = _monitor(clock, objective=0.99, min_samples=1)
        # a burst of badness, then recovery
        self._saturate(window, "timeout", 20)
        fast_companion_s = mon.config.fast_window_s / COMPANION_DIVISOR
        clock.advance(fast_companion_s + 1.0)
        self._saturate(window, "solve", 20)
        # the fast (page) companion now holds only good samples, so the
        # page clears; the slow companion (25 s) still sees the burst,
        # so the ticket correctly keeps firing on sustained burn
        assert [a.severity for a in mon.evaluate()] == ["ticket"]
        slow_companion_s = mon.config.slow_window_s / COMPANION_DIVISOR
        clock.advance(slow_companion_s)
        self._saturate(window, "solve", 20)
        # burst is out of both companions (though still inside the 300 s
        # slow window): everything clears
        assert mon.evaluate() == []

    def test_thin_window_never_fires(self):
        clock = FakeClock()
        window, mon = _monitor(clock, min_samples=10)
        self._saturate(window, "timeout", 5)
        assert mon.evaluate() == []

    def test_ticket_without_page(self):
        clock = FakeClock()
        # slow threshold 6x, fast threshold 14.4x: a ~10x burn tickets
        # but does not page
        window, mon = _monitor(clock, objective=0.9, min_samples=1)
        self._saturate(window, "timeout", 1)
        window.record("solve", 0.01)
        # bad fraction 0.5 over budget 0.1 = 5x: under both -> nothing
        assert mon.evaluate() == []
        self._saturate(window, "timeout", 2)
        # 3 bad / 4 total = 7.5x: ticket only
        alerts = mon.evaluate()
        assert [a.severity for a in alerts] == ["ticket"]

    def test_describe_is_informative(self):
        alert = BurnAlert(
            severity="page", window_s=60.0, burn=20.0,
            companion_burn=21.0, threshold=14.4, bad=20, total=100,
        )
        text = alert.describe()
        assert "[page]" in text and "20.0x" in text and "20/100 bad" in text


class TestSummary:
    def test_summary_shape(self):
        clock = FakeClock()
        window, mon = _monitor(clock, min_samples=1)
        window.record("solve", 0.01)
        row = mon.summary()
        assert row["objective"] == 0.99
        assert row["burn_fast"] == pytest.approx(0.0)
        assert row["burn_fast_total"] == 1
        assert row["burn_slow_total"] == 1
        assert row["alerts"] == [] and row["paging"] is False

    def test_summary_nan_on_empty(self):
        clock = FakeClock()
        _, mon = _monitor(clock)
        row = mon.summary()
        assert math.isnan(row["burn_fast"]) and math.isnan(row["burn_slow"])
