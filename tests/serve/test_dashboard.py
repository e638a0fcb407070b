"""Unit tests for the serve-top dashboard (snapshot/render/run split)."""

import io

from repro.obs.burnrate import BurnRateConfig, BurnRateMonitor
from repro.obs.request import RequestContext, request_id
from repro.serve import dashboard
from repro.serve.events import WideEventLog
from repro.serve.slo import LatencyWindow


class FakeClock:
    def __init__(self, t0: float = 0.0) -> None:
        self.t = t0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class StubBreaker:
    def states(self):
        return {"solve": "open", "timeout": "closed"}


class StubChaos:
    def summary(self):
        return {"error": 3, "stall": 1}


class StubBroker:
    """Duck-typed stand-in exposing exactly what snapshot() reads."""

    def __init__(self, *, clock=None, events=None, breaker=None, chaos=None):
        self._clock = clock or FakeClock()
        self.latency = LatencyWindow(clock=self._clock)
        self.events = events
        self.breaker = breaker
        self.chaos = chaos
        self._report = {
            "offered": 10,
            "completed": 8,
            "shed": 1,
            "retries": 2,
            "hedges": 0,
            "queue_depth": 1,
            "batches": 4,
            "mean_batch_size": 2.0,
            "outcome_cache": 3,
            "throughput_qps": 42.0,
        }

    def report(self):
        return dict(self._report, wall_s=self._clock())


class TestSnapshot:
    def test_rates_from_report_when_no_prev(self):
        broker = StubBroker()
        snap = dashboard.snapshot(broker)
        assert snap["qps"] == 42.0
        assert snap["hit_rate"] == 3 / 8
        assert snap["shed_rate"] == 1 / 10
        assert snap["retry_rate"] == 2 / 10

    def test_instantaneous_qps_from_prev_delta(self):
        broker = StubBroker()
        snap0 = dashboard.snapshot(broker)
        broker._clock.advance(2.0)
        broker._report["completed"] = 18
        snap1 = dashboard.snapshot(broker, prev=snap0)
        # 10 more completions over 2 s
        assert snap1["qps"] == 5.0

    def test_latency_by_source(self):
        broker = StubBroker()
        broker.latency.record("cache", 0.001)
        broker.latency.record("solve", 0.1)
        broker.latency.record("solve", 0.2)
        snap = dashboard.snapshot(broker)
        assert snap["latency_by_source"]["solve"]["n"] == 2
        assert snap["latency_by_source"]["solve"]["p50_s"] == 0.1
        assert "degraded" not in snap["latency_by_source"]

    def test_optional_sections_default_empty(self):
        snap = dashboard.snapshot(StubBroker())
        assert snap["breaker"] == {}
        assert snap["chaos"] == {}
        assert snap["burn"] is None
        assert snap["recent"] == []

    def test_full_sections(self):
        events = WideEventLog()
        ctx = RequestContext(request_id(0), root=5)
        events.emit(
            ctx.wide_event(
                outcome="ok", source="solve", latency_s=0.1, attempts_total=1
            )
        )
        broker = StubBroker(
            events=events, breaker=StubBreaker(), chaos=StubChaos()
        )
        broker.latency.record("solve", 0.1)
        monitor = BurnRateMonitor(
            broker.latency, BurnRateConfig(min_samples=1)
        )
        snap = dashboard.snapshot(broker, monitor=monitor)
        assert snap["breaker"]["solve"] == "open"
        assert snap["chaos"]["error"] == 3
        assert snap["burn"]["burn_fast_total"] == 1
        assert snap["recent"][0]["request_id"] == "req-000000"


class TestRender:
    def test_render_contains_all_sections(self):
        events = WideEventLog()
        ctx = RequestContext(request_id(0), root=5)
        events.emit(
            ctx.wide_event(
                outcome="ok", source="solve", latency_s=0.1, attempts_total=1
            )
        )
        broker = StubBroker(
            events=events, breaker=StubBreaker(), chaos=StubChaos()
        )
        broker.latency.record("solve", 0.1)
        monitor = BurnRateMonitor(
            broker.latency, BurnRateConfig(min_samples=1)
        )
        text = dashboard.render(dashboard.snapshot(broker, monitor=monitor))
        assert "serve-top" in text
        assert "offered" in text and "completed" in text
        assert "solve" in text
        assert "breaker" in text and "open" in text
        assert "chaos" in text and "error=3" in text
        assert "burn rate" in text
        assert "req-000000" in text

    def test_render_empty_broker(self):
        text = dashboard.render(dashboard.snapshot(StubBroker()))
        assert "(no completed requests yet)" in text
        assert "burn rate" not in text

    def test_nan_burn_renders_as_na(self):
        broker = StubBroker()
        monitor = BurnRateMonitor(broker.latency, BurnRateConfig())
        text = dashboard.render(dashboard.snapshot(broker, monitor=monitor))
        assert "n/a" in text

    def test_alert_line_rendered(self):
        broker = StubBroker()
        for _ in range(20):
            broker.latency.record("timeout", 0.01)
        monitor = BurnRateMonitor(
            broker.latency, BurnRateConfig(min_samples=1)
        )
        text = dashboard.render(dashboard.snapshot(broker, monitor=monitor))
        assert "ALERT" in text and "[page]" in text


class TestRun:
    def test_fixed_frames_without_clear(self):
        broker = StubBroker()
        out = io.StringIO()
        drawn = dashboard.run(
            broker, frames=3, refresh_s=0.0, clear=False, out=out
        )
        assert drawn == 3
        assert out.getvalue().count("serve-top") == 3
        assert dashboard.CLEAR not in out.getvalue()

    def test_clear_mode_prefixes_ansi(self):
        out = io.StringIO()
        dashboard.run(StubBroker(), frames=1, refresh_s=0.0, out=out)
        assert out.getvalue().startswith(dashboard.CLEAR)

    def test_should_stop_ends_loop(self):
        out = io.StringIO()
        drawn = dashboard.run(
            StubBroker(),
            frames=None,
            refresh_s=0.0,
            clear=False,
            out=out,
            should_stop=lambda: True,
        )
        # draws the frame it was on, then honours the stop signal
        assert drawn == 1
