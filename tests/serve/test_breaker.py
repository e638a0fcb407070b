"""Circuit breaker: per-class state machine, deterministic transitions."""

import pytest

from repro.serve.breaker import BreakerConfig, CircuitBreaker

#: settings that became constants: refused as unknown keywords
RETIRED = {"half_open_probes", "degrade_supersteps", "classes"}


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def make(clock, **kwargs):
    kwargs.setdefault("failure_threshold", 2)
    kwargs.setdefault("recovery_time_s", 1.0)
    return CircuitBreaker(BreakerConfig(**kwargs), clock=clock)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_threshold": 0},
            {"recovery_time_s": -1.0},
            {"half_open_probes": 0},
            {"degrade_supersteps": 0},
            {"classes": ()},
            {"classes": ("error", "bogus")},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        error = TypeError if RETIRED & set(kwargs) else ValueError
        with pytest.raises(error):
            BreakerConfig(**kwargs)


class TestStateMachine:
    def test_opens_at_consecutive_threshold(self):
        clock = FakeClock()
        breaker = make(clock)
        assert breaker.acquire() == "primary"
        breaker.on_result("primary", "error")
        assert breaker.state_of("error") == "closed"
        breaker.on_result("primary", "error")
        assert breaker.state_of("error") == "open"
        assert breaker.degraded
        assert breaker.open_classes() == ("error",)

    def test_success_resets_consecutive_count(self):
        clock = FakeClock()
        breaker = make(clock)
        breaker.on_result("primary", "error")
        breaker.on_result("primary", None)  # success clears the streak
        breaker.on_result("primary", "error")
        assert breaker.state_of("error") == "closed"

    def test_classes_are_independent(self):
        clock = FakeClock()
        breaker = make(clock)
        breaker.on_result("primary", "timeout")
        breaker.on_result("primary", "timeout")
        assert breaker.state_of("timeout") == "open"
        assert breaker.state_of("error") == "closed"
        assert breaker.state_of("corrupt") == "closed"

    def test_open_turns_half_open_after_recovery(self):
        clock = FakeClock()
        breaker = make(clock)
        breaker.on_result("primary", "error")
        breaker.on_result("primary", "error")
        assert breaker.acquire() == "degraded"
        clock.advance(0.5)
        assert breaker.acquire() == "degraded"  # still inside recovery
        clock.advance(0.6)
        assert breaker.state_of("error") == "half_open"
        assert breaker.acquire() == "probe"

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = make(clock)
        breaker.on_result("primary", "error")
        breaker.on_result("primary", "error")
        clock.advance(1.5)
        decision = breaker.acquire()
        assert decision == "probe"
        breaker.on_result(decision, None)
        assert breaker.state_of("error") == "closed"
        assert not breaker.degraded
        assert breaker.acquire() == "primary"

    def test_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = make(clock)
        breaker.on_result("primary", "error")
        breaker.on_result("primary", "error")
        clock.advance(1.5)
        decision = breaker.acquire()
        assert decision == "probe"
        breaker.on_result(decision, "error")
        assert breaker.state_of("error") == "open"
        assert breaker.acquire() == "degraded"

    def test_probe_slots_are_bounded(self):
        clock = FakeClock()
        breaker = make(clock)
        breaker.on_result("primary", "error")
        breaker.on_result("primary", "error")
        clock.advance(1.5)
        assert breaker.acquire() == "probe"
        # the probe slot is taken; concurrent acquires degrade
        assert breaker.acquire() == "degraded"

    def test_degraded_results_do_not_feed_the_machine(self):
        clock = FakeClock()
        breaker = make(clock)
        breaker.on_result("degraded", "error")
        breaker.on_result("degraded", "error")
        assert breaker.state_of("error") == "closed"


class TestDeterminism:
    def drive(self):
        clock = FakeClock()
        breaker = make(clock)
        script = [
            ("error",), ("error",), (None,),  # open "error"
        ]
        for (outcome,) in script:
            decision = breaker.acquire()
            breaker.on_result(decision, outcome)
            clock.advance(0.4)
        clock.advance(1.0)
        decision = breaker.acquire()
        breaker.on_result(decision, None)
        return breaker.transitions

    def test_replay_is_identical(self):
        assert self.drive() == self.drive()

    def test_transitions_record_timestamps_and_states(self):
        transitions = self.drive()
        assert [(cls, a, b) for _, cls, a, b in transitions] == [
            ("error", "closed", "open"),
            ("error", "open", "half_open"),
            ("error", "half_open", "closed"),
        ]


class TestMetrics:
    def test_state_gauge_and_transition_counter(self):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        clock = FakeClock()
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=1), clock=clock, registry=registry
        )
        breaker.on_result("primary", "timeout")
        text = registry.prometheus_text()
        assert "serve_breaker_state" in text
        assert "serve_breaker_transitions_total" in text
        # both read the breaker's own state: the classes and transitions
        snap = registry.snapshot()
        assert snap['serve_breaker_state{class="timeout"}'] == 1
        assert snap['serve_breaker_state{class="error"}'] == 0
        assert breaker.transitions == [(0.0, "timeout", "closed", "open")]
        assert snap['serve_breaker_transitions_total{class="timeout",to="open"}'] == 1
