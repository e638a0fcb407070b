"""Unit tests for the micro-batcher's flush and admission policy.

The clock is injected so flush timing is tested without sleeping.
"""

import pytest

from repro.serve.batcher import MicroBatcher
from repro.serve.request import ServiceOverload, ServiceShutdown


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def make(capacity=8, max_batch_size=3, flush_interval_s=1.0):
    clock = FakeClock()
    batcher = MicroBatcher(
        capacity=capacity,
        max_batch_size=max_batch_size,
        flush_interval_s=flush_interval_s,
        clock=clock,
    )
    return batcher, clock


class TestFlushTriggers:
    def test_size_trigger(self):
        batcher, _ = make(max_batch_size=3)
        for i in range(2):
            batcher.put(i)
        assert batcher.take(block=False) is None  # below size, before interval
        batcher.put(2)
        assert batcher.take(block=False) == [0, 1, 2]

    def test_latency_trigger(self):
        batcher, clock = make(max_batch_size=8, flush_interval_s=1.0)
        batcher.put("lonely")
        clock.t = 0.5
        assert batcher.take(block=False) is None
        clock.t = 1.0  # the oldest request has now waited the full interval
        assert batcher.take(block=False) == ["lonely"]

    def test_fifo_and_batch_bound(self):
        batcher, clock = make(max_batch_size=3, flush_interval_s=1.0)
        for i in range(5):
            batcher.put(i)
        assert batcher.take(block=False) == [0, 1, 2]
        clock.t = 1.0
        assert batcher.take(block=False) == [3, 4]
        assert batcher.depth == 0

    def test_zero_interval_flushes_immediately(self):
        batcher, _ = make(max_batch_size=8, flush_interval_s=0.0)
        batcher.put("x")
        assert batcher.take(block=False) == ["x"]


class TestAdmission:
    def test_put_returns_depth(self):
        batcher, _ = make()
        assert batcher.put("a") == 1
        assert batcher.put("b") == 2
        assert len(batcher) == 2

    def test_overload_at_capacity(self):
        batcher, _ = make(capacity=2)
        batcher.put("a")
        batcher.put("b")
        with pytest.raises(ServiceOverload) as info:
            batcher.put("c")
        assert info.value.depth == 2
        assert info.value.capacity == 2
        assert batcher.depth == 2  # the queue never grows past its bound

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MicroBatcher(capacity=0, max_batch_size=1, flush_interval_s=0)
        with pytest.raises(ValueError):
            MicroBatcher(capacity=1, max_batch_size=0, flush_interval_s=0)
        with pytest.raises(ValueError):
            MicroBatcher(capacity=1, max_batch_size=1, flush_interval_s=-1)


class Req:
    """Minimal request exposing the EDF contract of QueryRequest."""

    def __init__(self, name, deadline_at=float("inf")):
        self.name = name
        self.deadline_at = deadline_at

    def __repr__(self):  # pragma: no cover - assertion messages only
        return f"Req({self.name})"


class TestEdfOrder:
    def test_tight_deadline_jumps_fifo(self):
        # A late-arriving tight-deadline request is scheduled before
        # older slack ones (the ROADMAP follow-up).
        batcher, _ = make(max_batch_size=8, flush_interval_s=0.0)
        slack1 = Req("slack1", deadline_at=10.0)
        slack2 = Req("slack2", deadline_at=12.0)
        tight = Req("tight", deadline_at=0.5)  # arrives last
        for r in (slack1, slack2, tight):
            batcher.put(r)
        assert batcher.take(block=False) == [tight, slack1, slack2]

    def test_edf_spills_slackest_past_batch_bound(self):
        batcher, _ = make(max_batch_size=2, flush_interval_s=0.0)
        slack = Req("slack", deadline_at=99.0)
        mid = Req("mid", deadline_at=5.0)
        tight = Req("tight", deadline_at=1.0)
        for r in (slack, mid, tight):
            batcher.put(r)
        assert batcher.take(block=False) == [tight, mid]
        assert batcher.take(block=False) == [slack]

    def test_no_budgets_preserves_fifo(self):
        batcher, _ = make(max_batch_size=8, flush_interval_s=0.0)
        reqs = [Req(i) for i in range(4)]
        for r in reqs:
            batcher.put(r)
        assert batcher.take(block=False) == reqs

    def test_plain_payloads_still_work(self):
        # Non-request payloads (no deadline_at attribute) sort as FIFO.
        batcher, _ = make(max_batch_size=8, flush_interval_s=0.0)
        batcher.put("a")
        batcher.put("b")
        assert batcher.take(block=False) == ["a", "b"]


class TestRequeue:
    def test_requeue_bypasses_capacity(self):
        batcher, _ = make(capacity=1, flush_interval_s=0.0)
        batcher.put("a")
        batcher.requeue("retry")  # over capacity, still admitted
        assert batcher.depth == 2

    def test_requeue_bypasses_closed(self):
        batcher, _ = make(flush_interval_s=0.0)
        batcher.close()
        with pytest.raises(ServiceShutdown):
            batcher.put("a")
        batcher.requeue("retry")
        assert batcher.take(block=False) == ["retry"]

    def test_ready_at_holds_entry_until_backoff_expires(self):
        batcher, clock = make(flush_interval_s=0.0)
        batcher.requeue("retry", ready_at=2.0)
        assert batcher.take(block=False) is None  # backoff not expired
        assert batcher.depth == 1
        clock.t = 2.0
        assert batcher.take(block=False) == ["retry"]

    def test_held_back_entry_does_not_block_ready_ones(self):
        batcher, clock = make(flush_interval_s=0.0)
        batcher.requeue("later", ready_at=5.0)
        batcher.put("now")
        assert batcher.take(block=False) == ["now"]
        clock.t = 5.0
        assert batcher.take(block=False) == ["later"]

    def test_latency_trigger_runs_off_oldest_ready_entry(self):
        batcher, clock = make(max_batch_size=8, flush_interval_s=1.0)
        batcher.requeue("held", ready_at=10.0)
        clock.t = 0.5
        batcher.put("fresh")
        clock.t = 1.2  # "fresh" has waited only 0.7s; "held" not ready
        assert batcher.take(block=False) is None
        clock.t = 1.5  # now "fresh" hits the interval
        assert batcher.take(block=False) == ["fresh"]

    def test_requeue_preserves_original_enqueue_time(self):
        # Regression: requeue used to stamp a fresh enqueued_at, so each
        # retry restarted the full flush_interval_s wait and a lone
        # retried request slipped further past its budget every attempt.
        batcher, clock = make(max_batch_size=8, flush_interval_s=1.0)
        clock.t = 0.5  # request originally entered at 0.5
        batcher.requeue("retry", ready_at=1.0, enqueued_at=0.5)
        clock.t = 1.0
        # Without preservation the trigger would not fire until 2.0;
        # anchored to the original 0.5 it fires at 1.5.
        assert batcher.take(block=False) is None
        clock.t = 1.5
        assert batcher.take(block=False) == ["retry"]

    def test_latency_trigger_uses_min_enqueue_time_not_queue_head(self):
        # A requeued entry sits at the queue *tail* but can carry the
        # oldest enqueued_at; the trigger must scan all ready entries.
        batcher, clock = make(max_batch_size=8, flush_interval_s=1.0)
        clock.t = 0.5
        batcher.put("young")  # head of queue, enqueued at 0.5
        batcher.requeue("old-retry", enqueued_at=0.0)  # tail, but oldest
        clock.t = 1.0  # "old-retry" has waited the full interval
        assert batcher.take(block=False) == ["young", "old-retry"]


class TestShutdown:
    def test_close_refuses_new_but_drains_queued(self):
        batcher, _ = make(max_batch_size=8, flush_interval_s=60.0)
        batcher.put("a")
        batcher.put("b")
        batcher.close()
        with pytest.raises(ServiceShutdown):
            batcher.put("c")
        # a closed batcher flushes immediately regardless of triggers
        assert batcher.take(block=False) == ["a", "b"]
        assert batcher.take(block=True) is None  # closed + empty: exit signal

    def test_cancel_pending(self):
        batcher, _ = make()
        batcher.put("a")
        batcher.put("b")
        assert batcher.cancel_pending() == ["a", "b"]
        assert batcher.depth == 0
