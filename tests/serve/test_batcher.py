"""Unit tests for the micro-batcher's take and admission policy.

The clock is injected and frozen, so a take that returned anything is a
take that did not wait for time to pass.
"""

import numpy as np
import pytest

from repro.serve.batcher import MicroBatcher
from repro.serve.request import ServiceOverload, ServiceShutdown


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def make(capacity=8, max_batch_size=3):
    clock = FakeClock()
    batcher = MicroBatcher(
        capacity=capacity, max_batch_size=max_batch_size, clock=clock
    )
    return batcher, clock


class Ctx:
    """Records the queue waits the batcher notes on a request context."""

    def __init__(self) -> None:
        self.waits: list[float] = []

    def note_dequeue(self, wait_s: float) -> None:
        self.waits.append(wait_s)


class Traced:
    def __init__(self, name) -> None:
        self.name = name
        self.ctx = Ctx()


class TestFlushTriggers:
    def test_two_ready_entries_are_taken_together(self):
        batcher, _ = make(max_batch_size=3)
        batcher.put(0)
        batcher.put(1)
        assert batcher.take(block=False) == [0, 1]
        assert batcher.depth == 0

    def test_lone_put_is_taken_at_once(self):
        # No batch-formation window: with the clock frozen, a lone
        # request is taken by the first take, blocking or not.
        batcher, _ = make(max_batch_size=8)
        batcher.put("lonely")
        assert batcher.take(block=False) == ["lonely"]
        batcher.put("again")
        assert batcher.take(block=True) == ["again"]

    def test_fifo_and_batch_bound(self):
        batcher, _ = make(max_batch_size=3)
        for i in range(5):
            batcher.put(i)
        assert batcher.take(block=False) == [0, 1, 2]
        assert batcher.take(block=False) == [3, 4]
        assert batcher.depth == 0


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
            MicroBatcher(capacity=0, max_batch_size=1)
        with pytest.raises(ValueError):
            MicroBatcher(capacity=1, max_batch_size=0)
        # the integer rule: a float was truncated (2.5 served as 2) and a
        # bool taken as 1
        for bad in (2.5, 2.0, True, "2"):
            with pytest.raises(ValueError, match="capacity"):
                MicroBatcher(capacity=bad, max_batch_size=1)
            with pytest.raises(ValueError, match="max_batch_size"):
                MicroBatcher(capacity=2, max_batch_size=bad)
        batcher = MicroBatcher(capacity=np.int64(2), max_batch_size=np.int8(1))
        assert (batcher.capacity, batcher.max_batch_size) == (2, 1)


class TestEdfOrder:
    """The take order once earliest-deadline-first scheduling went (no
    caller declared a latency budget): FIFO among the ready entries."""

    def test_no_budgets_preserves_fifo(self):
        batcher, _ = make(max_batch_size=8)
        reqs = [Traced(i) for i in range(4)]
        for r in reqs:
            batcher.put(r)
        assert batcher.take(block=False) == reqs

    def test_plain_payloads_still_work(self):
        # Non-request payloads (no ``ctx`` attribute) are taken as well.
        batcher, _ = make(max_batch_size=8)
        batcher.put("a")
        batcher.put("b")
        assert batcher.take(block=False) == ["a", "b"]


class TestRequeue:
    def test_requeue_bypasses_capacity(self):
        batcher, _ = make(capacity=1)
        batcher.put("a")
        batcher.requeue("retry")  # over capacity, still admitted
        assert batcher.depth == 2

    def test_requeue_bypasses_closed(self):
        batcher, _ = make()
        batcher.close()
        with pytest.raises(ServiceShutdown):
            batcher.put("a")
        batcher.requeue("retry")
        assert batcher.take(block=False) == ["retry"]

    def test_ready_at_holds_entry_until_backoff_expires(self):
        batcher, clock = make()
        batcher.requeue("retry", ready_at=2.0)
        assert batcher.take(block=False) is None  # backoff not expired
        assert batcher.depth == 1
        clock.t = 2.0
        assert batcher.take(block=False) == ["retry"]

    def test_held_back_entry_does_not_block_ready_ones(self):
        batcher, clock = make()
        batcher.requeue("later", ready_at=5.0)
        batcher.put("now")
        assert batcher.take(block=False) == ["now"]
        clock.t = 5.0
        assert batcher.take(block=False) == ["later"]

    def test_held_back_retry_never_delays_ready_entries(self):
        batcher, clock = make(max_batch_size=8)
        batcher.requeue("held", ready_at=10.0)
        clock.t = 0.5
        batcher.put("fresh")
        assert batcher.take(block=False) == ["fresh"]
        clock.t = 9.9
        assert batcher.take(block=False) is None
        clock.t = 10.0  # the backoff has just expired
        assert batcher.take(block=False) == ["held"]

    def test_requeued_wait_runs_from_the_requeue(self):
        batcher, clock = make(max_batch_size=8)
        req = Traced("r")
        batcher.put(req)
        clock.t = 0.25
        assert batcher.take(block=False) == [req]
        clock.t = 1.0  # the attempt failed; back in with a 0.5 s backoff
        batcher.requeue(req, ready_at=1.5)
        clock.t = 2.0
        assert batcher.take(block=False) == [req]
        assert req.ctx.waits == [0.25, 1.0]


class TestShutdown:
    def test_close_refuses_new_but_drains_queued(self):
        batcher, _ = make(max_batch_size=8)
        batcher.put("a")
        batcher.put("b")
        batcher.close()
        with pytest.raises(ServiceShutdown):
            batcher.put("c")
        assert batcher.take(block=False) == ["a", "b"]
        assert batcher.take(block=True) is None  # closed + empty: exit signal

    def test_cancel_pending(self):
        batcher, _ = make()
        batcher.put("a")
        batcher.put("b")
        assert batcher.cancel_pending() == ["a", "b"]
        assert batcher.depth == 0
