import math

import numpy as np

from benchmarks.stack.loadgen import (
    poisson_due_times,
    run_open_loop,
    zipf_indices,
)


class Shed(Exception):
    pass


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class FakeFuture:
    def __init__(self):
        self.callbacks, self.error = [], None

    def add_done_callback(self, callback):
        self.callbacks.append(callback)

    def exception(self):
        return self.error

    def result(self):
        return "answer"


def test_latency_runs_from_the_due_time_not_from_submit():
    clock = FakeClock()
    pending = []

    def submit(root):
        clock.now += 0.002            # the service stalls inside submit
        if root == 13:
            raise Shed()
        future = FakeFuture()
        pending.append(future)
        return future

    def drain():
        for k, future in enumerate(pending):
            clock.now += 0.010
            if k == 1:
                future.error = RuntimeError("boom")
            for callback in future.callbacks:
                callback(future)

    # requests due at 0, 1 ms, 2 ms, 3 ms: the 2 ms stall per submit makes
    # the generator late for all but the first
    out = run_open_loop(submit, drain, [5, 6, 13, 7], [0.0, 0.001, 0.002, 0.003],
                        shed_error=Shed, keep={0, 3}, clock=clock, sleep=clock.sleep)
    assert out.shed == 1 and out.errors == 1
    np.testing.assert_allclose(out.late_s, [0.0, 0.001, 0.002, 0.003], atol=1e-12)
    # submits ended at 8 ms; completions at 18, 28, 38 ms after the start
    np.testing.assert_allclose(out.latencies_s[0], 0.018, atol=1e-12)
    assert math.isinf(out.latencies_s[1]) and math.isinf(out.latencies_s[2])
    np.testing.assert_allclose(out.latencies_s[3], 0.038 - 0.003, atol=1e-12)
    assert set(out.results) == {0, 3}
    np.testing.assert_allclose(out.wall_s, 0.038, atol=1e-12)


def test_generator_sleeps_until_each_due_time():
    clock = FakeClock()
    sent = []

    def submit(root):
        sent.append(clock.now - 100.0)
        return FakeFuture()

    out = run_open_loop(submit, lambda: None, [1, 2, 3], [0.5, 1.0, 4.0],
                        shed_error=Shed, clock=clock, sleep=clock.sleep)
    np.testing.assert_allclose(sent, [0.5, 1.0, 4.0])
    np.testing.assert_allclose(out.late_s, [0.0, 0.0, 0.0], atol=1e-12)
    assert out.errors == 3     # drain never completed them: counted, not hidden


def test_schedules_and_root_picks_are_functions_of_the_seed():
    a = poisson_due_times(np.random.default_rng([3, 1]), 24.0, 50)
    b = poisson_due_times(np.random.default_rng([3, 1]), 24.0, 50)
    assert np.array_equal(a, b) and np.all(np.diff(a) > 0)
    assert abs(a[-1] / 50 - 1 / 24.0) < 0.02
    ranks = zipf_indices(np.random.default_rng(5), 64, 1.1, 20_000)
    counts = np.bincount(ranks, minlength=64)
    assert counts[0] > counts[1] > counts[3] > counts[15] > counts[63]
