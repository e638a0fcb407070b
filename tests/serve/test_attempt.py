"""``AttemptRunner`` on its own: a fake solver, no broker, no queue."""

import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.runtime.watchdog import SolveTimeout
from repro.serve.accounting import ServeAccounting
from repro.serve.attempt import AttemptRunner, classify
from repro.serve.chaos import ChaosEvent, ChaosPlan, InjectedFault
from repro.serve.request import SolveCorrupted
from repro.serve.retry import RetryPolicy

#: exact distances from vertex 0 of ``path_graph`` (0 -5- 1 -3- 2 -7- 3 -1- 4)
EXACT = np.array([0, 5, 8, 15, 16], dtype=np.int64)


class FakeSolver:
    """Answers each ``solve`` call, in call order, from a script of
    callables (the first call of a hedged attempt is the primary)."""

    def __init__(self, *script) -> None:
        self.script = list(script)
        self.calls = 0
        self._lock = threading.Lock()

    def solve(self, root, *, deadline=None, **_):
        with self._lock:
            step = self.script[self.calls]
            self.calls += 1
        return step()


def ok(distances=EXACT):
    return lambda: SimpleNamespace(distances=np.array(distances))


def slow(seconds, then):
    def step():
        time.sleep(seconds)
        return then()
    return step


def raises(exc):
    def step():
        raise exc
    return step


def hedges(acct) -> int:
    """The hedge tally: the registry's ``serve_hedges_total``, read back."""
    count = acct.tally("hedges")
    assert acct.registry.snapshot().get("serve_hedges_total", 0) == count
    return count


def runner(*, hedge_budget=0, verify=False, chaos=None):
    acct = ServeAccounting()
    retry = RetryPolicy(hedge_after_s=0.01 if hedge_budget else None,
                        hedge_budget=hedge_budget)
    return AttemptRunner(chaos=chaos, retry=retry, verify=verify,
                         accounting=acct), acct


class TestHedging:
    def test_hedge_wins_over_a_straggling_primary(self, path_graph):
        run, acct = runner(hedge_budget=4)
        release = threading.Event()
        solver = FakeSolver(lambda: release.wait(5.0) and ok()(), ok())
        res, used = run.run(solver, path_graph, 0, None, 0)
        release.set()
        assert used == 1  # the re-attempt's number, not the primary's
        assert np.array_equal(res.distances, EXACT)
        assert hedges(acct) == 1

    def test_failed_hedge_falls_back_to_the_primary(self, path_graph):
        run, acct = runner(hedge_budget=4)
        solver = FakeSolver(slow(0.05, ok()), raises(RuntimeError("hedge")))
        res, used = run.run(solver, path_graph, 0, None, 2)
        assert used == 2 and solver.calls == 2
        assert np.array_equal(res.distances, EXACT)
        assert hedges(acct) == 1

    def test_both_fail_raises_the_hedge_failure(self, path_graph):
        run, _ = runner(hedge_budget=4)
        solver = FakeSolver(slow(0.05, raises(RuntimeError("primary"))),
                            raises(RuntimeError("hedge")))
        with pytest.raises(RuntimeError, match="hedge"):
            run.run(solver, path_graph, 0, None, 0)

    def test_exhausted_budget_waits_for_the_primary(self, path_graph):
        run, acct = runner(hedge_budget=1)
        run.run(FakeSolver(slow(0.05, ok()), ok()), path_graph, 0, None, 0)
        assert hedges(acct) == 1  # the budget, spent
        solver = FakeSolver(slow(0.05, ok()))
        res, used = run.run(solver, path_graph, 0, None, 0)
        assert used == 0 and solver.calls == 1
        assert hedges(acct) == 1

    def test_fast_primary_never_hedges(self, path_graph):
        run, acct = runner(hedge_budget=4)
        solver = FakeSolver(ok())
        assert run.run(solver, path_graph, 0, None, 0)[1] == 0
        assert solver.calls == 1 and hedges(acct) == 0


class TestVerificationAndClassification:
    def test_failed_verification_is_corrupt(self, path_graph):
        run, _ = runner(verify="structural")
        wrong = EXACT.copy()
        wrong[3] += 2
        with pytest.raises(SolveCorrupted) as err:
            run.run(FakeSolver(ok(wrong)), path_graph, 0, None, 1)
        assert (err.value.root, err.value.attempt) == (0, 1)
        assert classify(err.value) == "corrupt"

    def test_verified_answer_passes_through(self, path_graph):
        run, _ = runner(verify="structural")
        res, used = run.run(FakeSolver(ok()), path_graph, 0, None, 0)
        assert used == 0 and np.array_equal(res.distances, EXACT)

    def test_timeout_gets_its_root_and_class(self, path_graph):
        run, _ = runner()
        with pytest.raises(SolveTimeout) as err:
            run.run(FakeSolver(raises(SolveTimeout("late"))), path_graph,
                    3, None, 0)
        assert err.value.root == 3
        assert classify(err.value) == "timeout"
        assert classify(RuntimeError("boom")) == "error"

    def test_chaos_draw_hits_the_handed_in_solver(self, path_graph):
        plan = ChaosPlan(events=(ChaosEvent(0, 0, "error"),))
        run, _ = runner(chaos=plan)
        solver = FakeSolver(ok())
        with pytest.raises(InjectedFault):
            run.run(solver, path_graph, 0, None, 0)
        assert solver.calls == 0 and run.chaos.log == [(0, 0, "error")]
        assert run.run(solver, path_graph, 0, None, 1)[1] == 1
        assert (run.draw(0, 0), run.draw(0, 1)) == ("error", None)
