"""One solve attempt of the serving plane (DESIGN.md §12).

:class:`AttemptRunner` is everything between "the broker decided to
solve this root on this snapshot" and "here are verified distances, or
a classified failure": the chaos draw (a
:class:`~repro.serve.chaos.ChaosSolver`, when a plan is configured), the
optional hedged re-attempt with its broker-wide budget, post-solve
verification, and the :data:`~repro.serve.retry.FAILURE_CLASSES` class
of what went wrong. It holds no request state and never touches the
queue, the cache or a future — the line the pipeline above it
(admission, batching, retries, the ladder) can be cut along.
"""

from __future__ import annotations

import threading

from repro.core.solver import run_validation
from repro.runtime.watchdog import SolveTimeout
from repro.serve.chaos import ChaosSolver
from repro.serve.request import SolveCorrupted

__all__ = ["AttemptRunner", "classify"]


def classify(exc: BaseException) -> str:
    """Map an attempt failure onto the breaker/retry failure taxonomy."""
    if isinstance(exc, SolveTimeout):
        return "timeout"
    if isinstance(exc, SolveCorrupted):
        return "corrupt"
    return "error"


class AttemptRunner:
    """Runs single (possibly hedged) solve attempts.

    ``chaos`` is an optional :class:`~repro.serve.chaos.ChaosPlan`
    (wrapped into :attr:`chaos`: one draw stream and one fault log over
    every snapshot's solver), ``retry`` the policy whose hedging knobs
    apply (None = never hedge), ``verify`` the post-solve validation mode.
    Hedges are counted by ``accounting``; the budget is spent against
    that one tally, serialised by this runner's lock.
    """

    def __init__(self, *, chaos, retry, verify, accounting) -> None:
        self.chaos = (
            ChaosSolver(None, chaos, registry=accounting.registry)
            if chaos is not None
            else None
        )
        self._policy = retry
        self._verify = verify
        self._acct = accounting
        self._hedge_lock = threading.Lock()

    def draw(self, root: int, attempt: int) -> str | None:
        """The chaos plan's draw for (root, attempt), None without chaos.
        Pure and cheap — safe to re-query for the request context."""
        if self.chaos is None:
            return None
        return self.chaos.plan.draw(root, attempt)

    # ------------------------------------------------------------------
    def _solve(self, solver, root: int, deadline, attempt: int):
        """One raw solve through the chaos layer (when configured)."""
        try:
            if self.chaos is not None:
                return self.chaos.solve(
                    root, deadline=deadline, attempt=attempt, solver=solver
                )
            return solver.solve(root, deadline=deadline)
        except SolveTimeout as exc:
            if exc.root is None:
                exc.root = root
            raise

    def verified(self, res, graph, root: int, attempt: int):
        """Post-attempt verification; a failed check is ``corrupt``.
        Returns ``(res, attempt)`` so callers know which attempt won."""
        if self._verify:
            try:
                run_validation(res.distances, graph, root, self._verify)
            except Exception as exc:
                raise SolveCorrupted(root, attempt, str(exc)) from exc
        return res, attempt

    def _spend_hedge(self, root: int, attempt: int) -> bool:
        with self._hedge_lock:
            if self._acct.tally("hedges") >= self._policy.hedge_budget:
                return False
            self._acct.count("hedges")
        self._acct.span(
            "hedge", "resilience", self._acct.clock(), 0.0,
            root=root, attempt=attempt,
        )
        return True

    def run(self, solver, graph, root: int, deadline, attempt: int):
        """One (possibly hedged) solve attempt, verified when configured.

        Returns ``(result, used_attempt)`` — ``used_attempt`` differs
        from ``attempt`` exactly when a hedged re-attempt won, so the
        request context records the attempt whose chaos draw actually
        produced the answer. Raises the attempt's failure otherwise.

        Hedging: with ``retry.hedge_after_s`` set, the primary attempt
        runs in a side thread; if it straggles past the threshold and
        hedge budget remains, a re-attempt (at ``attempt + 1``, so a
        chaos ``slow``/fault draw does not repeat) runs inline and its
        result is preferred; if it fails, the primary's result still
        counts.
        """
        policy = self._policy
        if policy is None or not policy.hedging:
            return self.verified(
                self._solve(solver, root, deadline, attempt),
                graph, root, attempt,
            )
        box: dict = {}
        done = threading.Event()

        def run_primary() -> None:
            try:
                box["res"] = self._solve(solver, root, deadline, attempt)
            except BaseException as exc:  # noqa: BLE001 — relayed below
                box["exc"] = exc
            finally:
                done.set()

        threading.Thread(
            target=run_primary, name=f"sssp-hedge-primary-{root}", daemon=True
        ).start()
        if not done.wait(policy.hedge_after_s) and self._spend_hedge(
            root, attempt
        ):
            try:
                return self.verified(
                    self._solve(solver, root, deadline, attempt + 1),
                    graph, root, attempt + 1,
                )
            except BaseException:  # noqa: BLE001 — fall back to primary
                done.wait()
                if "res" in box:
                    return self.verified(box["res"], graph, root, attempt)
                raise
        done.wait()
        if "exc" in box:
            raise box["exc"]
        return self.verified(box["res"], graph, root, attempt)
