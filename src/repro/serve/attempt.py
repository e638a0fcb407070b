"""Attempts: what the serving plane does with one coalesce group that
missed the cache (DESIGN.md §12).

:class:`AttemptRunner` owns every decision between "these requests need
distances for this root on this snapshot" and the outcome the broker
applies: the negative-cache check, the circuit breaker's admission of
the attempt and its verdict after, the degradation ladder's
bounded-exact or refused rung, the lineage tier's turn, the solve
attempt itself — the chaos draw (a :class:`~repro.serve.chaos.ChaosSolver`
when a plan is configured), the optional hedged re-attempt with its
broker-wide budget, post-solve verification and the
:data:`~repro.serve.retry.FAILURE_CLASSES` class of what went wrong —
and the :class:`~repro.serve.retry.RetryPolicy`'s verdict with its
backoff. It notes each decision on the requests' contexts, but never
touches the queue or a future: :meth:`AttemptRunner.solve` returns the
outcome, and the broker completes, fails or requeues.
"""

from __future__ import annotations

import threading

from repro.core.solver import run_validation
from repro.runtime.watchdog import SolveTimeout
from repro.serve.breaker import ladder_rung
from repro.serve.chaos import ChaosSolver
from repro.serve.request import ServiceUnavailable, SolveCorrupted

__all__ = ["AttemptRunner", "classify"]


def classify(exc: BaseException) -> str:
    """Map an attempt failure onto the breaker/retry failure taxonomy."""
    if isinstance(exc, SolveTimeout):
        return "timeout"
    if isinstance(exc, SolveCorrupted):
        return "corrupt"
    return "error"


class AttemptRunner:
    """Decides and runs the solve attempts of coalesce groups.

    ``chaos`` is an optional :class:`~repro.serve.chaos.ChaosPlan`
    (wrapped into :attr:`chaos`: one draw stream and one fault log over
    every snapshot's solver), ``retry`` the policy (None = the first
    failure is terminal, never hedge), ``verify`` the post-solve
    validation mode, ``breaker`` the
    :class:`~repro.serve.breaker.CircuitBreaker` or None. ``snapshots``
    (:class:`~repro.serve.snapshots.Snapshots`) supplies the solvers, the
    cache and the lineage tier, ``admission``
    (:class:`~repro.serve.batcher.MicroBatcher`) whether a shutdown
    aborted retries. Hedges are counted by ``accounting``; the budget is
    spent against that one tally, serialised by this runner's lock.
    """

    def __init__(
        self, *, chaos, retry, verify, accounting, breaker=None,
        snapshots=None, admission=None,
    ) -> None:
        self.chaos = (
            ChaosSolver(chaos, registry=accounting.registry)
            if chaos is not None
            else None
        )
        self.breaker = breaker
        self._policy = retry
        self._verify = verify
        self._acct = accounting
        self._snapshots = snapshots
        self._admission = admission
        self._hedge_lock = threading.Lock()

    def draw(self, root: int, attempt: int) -> str | None:
        """The chaos plan's draw for (root, attempt), None without chaos.
        Pure and cheap — safe to re-query for the request context."""
        if self.chaos is None:
            return None
        return self.chaos.plan.draw(root, attempt)

    def _note(self, reqs: list, attempt: int, decision: str, outcome: str) -> None:
        """Record one solve attempt on every coalesced request's context."""
        if reqs[0].ctx is None:
            return
        draw = self.draw(reqs[0].root, attempt)
        for req in reqs:
            req.ctx.note_attempt(attempt, decision, draw, outcome)

    def solve(self, key: tuple, reqs: list, batch_id: int) -> tuple:
        """Serve one coalesce group (``key`` = root, deadline, snapshot)
        past the cache; returns ``(verb, value, detail)`` for the broker:

        - ``("solve" | "degraded", result, None)``: answer the group with
          an engine result — a primary-path attempt, or the ladder's
          bounded-exact rung;
        - ``("repair", distances, (ancestor, dirty))``: the lineage tier
          answered (and cached the answer);
        - ``("retry", ready_at, attempts)``: requeue the group, ``attempts``
          consumed, held back until ``ready_at``;
        - ``("fail", error, outcome)``: fail the group — a negative-cache
          tombstone, the ladder's refusal or a spent retry budget.

        Ladder rungs and the lineage tier never feed the breaker — they
        do not exercise the primary path it protects.
        """
        root, deadline, snapshot_id = key
        snapshots, breaker, acct = self._snapshots, self.breaker, self._acct
        attempt = max(req.attempts for req in reqs)
        if snapshots.cache.negative((snapshot_id, root), count=len(reqs)):
            for req in reqs:
                if req.ctx is not None:
                    req.ctx.note_negative()
            exc = SolveTimeout("negative-cached: root recently timed out", root=root)
            return "fail", exc, "timeout"
        decision = breaker.acquire() if breaker is not None else "primary"
        snap = snapshots.versioner.get(snapshot_id)
        rung = ladder_rung(
            breaker, decision == "degraded",
            cached=False, num_vertices=snap.graph.num_vertices,
        )
        if rung is not None:
            open_classes = breaker.open_classes()
            for req in reqs:
                if req.ctx is not None:
                    req.ctx.note_degraded(rung, open_classes)
            if rung == "refused":
                return "fail", ServiceUnavailable(root, open_classes), "unavailable"
            res = snapshots.solver(snapshot_id).solve_degraded(root)
            return "degraded", res, None
        if decision == "primary" and deadline is None and snap.graph.undirected:
            found = snapshots.lineage(snap, root, self.verified)
            if found is not None:
                return "repair", found[0], found[1:]
        t0 = acct.clock()
        try:
            res, used = self.run(
                snapshots.solver(snapshot_id), snap.graph, root, deadline, attempt
            )
        except Exception as exc:
            failure_class = classify(exc)
            self._note(reqs, attempt, decision, failure_class)
            if breaker is not None:
                breaker.on_result(decision, failure_class)
            acct.solve_failed(failure_class)
            consumed, policy = attempt + 1, self._policy
            if (
                policy is not None
                and not self._admission.aborted
                and policy.allows(consumed)
            ):
                delay = policy.backoff(consumed)
                now = acct.clock()
                acct.count("retries", len(reqs))
                acct.span(
                    "retry", "resilience", now, 0.0, root=root, attempt=consumed,
                    failure_class=failure_class, backoff_s=delay,
                )
                return "retry", now + delay, consumed
            if failure_class == "timeout":
                snapshots.cache.note_timeout((snapshot_id, root))
            return "fail", exc, failure_class
        self._note(reqs, used, decision, "ok")
        if breaker is not None:
            breaker.on_result(decision, None)
        if acct.tracer is not None:
            acct.span(
                "solve", "solve", t0, acct.clock() - t0,
                root=root, attempt=used, batch_id=batch_id,
                request_ids=[req.ctx.request_id for req in reqs if req.ctx is not None],
            )
        return "solve", res, None

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
