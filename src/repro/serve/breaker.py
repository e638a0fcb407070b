"""Per-failure-class circuit breaker for the serving plane (DESIGN.md §12).

When solves keep failing the same way — raising, timing out, or producing
corrupted output — continuing to throw full solve attempts at the engine
wastes the latency budget of every queued request behind them. The
breaker watches *consecutive* failures per failure class
(:data:`~repro.serve.retry.FAILURE_CLASSES`) and trips that class
**open** at a threshold. While any class is open the broker switches to
its degradation ladder: serve cache hits flagged ``stale_ok``, fall back
to the PR 2 bounded-exact Bellman-Ford path for small graphs, or shed
with a typed :class:`~repro.serve.request.ServiceUnavailable`.

After ``recovery_time_s`` an open class becomes **half-open**: one probe
request is let through on the primary path, and its outcome decides —
success closes every half-open class, failure re-opens them all (one
probe verdict covers the shared engine underneath).

Determinism: the clock is injectable (``clock=``), so the journey
harness drives transitions with a fake clock and replays them exactly;
every transition is recorded in :attr:`CircuitBreaker.transitions` as
``(t, class, from_state, to_state)``. That list and the per-class states
are the breaker's only store: a registry it is given gets one collector,
which publishes the transitions since the last read and every class's
state gauge on each registry read.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from .retry import FAILURE_CLASSES

__all__ = ["BreakerConfig", "CircuitBreaker", "STATES", "ladder_rung"]

STATES = ("closed", "open", "half_open")
_STATE_CODE = {"closed": 0, "open": 1, "half_open": 2}


@dataclass(frozen=True)
class BreakerConfig:
    """Breaker thresholds and the degradation-ladder bound.

    ``failure_threshold`` consecutive failures of one class (every class
    of :data:`~repro.serve.retry.FAILURE_CLASSES` is tracked) open it;
    ``recovery_time_s`` later it turns half-open and admits one probe
    solve. The ladder's bounded-exact fallback is only offered on graphs
    up to ``degrade_max_vertices`` vertices, running
    :meth:`~repro.core.solver.BatchSolver.solve_degraded` (8 supersteps
    before the Bellman-Ford collapse).
    """

    failure_threshold: int = 3
    recovery_time_s: float = 0.25
    degrade_max_vertices: int = 1 << 17

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.recovery_time_s < 0:
            raise ValueError("recovery_time_s must be >= 0")
        if self.degrade_max_vertices < 0:
            raise ValueError("degrade_max_vertices must be >= 0")


def ladder_rung(
    breaker, degraded: bool, *, cached: bool, num_vertices: int = 0
) -> str | None:
    """The degradation-ladder rung that answers one request, or None.

    ``degraded`` is the caller's reading of ``breaker`` for this request:
    :attr:`CircuitBreaker.degraded` ahead of a cache read,
    ``acquire() == "degraded"`` ahead of a solve (a half-open probe is a
    primary-path solve, not a ladder rung). From the top: a cached answer
    is served flagged ``stale_cache``; a graph of at most
    ``degrade_max_vertices`` vertices is solved ``bounded_exact`` (the
    Bellman-Ford fallback); anything else is ``refused`` with a typed
    :class:`~repro.serve.request.ServiceUnavailable`.
    """
    if not degraded:
        return None
    if cached:
        return "stale_cache"
    if num_vertices <= breaker.config.degrade_max_vertices:
        return "bounded_exact"
    return "refused"


class _ClassState:
    __slots__ = ("state", "consecutive_failures", "opened_at", "probing")

    def __init__(self) -> None:
        self.state = "closed"
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.probing = False  # half-open with its one probe out


class CircuitBreaker:
    """Thread-safe per-class state machine with an injectable clock.

    The broker calls :meth:`acquire` before each solve attempt — the
    decision (``"primary"``, ``"probe"`` or ``"degraded"``) says which
    path the attempt takes — and :meth:`on_result` after, with the
    failure class on failure. Open→half-open happens lazily on the next
    read once ``recovery_time_s`` has elapsed, so no background timer is
    needed and transitions are a pure function of (clock, call sequence).
    """

    def __init__(
        self,
        config: BreakerConfig | None = None,
        *,
        clock=time.monotonic,
        registry=None,
    ) -> None:
        self.config = config or BreakerConfig()
        self._clock = clock
        self._lock = threading.Lock()
        self._classes = {cls: _ClassState() for cls in FAILURE_CLASSES}
        #: Lock-free steady-state flag: True iff every class is closed.
        #: Maintained by :meth:`_transition`; read without the lock on the
        #: per-request and per-solve hot paths (:attr:`degraded`,
        #: :meth:`acquire`), where a stale read is benign — the next locked
        #: call observes the transition.
        self._all_closed = True
        #: chronological ``(t, class, from_state, to_state)`` records —
        #: the journey harness asserts these are identical across replays.
        self.transitions: list[tuple[float, str, str, str]] = []
        self._published = 0  # transitions the registry has seen
        if registry is not None:
            registry.add_collector(self._collect)

    # ------------------------------------------------------------------
    def _collect(self, registry) -> None:
        """Collector (registry lock held, then the breaker's): publish the
        transitions since the last read and each class's state gauge."""
        with self._lock:
            fresh = self.transitions[self._published:]
            self._published += len(fresh)
            states = [(cls, s.state) for cls, s in self._classes.items()]
        for cls, state in states:
            registry.set_gauge(
                "serve_breaker_state", _STATE_CODE[state],
                help="circuit-breaker state per failure class "
                     "(0=closed, 1=open, 2=half_open)",
                **{"class": cls},
            )
        for _, cls, _, to in fresh:
            registry.inc(
                "serve_breaker_transitions_total",
                help="circuit-breaker state transitions",
                **{"class": cls, "to": to},
            )

    def _transition(self, cls: str, state: _ClassState, to: str) -> None:
        now = self._clock()
        self.transitions.append((now, cls, state.state, to))
        state.state = to
        state.probing = False
        if to == "open":
            state.opened_at = now
        elif to == "closed":
            state.consecutive_failures = 0
        self._all_closed = all(
            s.state == "closed" for s in self._classes.values()
        )

    def _refresh(self) -> None:
        """Lazily promote open classes to half-open once recovery elapses."""
        now = self._clock()
        for cls, state in self._classes.items():
            if (
                state.state == "open"
                and now - state.opened_at >= self.config.recovery_time_s
            ):
                self._transition(cls, state, "half_open")

    # ------------------------------------------------------------------
    def acquire(self) -> str:
        """Decide the path of the next solve attempt.

        ``"primary"`` — all classes closed, normal solve. ``"probe"`` —
        some class is half-open and its one probe was reserved; the
        attempt's outcome feeds the half-open verdict. ``"degraded"`` —
        some class is open (or half-open with its probe out); the broker
        must use the degradation ladder.
        """
        if self._all_closed:
            return "primary"  # lock-free, as :attr:`degraded` is
        with self._lock:
            self._refresh()
            if all(s.state == "closed" for s in self._classes.values()):
                return "primary"
            half_open = [
                s for s in self._classes.values() if s.state == "half_open"
            ]
            if half_open and all(s.state != "open" for s in self._classes.values()):
                if not any(s.probing for s in half_open):
                    for s in half_open:
                        s.probing = True
                    return "probe"
            return "degraded"

    def on_result(self, decision: str, failure_class: str | None = None) -> None:
        """Record the outcome of an attempt admitted under ``decision``.

        ``failure_class=None`` means success. Probe success closes every
        half-open class; probe failure re-opens them all. Primary
        failures bump the class's consecutive counter and open it at the
        threshold; primary success resets all counters.
        """
        if decision == "degraded":
            return  # ladder outcomes never feed the state machine
        if decision == "primary" and failure_class is None and not any(
            s.consecutive_failures for s in self._classes.values()
        ):
            return  # a success with no failure streak to reset: lock-free
        with self._lock:
            if decision == "probe":
                half_open = [
                    (cls, s)
                    for cls, s in self._classes.items()
                    if s.state == "half_open"
                ]
                if failure_class is None:
                    for cls, s in half_open:
                        self._transition(cls, s, "closed")
                else:
                    for cls, s in half_open:
                        self._transition(cls, s, "open")
                    self._classes[failure_class].consecutive_failures += 1
                return
            # primary path
            if failure_class is None:
                for s in self._classes.values():
                    s.consecutive_failures = 0
                return
            state = self._classes[failure_class]
            state.consecutive_failures += 1
            if (
                state.state == "closed"
                and state.consecutive_failures >= self.config.failure_threshold
            ):
                self._transition(failure_class, state, "open")

    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True when any class is not closed (the ladder is in effect)."""
        if self._all_closed:
            # all-closed is the steady state and nothing needs refreshing
            # (only open classes are ever lazily promoted), so skip the
            # lock on the per-request hot path
            return False
        with self._lock:
            self._refresh()
            return any(s.state != "closed" for s in self._classes.values())

    def state_of(self, failure_class: str) -> str:
        with self._lock:
            self._refresh()
            return self._classes[failure_class].state

    def states(self) -> dict[str, str]:
        """Per-class state map (one consistent cut)."""
        with self._lock:
            self._refresh()
            return {cls: s.state for cls, s in self._classes.items()}

    def open_classes(self) -> tuple[str, ...]:
        with self._lock:
            self._refresh()
            return tuple(
                cls
                for cls, s in self._classes.items()
                if s.state != "closed"
            )
