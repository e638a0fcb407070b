"""Deterministic chaos injection for the serving plane (DESIGN.md §12).

The serving resilience layer needs *replayable* failure scenarios, just
as PR 1's :class:`~repro.spmd.faults.FaultPlan` gave the SPMD engine.
:class:`ChaosPlan` describes — fully deterministically, from a seed —
which solve attempts are hit by which per-root faults: raised
**errors**, injected **stalls** past the deadline (surfacing as
:class:`~repro.runtime.watchdog.SolveTimeout`), **corrupted** distance
arrays, and **slow** solves (real sleep, for straggler/hedging tests).
:class:`ChaosSolver` applies the plan to the solve of the
:class:`~repro.core.solver.BatchSolver` each attempt hands it.

Determinism does not rely on call order: each draw is a pure function of
``(seed, root, attempt)`` via its own ``np.random.default_rng`` stream,
so interleaving across worker threads, coalescing, or retries cannot
shift which attempts fault. The journey harness replays a plan twice and
asserts identical fault logs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.distances import INF
from repro.runtime.watchdog import SolveTimeout
from repro.util.specs import parse_spec, split_event

__all__ = ["ChaosEvent", "ChaosPlan", "ChaosSolver", "InjectedFault", "KINDS"]

#: Fault kinds, in draw-priority order for the rate thresholds.
KINDS = ("error", "stall", "corrupt", "slow")


class InjectedFault(RuntimeError):
    """A chaos-plan ``error`` fault: the wrapped solve raised (as a real
    engine bug or dependency failure would). Carries the root and attempt
    so tests can pin expectations to the plan."""

    def __init__(self, root: int, attempt: int) -> None:
        super().__init__(
            f"chaos: injected solve error (root {root}, attempt {attempt})"
        )
        self.root = root
        self.attempt = attempt


@dataclass(frozen=True)
class ChaosEvent:
    """One pinned fault: ``kind`` hits ``root`` at solve attempt
    ``attempt`` (0-based), regardless of the rates."""

    root: int
    attempt: int
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown chaos kind {self.kind!r}; choose from {KINDS}"
            )
        if self.root < 0 or self.attempt < 0:
            raise ValueError(f"invalid chaos event {self}")


@dataclass(frozen=True)
class ChaosPlan:
    """Seeded, deterministic schedule of per-root solve faults.

    Rates are per solve *attempt* and mutually exclusive (their sum must
    be <= 1): one uniform draw per ``(seed, root, attempt)`` lands in the
    ``error`` / ``stall`` / ``corrupt`` / ``slow`` band or none.
    ``events`` pins faults to exact (root, attempt) pairs on top of the
    rates; ``roots`` (when non-empty) restricts rate faults to those
    roots; ``max_faulty_attempts`` makes every attempt from that index on
    clean — the standard shape for retry tests ("fails twice, then
    succeeds").
    """

    seed: int = 0
    error_rate: float = 0.0
    slow_rate: float = 0.0
    stall_rate: float = 0.0
    corrupt_rate: float = 0.0
    slow_s: float = 0.002
    corrupt_cells: int = 4
    max_faulty_attempts: int | None = None
    roots: tuple[int, ...] = ()
    events: tuple[ChaosEvent, ...] = ()

    def __post_init__(self) -> None:
        total = 0.0
        for name in ("error_rate", "slow_rate", "stall_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
            total += rate
        if total > 1.0 + 1e-9:
            raise ValueError(
                f"fault rates must sum to <= 1 (got {total:.3f}); "
                "they are mutually exclusive bands of one draw"
            )
        if self.slow_s < 0:
            raise ValueError("slow_s must be >= 0")
        if self.corrupt_cells < 1:
            raise ValueError("corrupt_cells must be >= 1")
        if self.max_faulty_attempts is not None and self.max_faulty_attempts < 0:
            raise ValueError("max_faulty_attempts must be >= 0")
        object.__setattr__(self, "roots", tuple(int(r) for r in self.roots))
        object.__setattr__(self, "events", tuple(self.events))

    # ------------------------------------------------------------------
    @property
    def injects_anything(self) -> bool:
        """Whether this plan can inject any fault at all."""
        return bool(
            self.error_rate
            or self.slow_rate
            or self.stall_rate
            or self.corrupt_rate
            or self.events
        )

    def draw(self, root: int, attempt: int) -> str | None:
        """The fault kind hitting this (root, attempt), or None.

        Pure function of ``(seed, root, attempt)`` — independent of call
        order, thread interleaving and every other draw.
        """
        root = int(root)
        attempt = int(attempt)
        for event in self.events:
            if event.root == root and event.attempt == attempt:
                return event.kind
        if (
            self.max_faulty_attempts is not None
            and attempt >= self.max_faulty_attempts
        ):
            return None
        if self.roots and root not in self.roots:
            return None
        u = float(np.random.default_rng((self.seed, root, attempt)).random())
        threshold = 0.0
        for kind in KINDS:
            threshold += getattr(self, f"{kind}_rate")
            if u < threshold:
                return kind
        return None

    def corrupt_distances(
        self, distances: np.ndarray, root: int, attempt: int
    ) -> np.ndarray:
        """A deterministically corrupted copy of ``distances``.

        Raises up to ``corrupt_cells`` finite non-root entries — always
        detectable by the structural validator, since raising a settled
        distance breaks feasibility on its formerly tight in-edge. When
        only the root is reachable, the root itself is corrupted
        (breaking the root rule) so a "corrupt" draw never yields a
        clean array.
        """
        out = np.array(distances, copy=True)
        rng = np.random.default_rng((self.seed + 0x9E3779B9, int(root), int(attempt)))
        candidates = np.flatnonzero((out < INF))
        candidates = candidates[candidates != int(root)]
        if candidates.size == 0:
            out[int(root)] = 1  # root rule violation: d[root] != 0
            return out
        count = min(self.corrupt_cells, candidates.size)
        victims = rng.choice(candidates, size=count, replace=False)
        out[victims] += rng.integers(1, 5, size=count).astype(out.dtype) + 1
        return out

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str, **overrides) -> "ChaosPlan":
        """Parse a compact CLI spec like
        ``"error=0.1,stall=0.05,corrupt=0.1,slow=0.2,slow-ms=5,seed=3,``
        ``clean-after=2,inject=error@7x0+corrupt@3x1,roots=1+2+3"``.

        Keys: ``error``, ``stall``, ``corrupt``, ``slow`` (rates);
        ``slow-ms`` (float, milliseconds), ``seed``, ``cells``,
        ``clean-after`` (ints); ``roots=R+R+...``;
        ``inject=KIND@ROOT[xATTEMPT]`` pinned events joined with ``+``
        (attempt defaults to 0).
        """
        scalars = {
            "error": ("error_rate", float),
            "stall": ("stall_rate", float),
            "corrupt": ("corrupt_rate", float),
            "slow": ("slow_rate", float),
            "slow-ms": ("slow_s", lambda v: float(v) / 1000.0),
            "seed": ("seed", int),
            "cells": ("corrupt_cells", int),
            "clean-after": ("max_faulty_attempts", int),
        }

        def inject(event: str) -> ChaosEvent:
            kind, root, attempt = split_event(event)
            return ChaosEvent(int(root), int(attempt or 0), kind)

        events = {"inject": ("events", inject), "roots": ("roots", int)}
        return cls(**parse_spec(spec, "chaos", scalars, events, overrides))


class ChaosSolver:
    """One chaos draw stream and one fault log over every solver a
    service runs, perturbing solves by a :class:`ChaosPlan`.

    The serving plane's :class:`~repro.serve.attempt.AttemptRunner`
    passes each request's attempt number, so retries advance the draw
    stream, and the pinned snapshot's solver. Every injected fault is
    appended to :attr:`log` as ``(root, attempt, kind)`` — replaying the
    same plan over the same requests yields the identical log.
    """

    def __init__(self, plan: ChaosPlan, *, registry=None) -> None:
        self.plan = plan
        self._registry = registry
        #: chronological ``(root, attempt, kind)`` fault records.
        self.log: list[tuple[int, int, str]] = []

    def _note(self, root: int, attempt: int, kind: str) -> None:
        self.log.append((root, attempt, kind))
        if self._registry is not None:
            self._registry.inc(
                "serve_chaos_injected_total",
                help="chaos faults injected into solve attempts",
                kind=kind,
            )

    def solve(self, root: int, *, deadline, attempt: int, solver):
        """``solver.solve(root, deadline=deadline)`` under the plan's draw
        for (``root``, ``attempt``)."""
        root = int(root)
        kind = self.plan.draw(root, attempt)
        if kind == "error":
            self._note(root, attempt, kind)
            raise InjectedFault(root, attempt)
        if kind == "stall":
            self._note(root, attempt, kind)
            raise SolveTimeout(
                "chaos: injected stall past deadline", root=root
            )
        if kind == "slow":
            self._note(root, attempt, kind)
            if self.plan.slow_s:
                time.sleep(self.plan.slow_s)
        res = solver.solve(root, deadline=deadline)
        if kind == "corrupt":
            self._note(root, attempt, kind)
            res.distances = self.plan.corrupt_distances(
                res.distances, root, attempt
            )
        return res

    def summary(self) -> dict[str, int]:
        """Injected-fault counts by kind (for reports and dashboards)."""
        counts: dict[str, int] = {}
        for _root, _attempt, kind in self.log:
            counts[kind] = counts.get(kind, 0) + 1
        return counts
