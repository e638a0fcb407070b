"""Solve deadlines and livelock detection (DESIGN.md §8).

The reliable mailbox (:class:`~repro.spmd.faults.FaultyMailbox`) bounds a
long recovery only by the blunt ``MAX_RECOVERY_ROUNDS`` cap, and an
adversarial fault plan (e.g. a rank stalled for more rounds than that
cap) either spins to that cap and dies with a bare ``RuntimeError`` or
makes no forward progress at all.
This module gives every solve a *superstep-granular* budget and a
progress watchdog:

- The **budget** (``max_supersteps``) counts every global synchronisation:
  engine epochs plus every reliable-mailbox recovery round. Retry storms
  burn budget even though the epoch counter stands still, so they hit the
  deadline instead of spinning.
- The **stall detector** (``stall_patience``) watches a progress signature
  — total settled vertices and cumulative relaxations — and trips when
  *k* consecutive supersteps pass without it advancing.

When either trips, the watchdog raises :class:`DeadlineExceeded`, an
internal control-flow exception the engine catches and resolves by
policy:

``raise``
    Write a final durable checkpoint and raise :class:`SolveTimeout`, a
    structured error carrying the partial distances, progress counters and
    the resumable checkpoint path.
``degrade``
    Collapse all remaining buckets into one Bellman-Ford fixpoint pass —
    the paper's own hybridization machinery — which is sound because
    tentative distances are always lengths of real paths. The solve then
    finishes with *correct* distances, slower but bounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.ints import check_count

__all__ = [
    "DeadlineConfig",
    "DeadlineExceeded",
    "SolveTimeout",
    "Watchdog",
    "POLICIES",
]

POLICIES = ("raise", "degrade")


class DeadlineExceeded(RuntimeError):
    """Internal signal: the watchdog tripped. Engines catch this and apply
    the configured policy; it never escapes to callers."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class SolveTimeout(RuntimeError):
    """A solve exceeded its deadline under the ``raise`` policy.

    Carries everything the caller needs to triage or continue: the
    tripping ``reason``, the ``distances`` array as of the last completed
    superstep (valid upper bounds — every finite entry is a real path
    length), progress counters, and ``checkpoint_path`` pointing at a
    durable checkpoint the solve can be resumed from (None when no
    checkpoint directory was configured).
    """

    def __init__(
        self,
        reason: str,
        *,
        distances: np.ndarray | None = None,
        epochs_completed: int = 0,
        supersteps: int = 0,
        checkpoint_path=None,
        root: int | None = None,
    ) -> None:
        detail = f"solve deadline exceeded: {reason} " \
                 f"(epochs={epochs_completed}, supersteps={supersteps})"
        if checkpoint_path is not None:
            detail += f"; resumable checkpoint at {checkpoint_path}"
        super().__init__(detail)
        self.reason = reason
        self.distances = distances
        self.epochs_completed = epochs_completed
        self.supersteps = supersteps
        self.checkpoint_path = checkpoint_path
        #: the solve's source vertex when known — the serving layer
        #: (:mod:`repro.serve`) sets it so a timeout stays attributable to
        #: its request after leaving the engine.
        self.root = root


@dataclass(frozen=True)
class DeadlineConfig:
    """Deadline/watchdog knobs for one solve.

    ``max_supersteps`` bounds the total superstep count (epochs + mailbox
    recovery rounds); ``stall_patience`` bounds consecutive supersteps
    without settled/relaxation progress. Either may be None (unbounded).
    ``policy`` picks what happens on a trip.
    """

    max_supersteps: int | None = None
    stall_patience: int | None = None
    policy: str = "raise"

    def __post_init__(self) -> None:
        for name in ("max_supersteps", "stall_patience"):
            if getattr(self, name) is not None:
                check_count(name, getattr(self, name))
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown deadline policy {self.policy!r}; "
                f"choose from {POLICIES}"
            )

    @property
    def enabled(self) -> bool:
        return self.max_supersteps is not None or self.stall_patience is not None

    @classmethod
    def degraded(cls, max_supersteps: int = 8) -> "DeadlineConfig":
        """The bounded-exact fallback shape: after ``max_supersteps`` the
        engine collapses the remaining buckets into one Bellman-Ford
        fixpoint pass and finishes with *correct* distances. Used by the
        serving layer's circuit-breaker degradation path."""
        return cls(max_supersteps=max_supersteps, policy="degrade")


class Watchdog:
    """Tracks supersteps and progress for one solve.

    The engine calls :meth:`note_epoch` once per epoch with the current
    progress signature; the reliable mailbox calls
    :meth:`note_recovery_round` once per retransmission round. Both raise
    :class:`DeadlineExceeded` the moment a bound is crossed, so even a
    solve livelocked *inside* a single delivery (a retry storm) is
    interrupted without waiting for the epoch to finish.
    """

    def __init__(self, config: DeadlineConfig) -> None:
        self.config = config
        self.supersteps = 0
        self.epochs = 0
        self.stalled_for = 0
        self._last_progress: tuple[int, int] | None = None

    # ------------------------------------------------------------------
    def _check_budget(self) -> None:
        limit = self.config.max_supersteps
        if limit is not None and self.supersteps > limit:
            raise DeadlineExceeded(
                f"superstep budget exhausted ({self.supersteps} > {limit})"
            )

    def _check_stall(self) -> None:
        patience = self.config.stall_patience
        if patience is not None and self.stalled_for >= patience:
            raise DeadlineExceeded(
                f"no progress for {self.stalled_for} consecutive supersteps "
                f"(stall patience {patience})"
            )

    # ------------------------------------------------------------------
    def note_epoch(self, *, settled_total: int, relaxations: int) -> None:
        """One engine epoch completed; check progress and budget."""
        self.epochs += 1
        self.supersteps += 1
        signature = (int(settled_total), int(relaxations))
        if self._last_progress is not None and signature == self._last_progress:
            self.stalled_for += 1
        else:
            self.stalled_for = 0
        self._last_progress = signature
        self._check_budget()
        self._check_stall()

    def note_recovery_round(self) -> None:
        """One mailbox recovery round completed inside a delivery.

        Recovery rounds never settle vertices, so they always count as
        stalled supersteps — a retry storm trips either bound.
        """
        self.supersteps += 1
        self.stalled_for += 1
        self._check_budget()
        self._check_stall()
