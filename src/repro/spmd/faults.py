"""Deterministic fault injection and recovery for the SPMD engine.

The paper's target machine (32k Blue Gene/Q nodes) makes message loss,
stragglers and rank failures operational realities; this module lets the
reproduction *measure* what surviving them costs.  A :class:`FaultPlan`
describes — fully deterministically, from a seed — which faults hit which
supersteps: per-record **loss**, **duplication**, **delayed delivery** and
stream **reordering** at configurable rates, plus whole-rank **stall** and
**crash** events pinned to chosen supersteps.  :class:`FaultyMailbox`
applies the plan to the wire underneath the reliable transport of
:class:`~repro.spmd.mailbox.ReliableMailbox`.

Recovery is sound because min-apply relaxation is idempotent and monotone
(the SP_Async observation): re-delivered records are no-ops, lost records
are retransmitted, and a crashed rank restarted from an epoch checkpoint
can only *raise* its tentative distances — so the post-solve self-healing
sweep (extra Bellman-Ford iterations until the structural validator
accepts) always converges back to the exact fault-free distances.

A plan is run through the front door —
``solve_sssp(graph, root, algorithm=..., faults=plan)`` or
``BatchSolver.solve(root, faults=plan)`` — which runs the resolved preset
on the rank driver (:func:`repro.spmd.engine.run_ranks`): a plan needs a
wire to break.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.spmd.mailbox import ReliableMailbox
from repro.util.specs import parse_spec, split_event

__all__ = [
    "RankCrash",
    "RankStall",
    "FaultPlan",
    "FaultyMailbox",
]


@dataclass(frozen=True)
class RankCrash:
    """Rank ``rank`` fails at superstep ``superstep``: it loses all state
    since its last checkpoint, the records it posted that superstep are
    never sent, and records addressed to it bounce until it restarts (which
    happens immediately, from the checkpoint, via the engine's restore
    hook)."""

    rank: int
    superstep: int


@dataclass(frozen=True)
class RankStall:
    """Rank ``rank`` straggles at superstep ``superstep``: everything it
    sent that superstep is held on the wire for ``duration`` recovery
    rounds before arriving."""

    rank: int
    superstep: int
    duration: int = 2


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, deterministic schedule of injected faults + recovery knobs.

    Rates are per record and apply to supersteps in
    ``[first_superstep, last_superstep]`` (``None`` = unbounded); crash and
    stall events fire at their own supersteps regardless of that window.
    The same seed over the same run yields the identical fault schedule
    (recorded in :attr:`repro.runtime.metrics.RecoveryStats.events`).

    Recovery knobs: ``max_attempts``/``backoff_cap`` tune the reliable
    transport's capped exponential backoff, ``checkpoint_interval`` the
    epoch-checkpoint cadence, and ``max_healing_sweeps`` bounds the
    post-solve self-healing Bellman-Ford sweeps.
    """

    seed: int = 0
    loss_rate: float = 0.0
    dup_rate: float = 0.0
    reorder_rate: float = 0.0
    delay_rate: float = 0.0
    max_delay: int = 3
    first_superstep: int = 0
    last_superstep: int | None = None
    crashes: tuple[RankCrash, ...] = ()
    stalls: tuple[RankStall, ...] = ()
    faults_on_retry: bool = False
    """Whether retransmissions can be hit by the rate faults again."""
    max_attempts: int = 6
    backoff_cap: int = 4
    checkpoint_interval: int = 1
    max_healing_sweeps: int = 4

    def __post_init__(self) -> None:
        for name in ("loss_rate", "dup_rate", "reorder_rate", "delay_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.max_delay < 1:
            raise ValueError("max_delay must be >= 1")
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if self.max_healing_sweeps < 1:
            raise ValueError("max_healing_sweeps must be >= 1")
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "stalls", tuple(self.stalls))
        for crash in self.crashes:
            if crash.rank < 0 or crash.superstep < 0:
                raise ValueError(f"invalid crash spec {crash}")
        for stall in self.stalls:
            if stall.rank < 0 or stall.superstep < 0 or stall.duration < 1:
                raise ValueError(f"invalid stall spec {stall}")

    # ------------------------------------------------------------------
    @property
    def injects_anything(self) -> bool:
        """Whether this plan can inject any fault at all."""
        return bool(
            self.loss_rate
            or self.dup_rate
            or self.reorder_rate
            or self.delay_rate
            or self.crashes
            or self.stalls
        )

    def active_at(self, superstep: int) -> bool:
        """Whether the rate-based faults apply at this superstep."""
        if superstep < self.first_superstep:
            return False
        return self.last_superstep is None or superstep <= self.last_superstep

    def crashes_at(self, superstep: int) -> tuple[int, ...]:
        """Ranks crashing at this superstep."""
        return tuple(c.rank for c in self.crashes if c.superstep == superstep)

    def stalls_at(self, superstep: int) -> tuple[RankStall, ...]:
        """Stall events firing at this superstep."""
        return tuple(s for s in self.stalls if s.superstep == superstep)

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str, **overrides) -> "FaultPlan":
        """Parse a compact CLI spec like
        ``"loss=0.05,dup=0.02,seed=3,crash=1@4+0@9,stall=2@5x3"``.

        Keys: ``loss``, ``dup``, ``reorder``, ``delay`` (rates);
        ``max-delay``, ``seed``, ``first``, ``last``, ``attempts``,
        ``backoff``, ``ckpt`` (ints); ``retry-faults`` (0/1);
        ``crash=RANK@SUPERSTEP`` and ``stall=RANK@SUPERSTEP[xDURATION]``,
        multiple events joined with ``+``.
        """
        scalars = {
            "loss": ("loss_rate", float),
            "dup": ("dup_rate", float),
            "reorder": ("reorder_rate", float),
            "delay": ("delay_rate", float),
            "max-delay": ("max_delay", int),
            "seed": ("seed", int),
            "first": ("first_superstep", int),
            "last": ("last_superstep", int),
            "attempts": ("max_attempts", int),
            "backoff": ("backoff_cap", int),
            "ckpt": ("checkpoint_interval", int),
            "retry-faults": ("faults_on_retry", lambda v: bool(int(v))),
        }

        def crash(event: str) -> RankCrash:
            rank, _, step = event.partition("@")
            return RankCrash(int(rank), int(step))

        def stall(event: str) -> RankStall:
            rank, step, duration = split_event(event)
            return RankStall(int(rank), int(step), int(duration or 2))

        events = {"crash": ("crashes", crash), "stall": ("stalls", stall)}
        return cls(**parse_spec(spec, "fault", scalars, events, overrides))


class FaultyMailbox(ReliableMailbox):
    """Reliable mailbox whose wire is perturbed by a :class:`FaultPlan`.

    Deterministic events (crashes, stalls) fire at their configured
    supersteps; rate-based faults (loss, duplication, delay, reordering)
    draw from one seeded generator, so the whole fault schedule — logged in
    ``metrics.recovery.events`` — is a pure function of the plan and the
    run.  The reliable-transport layer above repairs everything except
    crash-induced state loss, which the engine repairs via checkpoints and
    the self-healing sweep.
    """

    def __init__(
        self, num_ranks: int, comm, plan: FaultPlan
    ) -> None:
        super().__init__(
            num_ranks,
            comm,
            max_attempts=plan.max_attempts,
            backoff_cap=plan.backoff_cap,
        )
        self.plan = plan
        self._rng = np.random.default_rng(plan.seed)
        self._held: dict[int, list[np.ndarray]] = {}

    # ------------------------------------------------------------------
    def _hold(self, round_: int, gids: np.ndarray) -> None:
        self._held.setdefault(round_, []).append(gids)

    def _wire_pending(self) -> bool:
        return bool(self._held)

    def _release(self, round_: int) -> np.ndarray:
        parts = self._held.pop(round_, None)
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    def _ranks_crashing(self, superstep: int) -> tuple[int, ...]:
        return self.plan.crashes_at(superstep)

    def _pre_send_mask(
        self, superstep: int, src_ranks: np.ndarray
    ) -> np.ndarray | None:
        crashed = self.plan.crashes_at(superstep)
        if not crashed or src_ranks.size == 0:
            return None
        mask = ~np.isin(src_ranks, np.asarray(crashed, dtype=np.int64))
        lost = int(src_ranks.size - mask.sum())
        if lost:
            self.comm.metrics.recovery.note_fault(
                superstep, 0, "crash-send-loss", lost
            )
        return mask

    def _transmit(
        self,
        superstep: int,
        round_: int,
        gids: np.ndarray,
        protect: np.ndarray | None = None,
    ) -> np.ndarray:
        if gids.size == 0:
            return gids
        plan = self.plan
        rec = self.comm.metrics.recovery
        guaranteed = None
        if protect is not None and protect.any():
            guaranteed = gids[protect]
            gids = gids[~protect]
        delivered = gids

        # Deterministic events (independent of the rate window).
        if round_ == 0 and delivered.size:
            down = plan.crashes_at(superstep)
            if down:
                # The crashed rank was not up to receive the exchange; its
                # records bounce and are retransmitted once it restarts.
                drop = np.isin(
                    self._fl_dst[delivered], np.asarray(down, dtype=np.int64)
                )
                if drop.any():
                    rec.note_fault(
                        superstep, round_, "crash-recv-loss", int(drop.sum())
                    )
                    delivered = delivered[~drop]
            for stall in plan.stalls_at(superstep):
                held = self._fl_src[delivered] == stall.rank
                if held.any():
                    rec.note_fault(superstep, round_, "stall", int(held.sum()))
                    self._hold(round_ + stall.duration, delivered[held])
                    delivered = delivered[~held]

        # Rate-based faults within the plan's superstep window.
        faultable = plan.active_at(superstep) and (
            round_ == 0 or plan.faults_on_retry
        )
        if faultable and delivered.size:
            rng = self._rng
            if plan.loss_rate:
                lost = rng.random(delivered.size) < plan.loss_rate
                if lost.any():
                    rec.note_fault(superstep, round_, "loss", int(lost.sum()))
                    delivered = delivered[~lost]
            if plan.delay_rate and delivered.size:
                delayed = rng.random(delivered.size) < plan.delay_rate
                if delayed.any():
                    count = int(delayed.sum())
                    rec.note_fault(superstep, round_, "delay", count)
                    due = round_ + rng.integers(
                        1, plan.max_delay + 1, size=count
                    )
                    victims = delivered[delayed]
                    for offset in np.unique(due):
                        self._hold(int(offset), victims[due == offset])
                    delivered = delivered[~delayed]
            if plan.dup_rate and delivered.size:
                dup = rng.random(delivered.size) < plan.dup_rate
                if dup.any():
                    rec.note_fault(
                        superstep, round_, "duplicate", int(dup.sum())
                    )
                    delivered = np.concatenate([delivered, delivered[dup]])
            if (
                plan.reorder_rate
                and delivered.size > 1
                and rng.random() < plan.reorder_rate
            ):
                rec.note_fault(superstep, round_, "reorder", delivered.size)
                delivered = rng.permutation(delivered)

        if guaranteed is not None:
            delivered = (
                np.concatenate([guaranteed, delivered])
                if delivered.size
                else guaranteed
            )
        return delivered

