"""Deterministic fault injection and recovery for the SPMD engine.

The paper's target machine (32k Blue Gene/Q nodes) makes message loss,
stragglers and rank failures operational realities; this module lets the
reproduction *measure* what surviving them costs.  A :class:`FaultPlan`
describes — fully deterministically, from a seed — which faults hit which
supersteps: per-record **loss**, **duplication**, **delayed delivery** and
stream **reordering** at configurable rates, plus whole-rank **stall** and
**crash** events pinned to chosen supersteps.  :class:`FaultyMailbox` is
the reliable transport: a sequence/ack/resend protocol over the wire the
plan breaks — an empty ``FaultPlan()`` is the perfect wire.

Recovery is sound because min-apply relaxation is idempotent and monotone
(the SP_Async observation): re-delivered records are no-ops, lost records
are resent once, and a crashed rank restarted from an epoch snapshot
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
from typing import Callable

import numpy as np

from repro.runtime.comm import RECOVERY_PHASE, Communicator
from repro.spmd.mailbox import Mailbox, _no_records, _stable_order, _stream
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
    happens immediately, from the last snapshot, via the mailbox's
    ``on_restart`` hook)."""

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
    """Seeded, deterministic schedule of injected faults.

    Rates are per record and apply to every superstep's first attempt; a
    delayed record is held for 1 to :data:`MAX_DELAY` recovery rounds.
    Crash and stall events fire at their own supersteps. The same seed over
    the same run yields the identical fault schedule (recorded in
    :attr:`repro.runtime.metrics.RecoveryStats.events`). Recovery has no
    knob: a missing record is resent once, crash snapshots are taken
    before every epoch, and the healing sweeps are bounded by
    :data:`repro.core.defence.MAX_HEALING_SWEEPS`.
    """

    seed: int = 0
    loss_rate: float = 0.0
    dup_rate: float = 0.0
    reorder_rate: float = 0.0
    delay_rate: float = 0.0
    crashes: tuple[RankCrash, ...] = ()
    stalls: tuple[RankStall, ...] = ()

    def __post_init__(self) -> None:
        for name in ("loss_rate", "dup_rate", "reorder_rate", "delay_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
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

        Keys: ``loss``, ``dup``, ``reorder``, ``delay`` (rates); ``seed``;
        ``crash=RANK@SUPERSTEP`` and ``stall=RANK@SUPERSTEP[xDURATION]``,
        multiple events joined with ``+``.
        """
        scalars = {
            "loss": ("loss_rate", float),
            "dup": ("dup_rate", float),
            "reorder": ("reorder_rate", float),
            "delay": ("delay_rate", float),
            "seed": ("seed", int),
        }

        def crash(event: str) -> RankCrash:
            rank, _, step = event.partition("@")
            return RankCrash(int(rank), int(step))

        def stall(event: str) -> RankStall:
            rank, step, duration = split_event(event)
            return RankStall(int(rank), int(step), int(duration or 2))

        events = {"crash": ("crashes", crash), "stall": ("stalls", stall)}
        return cls(**parse_spec(spec, "fault", scalars, events, overrides))


MAX_DELAY = 3
"""Recovery rounds a delayed record may be held on the wire (at least one)."""

MAX_RECOVERY_ROUNDS = 10_000
"""Ack rounds one superstep may take before the protocol gives up."""


class FaultyMailbox(Mailbox):
    """Mailbox with a sequence/ack/resend reliable-transport layer over a
    wire perturbed by a :class:`FaultPlan`.

    Every superstep close orders the record stream by (sender, batch,
    destination rank) (:meth:`_wire_stream`); a record's index in that
    stream is its global id, and its rank within its ``(src_rank,
    dst_rank)`` channel is its sequence number.  The protocol then runs:

    1. **First attempt** — the whole stream is handed to the wire
       (:meth:`_transmit`) and charged exactly like a plain
       :class:`~repro.spmd.mailbox.Mailbox` exchange, under the
       algorithm's own phase kind. It is the only attempt the plan faults.
    2. **Ack rounds** — while any record is unacknowledged or still held
       on the wire (delayed or stalled), an extra *recovery superstep*
       runs: one small allreduce models the ack exchange and the copies
       held for that round are released. Round 1 resends every record
       still missing in one batch, and a resend always arrives, so later
       rounds only drain held copies.
    3. **Dedup** — receivers drop any sequence number they have already
       absorbed, so duplicated or held-then-resent records are exact
       no-ops.

    Resends and ack rounds are charged under the ``recovery`` phase kind
    (see :meth:`repro.runtime.comm.Communicator.retransmit`); on the
    perfect wire of an empty ``FaultPlan()`` no recovery round ever runs
    and the class is bit-identical to :class:`~repro.spmd.mailbox.Mailbox`
    in both results and accounting.

    The wire: deterministic events (crashes, stalls) fire at their
    configured supersteps; rate-based faults (loss, duplication, delay,
    reordering) draw from one seeded generator, so the whole fault
    schedule — logged in ``metrics.recovery.events`` — is a pure function
    of the plan and the run.  The protocol repairs everything except
    crash-induced state loss, which the solve's
    :class:`~repro.core.defence.Defence` repairs from its epoch snapshot
    and the self-healing sweep: ``on_restart`` is its crash hook, invoked
    with the rank id when the plan crashes a rank at the current
    superstep, *before* any record of the superstep is handed out, so the
    rank is rolled back first. A plan naming a rank the machine does not
    have is rejected here.
    """

    def __init__(self, num_ranks: int, comm: Communicator, plan: FaultPlan) -> None:
        # The plan is machine-agnostic; rank references only resolve here.
        for event in (*plan.crashes, *plan.stalls):
            if event.rank >= num_ranks:
                raise ValueError(
                    f"fault plan references rank {event.rank} but the machine "
                    f"has only {num_ranks} ranks"
                )
        super().__init__(num_ranks, comm)
        self.plan = plan
        self.on_restart: Callable[[int], None] | None = None
        self.watchdog = None
        """Optional :class:`~repro.runtime.watchdog.Watchdog`; every
        recovery round is reported to it so long stalls burn deadline
        budget even though the epoch counter stands still."""
        self._superstep = 0
        self._rng = np.random.default_rng(plan.seed)

    @property
    def superstep(self) -> int:
        """Supersteps delivered so far (persisted in durable checkpoints)."""
        return self._superstep

    def fast_forward(self, superstep: int) -> None:
        """Advance the superstep counter to resume a checkpointed solve.

        Fault-plan events are pinned to absolute superstep numbers; without
        the fast-forward a resumed run would replay them from zero and fire
        already-survived faults twice."""
        if superstep < 0:
            raise ValueError("superstep must be >= 0")
        self._superstep = max(self._superstep, superstep)

    # ------------------------------------------------------------------
    # The wire
    # ------------------------------------------------------------------
    def _pre_send_mask(
        self, superstep: int, src_ranks: np.ndarray
    ) -> np.ndarray | None:
        """Records that actually make it onto the wire (None = all): a
        crashed sender loses the records it had not sent yet."""
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
        src: np.ndarray,
        dst: np.ndarray,
        held: dict[int, list[np.ndarray]],
    ) -> np.ndarray:
        """Push the first attempt of the ``(src, dst)`` stream through the
        wire; returns the record ids arriving now. Ids the wire holds go
        into ``held`` under the recovery round that releases them."""
        delivered = np.arange(src.size, dtype=np.int64)
        if delivered.size == 0:
            return delivered
        plan, rng = self.plan, self._rng
        rec = self.comm.metrics.recovery

        def hold(round_: int, gids: np.ndarray) -> None:
            held.setdefault(round_, []).append(gids)

        down = plan.crashes_at(superstep)
        if down:
            # The crashed rank was not up to receive the exchange; its
            # records bounce and are resent once it restarts.
            drop = np.isin(dst[delivered], np.asarray(down, dtype=np.int64))
            if drop.any():
                rec.note_fault(superstep, 0, "crash-recv-loss", int(drop.sum()))
                delivered = delivered[~drop]
        for stall in plan.stalls_at(superstep):
            stalled = src[delivered] == stall.rank
            if stalled.any():
                rec.note_fault(superstep, 0, "stall", int(stalled.sum()))
                hold(stall.duration, delivered[stalled])
                delivered = delivered[~stalled]

        if delivered.size == 0:
            return delivered
        if plan.loss_rate:
            lost = rng.random(delivered.size) < plan.loss_rate
            if lost.any():
                rec.note_fault(superstep, 0, "loss", int(lost.sum()))
                delivered = delivered[~lost]
        if plan.delay_rate and delivered.size:
            delayed = rng.random(delivered.size) < plan.delay_rate
            if delayed.any():
                count = int(delayed.sum())
                rec.note_fault(superstep, 0, "delay", count)
                due = rng.integers(1, MAX_DELAY + 1, size=count)
                victims = delivered[delayed]
                for round_ in np.unique(due):
                    hold(int(round_), victims[due == round_])
                delivered = delivered[~delayed]
        if plan.dup_rate and delivered.size:
            dup = rng.random(delivered.size) < plan.dup_rate
            if dup.any():
                rec.note_fault(superstep, 0, "duplicate", int(dup.sum()))
                delivered = np.concatenate([delivered, delivered[dup]])
        if (
            plan.reorder_rate
            and delivered.size > 1
            and rng.random() < plan.reorder_rate
        ):
            rec.note_fault(superstep, 0, "reorder", delivered.size)
            delivered = rng.permutation(delivered)
        return delivered

    # ------------------------------------------------------------------
    def _wire_stream(
        self, num_columns: int
    ) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
        """Empty the outbox into the stream the wire sees: ``(src, dst,
        columns)`` ordered by (post, destination rank) — each post goes out
        destination by destination, records of one destination in posted
        order — with one stable sort on ``post ordinal·P + dst``.

        A post is a (sender, batch) pair with records, and its ordinal is
        its rank in (sender, batch) order: the dense rank of ``src·B +
        batch`` over the B queued batches, so the key is no wider than
        ``posts·P``. The order is load-bearing: a record's position in this
        stream is its global id, its rank within its ``(src, dst)`` channel
        is its sequence number, and fault plans draw their victims by
        position, so every seeded replay depends on it."""
        queued, self._outbox = self._outbox, []
        if not queued:
            none = np.empty(0, dtype=np.int64)
            return none, none, (none,) * num_columns
        src, dst, cols = _stream(queued)
        p, batches = self.num_ranks, len(queued)
        pair = np.concatenate([
            s.astype(np.int64) * batches + b for b, (s, _, _) in enumerate(queued)
        ])
        posts, ordinal = np.unique(pair, return_inverse=True)
        key_dtype = np.min_scalar_type(posts.size * p - 1)
        order = _stable_order(ordinal * p + dst, key_dtype)
        # Full-width rank columns: the ids the wire's faults and resends take.
        src, dst = src[order].astype(np.int64), dst[order].astype(np.int64)
        return src, dst, tuple(c[order] for c in cols)

    def _close(
        self, record_bytes: int, phase_kind: str, num_columns: int
    ) -> tuple[np.ndarray, ...]:
        """Reliable superstep close: every surviving record of the exchange
        is delivered exactly once."""
        plan = self.plan
        superstep = self._superstep
        self._superstep += 1
        self._check_columns(num_columns)
        rec = self.comm.metrics.recovery
        tr = self.comm.metrics.tracer
        span = (
            tr.begin(
                "superstep", cat="superstep", phase=phase_kind,
                superstep=superstep,
            )
            if tr is not None
            else None
        )

        # Crash events fire first so the engine restores the rank's state
        # before any record of this superstep is applied to it.
        for rank in plan.crashes_at(superstep):
            rec.note_fault(superstep, 0, "crash", 1)
            if tr is not None:
                tr.instant("crash", rank=int(rank), superstep=superstep)
            if self.on_restart is not None:
                self.on_restart(rank)

        src_arr, dst_arr, cols = self._wire_stream(num_columns)

        # A crashed sender loses the records it had not sent yet.
        mask = self._pre_send_mask(superstep, src_arr)
        if mask is not None and not mask.all():
            src_arr = src_arr[mask]
            dst_arr = dst_arr[mask]
            cols = tuple(c[mask] for c in cols)

        # First attempt: charged as the algorithm's own traffic.
        self.comm.exchange_by_rank(
            src_arr, dst_arr, record_bytes, phase_kind=phase_kind
        )
        n = src_arr.size
        seen = np.zeros(n, dtype=bool)
        arrival: list[np.ndarray] = []

        def absorb(gids: np.ndarray) -> None:
            # Sequence-number dedup: keep the first arrival of each record,
            # in wire order; later copies are exact no-ops.
            if gids.size == 0:
                return
            uniq, first_pos = np.unique(gids, return_index=True)
            fresh_pos = first_pos[~seen[uniq]]
            if fresh_pos.size == 0:
                return
            fresh_pos.sort()
            fresh = gids[fresh_pos]
            seen[fresh] = True
            arrival.append(fresh)

        held: dict[int, list[np.ndarray]] = {}
        absorb(self._transmit(superstep, src_arr, dst_arr, held))

        # Ack rounds. A held record never arrived in the first attempt, so
        # recovery runs exactly when something is missing, until the last
        # held copy is released: round 1 takes its released copies, then
        # resends every record still missing; later rounds only drain.
        rounds = max(held, default=1) if not seen.all() else 0
        for round_ in range(1, rounds + 1):
            if round_ > MAX_RECOVERY_ROUNDS:
                raise RuntimeError(
                    "reliable delivery did not converge within "
                    f"{MAX_RECOVERY_ROUNDS} recovery rounds"
                )
            rec.recovery_supersteps += 1
            if self.watchdog is not None:
                self.watchdog.note_recovery_round()
            self.comm.allreduce(1, phase_kind=RECOVERY_PHASE)
            if round_ == 1:
                for gids in held.get(1, ()):
                    absorb(gids)
                resend = np.flatnonzero(~seen)
                if resend.size:
                    self.comm.retransmit(
                        src_arr[resend], dst_arr[resend], record_bytes
                    )
                    absorb(resend)

        # Hand the arrivals out with the same router: stable on the
        # destination, so every receiver sees its records in arrival order.
        if arrival:
            got = np.concatenate(arrival)
            got = got[_stable_order(dst_arr[got], self._rank_dtype)]
            routed = tuple(c[got] for c in cols)
        else:
            routed = _no_records(num_columns)
        if tr is not None:
            tr.end(span, records=int(n), recovery_rounds=rounds)
        return routed
