"""Deterministic fault injection and recovery for the SPMD engine.

The paper's target machine (32k Blue Gene/Q nodes) makes message loss,
stragglers and rank failures operational realities; this module lets the
reproduction *measure* what surviving them costs.  A :class:`FaultPlan`
describes — fully deterministically, from a seed — which faults hit which
supersteps: per-record **loss**, **duplication**, **delayed delivery** and
stream **reordering** at configurable rates, plus whole-rank **stall** and
**crash** events pinned to chosen supersteps.  :class:`FaultyMailbox` is
the reliable transport: a sequence/ack/retry protocol over the wire the
plan breaks — an empty ``FaultPlan()`` is the perfect wire.

Recovery is sound because min-apply relaxation is idempotent and monotone
(the SP_Async observation): re-delivered records are no-ops, lost records
are retransmitted, and a crashed rank restarted from an epoch snapshot
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
from repro.spmd.mailbox import Mailbox, _cuts, _no_records, _stable_order, _stream
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
    """Seeded, deterministic schedule of injected faults + recovery knobs.

    Rates are per record and apply to supersteps in
    ``[first_superstep, last_superstep]`` (``None`` = unbounded); crash and
    stall events fire at their own supersteps regardless of that window.
    The same seed over the same run yields the identical fault schedule
    (recorded in :attr:`repro.runtime.metrics.RecoveryStats.events`).

    Recovery knobs: ``max_attempts``/``backoff_cap`` tune the reliable
    transport's capped exponential backoff. Crash snapshots are taken
    before every epoch and the healing sweeps are bounded by
    :data:`repro.core.defence.MAX_HEALING_SWEEPS`.
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

    def __post_init__(self) -> None:
        for name in ("loss_rate", "dup_rate", "reorder_rate", "delay_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.max_delay < 1:
            raise ValueError("max_delay must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_cap < 1:
            raise ValueError("backoff_cap must be >= 1")
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
        ``backoff`` (ints); ``retry-faults`` (0/1);
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


MAX_RECOVERY_ROUNDS = 10_000
"""Ack rounds one superstep may take before the protocol gives up."""


def _route(dst_ranks: np.ndarray, num_ranks: int) -> tuple[np.ndarray, np.ndarray]:
    """Route records to their destination ranks: ``(order, cuts)`` where
    ``order`` is the stable permutation that groups the records by
    destination, each receiver's in the order they had before."""
    cuts = _cuts(np.bincount(dst_ranks, minlength=num_ranks))
    return _stable_order(dst_ranks, num_ranks - 1), cuts


class FaultyMailbox(Mailbox):
    """Mailbox with a sequence/ack/retry reliable-transport layer over a
    wire perturbed by a :class:`FaultPlan`.

    Every superstep close orders the record stream by (sender, batch,
    destination rank) (:meth:`_wire_stream`); a record's index in that
    stream is its global id, and its rank within its ``(src_rank,
    dst_rank)`` channel is its sequence number.  The protocol then runs:

    1. **First attempt** — the whole stream is handed to the wire
       (:meth:`_transmit`) and charged exactly like a plain
       :class:`~repro.spmd.mailbox.Mailbox` exchange, under the
       algorithm's own phase kind.
    2. **Ack rounds** — while any record is unacknowledged (or the wire
       still holds delayed records), an extra *recovery superstep* runs:
       one small allreduce models the ack exchange, delayed records due
       this round are released (:meth:`_release`), and channels with gaps
       retransmit their missing sequence numbers.  Retries follow capped
       exponential backoff (``min(2^attempt, plan.backoff_cap)`` rounds
       between attempts); after ``plan.max_attempts`` attempts a channel's
       records are delivered out-of-band (the wire "heals"), which bounds
       recovery time under arbitrarily adversarial fault plans.
    3. **Dedup** — receivers drop any sequence number they have already
       absorbed, so duplicated or delayed-then-retransmitted records are
       exact no-ops.

    Retransmissions and ack rounds are charged under the ``recovery`` phase
    kind (see :meth:`repro.runtime.comm.Communicator.retransmit`); on the
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
        recovery round is reported to it so retry storms burn deadline
        budget even though the epoch counter stands still."""
        self._superstep = 0
        self._fl_src: np.ndarray | None = None
        self._fl_dst: np.ndarray | None = None
        self._rng = np.random.default_rng(plan.seed)
        self._held: dict[int, list[np.ndarray]] = {}

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
    def _hold(self, round_: int, gids: np.ndarray) -> None:
        self._held.setdefault(round_, []).append(gids)

    def _release(self, round_: int) -> np.ndarray:
        """Delayed record ids whose release round has come."""
        parts = self._held.pop(round_, None)
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

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
        round_: int,
        gids: np.ndarray,
        protect: np.ndarray | None = None,
    ) -> np.ndarray:
        """Push record ids through the wire; returns the ids arriving now.

        ``protect`` marks records whose channel exhausted
        ``plan.max_attempts``: they must be delivered unconditionally.
        """
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
        order = _stable_order(ordinal * p + dst, posts.size * p - 1)
        # Full width: the protocol indexes its channel tables by src * P + dst.
        src, dst = src[order].astype(np.int64), dst[order].astype(np.int64)
        return src, dst, tuple(c[order] for c in cols)

    def _close(
        self, record_bytes: int, phase_kind: str, num_columns: int
    ) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """Reliable superstep close: retries until every surviving record
        of the exchange has been delivered exactly once."""
        p, plan = self.num_ranks, self.plan
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
        self._fl_src, self._fl_dst = src_arr, dst_arr
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

        absorb(self._transmit(superstep, 0, np.arange(n, dtype=np.int64)))

        # Ack/retry rounds with capped exponential backoff.
        channel = src_arr * p + dst_arr
        attempt = np.zeros(p * p, dtype=np.int64)
        next_retry = np.ones(p * p, dtype=np.int64)
        round_ = 1
        while not seen.all() or self._held:  # or delayed records on the wire
            if round_ > MAX_RECOVERY_ROUNDS:
                raise RuntimeError(
                    "reliable delivery did not converge within "
                    f"{MAX_RECOVERY_ROUNDS} recovery rounds"
                )
            rec.recovery_supersteps += 1
            if self.watchdog is not None:
                self.watchdog.note_recovery_round()
            self.comm.allreduce(1, phase_kind=RECOVERY_PHASE)
            absorb(self._release(round_))
            missing = np.nonzero(~seen)[0]
            if missing.size:
                due = next_retry[channel[missing]] <= round_
                resend = missing[due]
                if resend.size:
                    self.comm.retransmit(
                        src_arr[resend], dst_arr[resend], record_bytes
                    )
                    ch_ids = np.unique(channel[resend])
                    attempt[ch_ids] += 1
                    next_retry[ch_ids] = round_ + np.minimum(
                        1 << np.minimum(attempt[ch_ids], 30), plan.backoff_cap
                    )
                    protect = attempt[channel[resend]] >= plan.max_attempts
                    absorb(
                        self._transmit(superstep, round_, resend, protect=protect)
                    )
            round_ += 1
        self._fl_src = self._fl_dst = None

        # Hand the arrivals out with the same router: stable on the
        # destination, so every receiver sees its records in arrival order.
        if arrival:
            got = np.concatenate(arrival)
            order, cuts = _route(dst_arr[got], p)
            got = got[order]
            routed = tuple(c[got] for c in cols)
        else:
            routed, cuts = _no_records(p, num_columns)
        if tr is not None:
            tr.end(span, records=int(n), recovery_rounds=round_ - 1)
        return routed, cuts
