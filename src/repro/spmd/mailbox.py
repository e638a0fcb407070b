"""Per-rank mailboxes: the only channel between SPMD ranks.

A :class:`Mailbox` models one bulk-synchronous exchange round: during a
superstep every rank posts ``(dst_vertex, payload...)`` record batches
addressed by destination rank; at the superstep boundary :meth:`deliver`
moves them to the receivers (counting the traffic through the accounting
communicator) and hands each rank exactly the records addressed to it.
Nothing else crosses rank boundaries.

:class:`ReliableMailbox` layers a recovery protocol on top: every record of
a superstep carries an implicit per-channel ``(src_rank, dst_rank)``
sequence number, receivers acknowledge what arrived, and senders retransmit
the gaps with capped exponential backoff until the exchange is complete.
Duplicated deliveries are discarded by sequence-number dedup, so the layer
gives exactly-once semantics over an arbitrarily lossy/duplicating/
reordering wire.  The wire itself is the overridable :meth:`_transmit` /
:meth:`_release` hook pair — perfect by default (which makes this class
bit-identical to :class:`Mailbox` in results *and* accounting), perturbed
by :class:`repro.spmd.faults.FaultyMailbox` for fault injection.  All
recovery traffic is charged under the ``recovery`` phase kind so the
overhead of fault tolerance stays measurable.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.runtime.comm import RECOVERY_PHASE, Communicator

__all__ = ["Mailbox", "ReliableMailbox"]


class Mailbox:
    """Bulk-synchronous record exchange between ``num_ranks`` ranks."""

    def __init__(self, num_ranks: int, comm: Communicator) -> None:
        if num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        self.num_ranks = num_ranks
        self.comm = comm
        self.watchdog = None
        """Optional :class:`~repro.runtime.watchdog.Watchdog`; the reliable
        layer reports every recovery round to it so retry storms burn
        deadline budget even though the epoch counter stands still."""
        self._outbox: list[list[tuple[int, tuple[np.ndarray, ...]]]] = [
            [] for _ in range(num_ranks)
        ]

    def post(
        self,
        src_rank: int,
        dst_ranks: np.ndarray,
        *columns: np.ndarray,
    ) -> None:
        """Queue records from ``src_rank``; ``columns`` are parallel arrays
        (first column must be the destination vertex ids)."""
        if not 0 <= src_rank < self.num_ranks:
            raise IndexError(f"rank {src_rank} out of range")
        if not columns:
            raise ValueError("at least one record column required")
        dst_ranks = np.asarray(dst_ranks, dtype=np.int64)
        for col in columns:
            if np.asarray(col).shape != dst_ranks.shape:
                raise ValueError("record columns must align with dst_ranks")
        if dst_ranks.size == 0:
            return
        lo, hi = int(dst_ranks.min()), int(dst_ranks.max())
        if lo < 0 or hi >= self.num_ranks:
            bad = lo if lo < 0 else hi
            raise ValueError(
                f"destination rank {bad} out of range [0, {self.num_ranks})"
            )
        if lo == hi:
            # Single-destination batch: no segmentation sort needed.
            self._outbox[src_rank].append(
                (lo, tuple(np.asarray(c) for c in columns))
            )
            return
        order = np.argsort(dst_ranks, kind="stable")
        sorted_dst = dst_ranks[order]
        sorted_cols = [np.asarray(c)[order] for c in columns]
        bounds = np.nonzero(np.diff(sorted_dst))[0] + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [sorted_dst.size]))
        for s, e in zip(starts, ends):
            dst = int(sorted_dst[s])
            self._outbox[src_rank].append(
                (dst, tuple(c[s:e] for c in sorted_cols))
            )

    def send(self, view, src_local: np.ndarray, dst: np.ndarray, *cols) -> None:
        """The phase kernels' call shape: queue records from a rank view to
        the owners of ``dst`` (global ids). A mailbox never needs the
        per-record source vertices the declaring transport prices."""
        self.post(view.rank, self.comm.partition.owner(dst), dst, *cols)

    def _check_columns(self, num_columns: int) -> None:
        """Reject malformed supersteps *before* any traffic is charged, so a
        failed delivery never leaves the metrics half-updated."""
        for src in range(self.num_ranks):
            for _dst, cols in self._outbox[src]:
                if len(cols) != num_columns:
                    raise ValueError(
                        f"posted {len(cols)} columns, deliver expects "
                        f"{num_columns}"
                    )

    def deliver(
        self,
        record_bytes: int,
        *,
        phase_kind: str = "other",
        num_columns: int = 2,
    ) -> list[tuple[np.ndarray, ...]]:
        """Close the superstep: account the traffic and return, per receiving
        rank, the concatenated record columns addressed to it.

        The hot path is batched by (src, dst) *lane*: traffic is accounted
        from per-lane record counts (no per-record src/dst rank columns are
        ever materialised — historically an O(P²) ``np.full`` allocation
        pattern per superstep), empty lanes are skipped entirely, and an
        idle superstep allocates no per-lane arrays at all.
        """
        p = self.num_ranks
        self._check_columns(num_columns)
        tr = self.comm.metrics.tracer
        span = (
            tr.begin("superstep", cat="superstep", phase=phase_kind)
            if tr is not None
            else None
        )
        lane_src: list[int] = []
        lane_dst: list[int] = []
        lane_cnt: list[int] = []
        inbox: list[list[tuple[np.ndarray, ...]]] = [[] for _ in range(p)]
        for src in range(p):
            for dst, cols in self._outbox[src]:
                count = cols[0].size
                if count == 0:
                    continue
                lane_src.append(src)
                lane_dst.append(dst)
                lane_cnt.append(count)
                inbox[dst].append(cols)
        self._outbox = [[] for _ in range(p)]
        self.comm.exchange_by_rank_counts(
            np.asarray(lane_src, dtype=np.int64),
            np.asarray(lane_dst, dtype=np.int64),
            np.asarray(lane_cnt, dtype=np.int64),
            record_bytes,
            phase_kind=phase_kind,
        )
        out: list[tuple[np.ndarray, ...]] = []
        for dst in range(p):
            batches = inbox[dst]
            if not batches:
                out.append(
                    tuple(np.empty(0, dtype=np.int64) for _ in range(num_columns))
                )
            elif len(batches) == 1:
                # Single-lane receiver: hand the posted columns through
                # without a concatenate copy.
                out.append(batches[0])
            else:
                out.append(
                    tuple(
                        np.concatenate([batch[i] for batch in batches])
                        for i in range(num_columns)
                    )
                )
        if tr is not None:
            tr.end(span, lanes=len(lane_cnt), records=int(sum(lane_cnt)))
        return out

    def allreduce_sum(
        self, values: list[int | float], *, phase_kind: str = "bucket"
    ) -> int | float:
        """Sum a per-rank scalar (counted as one allreduce)."""
        if len(values) != self.num_ranks:
            raise ValueError("need one value per rank")
        self.comm.allreduce(1, phase_kind=phase_kind)
        return sum(values)

    def allreduce_min(
        self, values: list[int | float], *, phase_kind: str = "bucket"
    ) -> int | float:
        """Minimum of a per-rank scalar (counted as one allreduce)."""
        if len(values) != self.num_ranks:
            raise ValueError("need one value per rank")
        self.comm.allreduce(1, phase_kind=phase_kind)
        return min(values)


class ReliableMailbox(Mailbox):
    """Mailbox with a sequence/ack/retry reliable-transport layer.

    Every :meth:`deliver` flattens the superstep's outbox into one record
    stream; a record's index in that stream is its global id, and its rank
    within its ``(src_rank, dst_rank)`` channel is its sequence number.  The
    protocol then runs:

    1. **First attempt** — the whole stream is handed to the wire
       (:meth:`_transmit`) and charged exactly like a plain
       :class:`Mailbox` exchange, under the algorithm's own phase kind.
    2. **Ack rounds** — while any record is unacknowledged (or the wire
       still holds delayed records), an extra *recovery superstep* runs:
       one small allreduce models the ack exchange, delayed records due
       this round are released (:meth:`_release`), and channels with gaps
       retransmit their missing sequence numbers.  Retries follow capped
       exponential backoff (``min(2^attempt, backoff_cap)`` rounds between
       attempts); after ``max_attempts`` attempts a channel's records are
       delivered out-of-band (the wire "heals"), which bounds recovery time
       under arbitrarily adversarial fault plans.
    3. **Dedup** — receivers drop any sequence number they have already
       absorbed, so duplicated or delayed-then-retransmitted records are
       exact no-ops.

    Retransmissions and ack rounds are charged under the ``recovery`` phase
    kind (see :meth:`repro.runtime.comm.Communicator.retransmit`); on a
    perfect wire no recovery round ever runs and the class is bit-identical
    to :class:`Mailbox` in both results and accounting.

    ``on_restart`` is the engine-side crash hook: when the wire reports a
    rank crash for the current superstep (:meth:`_ranks_crashing`), the
    callback is invoked with the rank id *before* any record of the
    superstep is handed to the engine, so the engine can roll the rank back
    to its last checkpoint first.
    """

    def __init__(
        self,
        num_ranks: int,
        comm: Communicator,
        *,
        max_attempts: int = 6,
        backoff_cap: int = 4,
        max_recovery_rounds: int = 10_000,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if backoff_cap < 1:
            raise ValueError("backoff_cap must be >= 1")
        super().__init__(num_ranks, comm)
        self.max_attempts = max_attempts
        self.backoff_cap = backoff_cap
        self.max_recovery_rounds = max_recovery_rounds
        self.on_restart: Callable[[int], None] | None = None
        self._superstep = 0
        self._fl_src: np.ndarray | None = None
        self._fl_dst: np.ndarray | None = None

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
    # Wire hooks (perfect by default; FaultyMailbox overrides them)
    # ------------------------------------------------------------------
    def _ranks_crashing(self, superstep: int) -> tuple[int, ...]:
        """Ranks that crash (lose state) at this superstep."""
        return ()

    def _pre_send_mask(
        self, superstep: int, src_ranks: np.ndarray
    ) -> np.ndarray | None:
        """Records that actually make it onto the wire (None = all)."""
        return None

    def _transmit(
        self,
        superstep: int,
        round_: int,
        gids: np.ndarray,
        protect: np.ndarray | None = None,
    ) -> np.ndarray:
        """Push record ids through the wire; returns the ids arriving now.

        ``protect`` marks records whose channel exhausted ``max_attempts``:
        they must be delivered unconditionally.
        """
        return gids

    def _wire_pending(self) -> bool:
        """Whether the wire still holds delayed records."""
        return False

    def _release(self, round_: int) -> np.ndarray:
        """Delayed record ids whose release round has come."""
        return np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------
    def deliver(
        self,
        record_bytes: int,
        *,
        phase_kind: str = "other",
        num_columns: int = 2,
    ) -> list[tuple[np.ndarray, ...]]:
        """Reliable superstep close: retries until every surviving record
        of the exchange has been delivered exactly once."""
        p = self.num_ranks
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
        for rank in self._ranks_crashing(superstep):
            rec.note_fault(superstep, 0, "crash", 1)
            if tr is not None:
                tr.instant("crash", rank=int(rank), superstep=superstep)
            if self.on_restart is not None:
                self.on_restart(rank)

        # Flatten the outbox into one record stream (same order as the
        # plain Mailbox concatenates batches: src ascending, per-src post
        # insertion order — fault-plan events key off stream positions, so
        # this order is load-bearing). Lane endpoints expand via a single
        # ``np.repeat`` over per-batch values instead of one ``np.full``
        # pair per batch; empty batches are dropped up front.
        batch_src: list[int] = []
        batch_dst: list[int] = []
        batch_cnt: list[int] = []
        col_parts: list[list[np.ndarray]] = [[] for _ in range(num_columns)]
        for src in range(p):
            for dst, cols in self._outbox[src]:
                count = cols[0].size
                if count == 0:
                    continue
                batch_src.append(src)
                batch_dst.append(dst)
                batch_cnt.append(count)
                for i in range(num_columns):
                    col_parts[i].append(cols[i])
        self._outbox = [[] for _ in range(p)]
        if batch_cnt:
            cnt_arr = np.asarray(batch_cnt, dtype=np.int64)
            src_arr = np.repeat(np.asarray(batch_src, dtype=np.int64), cnt_arr)
            dst_arr = np.repeat(np.asarray(batch_dst, dtype=np.int64), cnt_arr)
            cols = tuple(np.concatenate(c) for c in col_parts)
        else:
            src_arr = np.empty(0, dtype=np.int64)
            dst_arr = np.empty(0, dtype=np.int64)
            cols = tuple(np.empty(0, dtype=np.int64) for _ in range(num_columns))

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
        while not seen.all() or self._wire_pending():
            if round_ > self.max_recovery_rounds:
                raise RuntimeError(
                    "reliable delivery did not converge within "
                    f"{self.max_recovery_rounds} recovery rounds"
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
                        1 << np.minimum(attempt[ch_ids], 30), self.backoff_cap
                    )
                    protect = attempt[channel[resend]] >= self.max_attempts
                    absorb(
                        self._transmit(superstep, round_, resend, protect=protect)
                    )
            round_ += 1
        self._fl_src = self._fl_dst = None

        got = np.concatenate(arrival) if arrival else np.empty(0, dtype=np.int64)
        out: list[tuple[np.ndarray, ...]] = []
        for dst in range(p):
            sel = got[dst_arr[got] == dst]
            if sel.size:
                out.append(tuple(c[sel] for c in cols))
            else:
                out.append(
                    tuple(np.empty(0, dtype=np.int64) for _ in range(num_columns))
                )
        if tr is not None:
            tr.end(span, records=int(n), recovery_rounds=round_ - 1)
        return out
