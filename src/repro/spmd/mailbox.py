"""Per-rank mailboxes: the only channel between SPMD ranks.

A :class:`Mailbox` models one bulk-synchronous exchange round: during a
superstep records ``(dst_vertex, payload...)`` are queued, addressed by
destination rank; at the superstep boundary they move to the receivers
(counting the traffic through the accounting communicator) and every rank
gets exactly the records addressed to it. Nothing else crosses rank
boundaries.

Records are queued in one of two shapes. :meth:`Mailbox.post` is one rank
posting a batch — the per-rank API, which validates and appends.
:meth:`Mailbox.send` is the kernels' call (:class:`~repro.core.transport.
Transport`): the records of *every* rank's share of a frontier at once,
grouped by sending rank — the posts the ranks would have made one by one.
Either way the outbox holds ``(src_ranks, dst_ranks, columns)``: the
sending and the receiving rank of every record, in the narrowest unsigned
type that holds a rank (``send`` reads both off the partition's
:attr:`~repro.graph.partition.ContiguousPartition.narrow_owner_map`),
beside the records. They live until the exchange.

A superstep is one key. The queued batches are concatenated in insertion
order (one batch is handed on uncopied) and every record gets the key
``dst·P + src``: one ``bincount`` of it gives the (src, dst) lane counts
the accounting wants and the per-receiver cuts, one stable sort on it
routes the records (:func:`_stable_order`: the key is cast to the
narrowest unsigned type that holds it, which makes NumPy's stable sort a
radix sort), one gather per column moves them. A receiver sees its records
by sender, then batch, then position in the batch — what P ranks posting
one by one would have sent. :meth:`Mailbox.exchange` returns the routed
columns, :meth:`Mailbox.deliver` slices them per receiver. The cost of an
exchange is a few passes over its records, whatever the rank count.

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

from repro.core.transport import Transport
from repro.runtime.comm import RECOVERY_PHASE, Communicator

__all__ = ["Mailbox", "ReliableMailbox"]


def _stable_order(keys: np.ndarray, max_key: int) -> np.ndarray:
    """Stable sorting permutation of non-negative ``keys`` no larger than
    ``max_key``: the one routing sort of the module.

    The keys are cast to the narrowest unsigned type that holds
    ``max_key`` first, because NumPy's stable sort is a radix sort — one
    counting pass per key byte — for keys of at most 16 bits and a
    comparison sort beyond. A superstep's key ``dst·P + src`` fits a byte
    up to 16 ranks and two up to 256; wider keys take the comparison sort,
    same result.
    """
    narrow = keys.astype(np.min_scalar_type(max_key), copy=False)
    return np.argsort(narrow, kind="stable")


def _cuts(counts: np.ndarray) -> np.ndarray:
    """Receiver ``r`` owns positions ``cuts[r]:cuts[r + 1]`` of a routed
    stream holding ``counts[r]`` records for it."""
    cuts = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=cuts[1:])
    return cuts


def _route(dst_ranks: np.ndarray, num_ranks: int) -> tuple[np.ndarray, np.ndarray]:
    """Route records to their destination ranks: ``(order, cuts)`` where
    ``order`` is the stable permutation that groups the records by
    destination, each receiver's in the order they had before."""
    cuts = _cuts(np.bincount(dst_ranks, minlength=num_ranks))
    return _stable_order(dst_ranks, num_ranks - 1), cuts


def _stream(
    queued: list[tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]],
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """The queued batches as one record stream ``(src_ranks, dst_ranks,
    columns)``, in insertion order; one batch is handed on uncopied."""
    if len(queued) == 1:
        return queued[0]
    src, dst, columns = zip(*queued)
    return (
        np.concatenate(src), np.concatenate(dst),
        tuple(np.concatenate(col) for col in zip(*columns)),
    )


def _in_sender_order(
    queued: list[tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]],
) -> bool:
    """Whether the queued stream is already ordered by sender. A batch is
    (a ``send``'s records are grouped by sending rank, ascending; a
    ``post`` has one sender), so the stream is when no batch starts below
    the sender its predecessor ended with — one batch always is."""
    return all(
        a[-1] <= b[0] for (a, _, _), (b, _, _) in zip(queued, queued[1:])
    )


def _inboxes(
    routed: tuple[np.ndarray, ...], cuts: np.ndarray
) -> list[tuple[np.ndarray, ...]]:
    """Per-receiver slices (views, no copies) of the routed columns."""
    bounds = cuts.tolist()
    return [
        tuple(col[lo:hi] for col in routed)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def _no_records(
    num_ranks: int, num_columns: int
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """``(routed, cuts)`` of a superstep nobody sent anything in."""
    empty = np.empty(0, dtype=np.int64)
    return (empty,) * num_columns, np.zeros(num_ranks + 1, dtype=np.int64)


class Mailbox(Transport):
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
        self._rank_dtype = np.min_scalar_type(num_ranks - 1)
        self._key_dtype = np.min_scalar_type(num_ranks * num_ranks - 1)
        self._outbox: list[tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]] = []
        """The batches of the open superstep in insertion order:
        ``(src_ranks, dst_ranks, columns)`` — the sending and the receiving
        rank of every record (``_rank_dtype``), and the records."""

    def post(
        self,
        src_rank: int,
        dst_ranks: np.ndarray,
        *columns: np.ndarray,
    ) -> None:
        """Queue records from ``src_rank``; ``columns`` are parallel arrays
        (first column must be the destination vertex ids).

        The batch is validated and appended, nothing more — routing is
        done once per superstep. The mailbox keeps the columns it was
        handed until then."""
        if not 0 <= src_rank < self.num_ranks:
            raise IndexError(f"rank {src_rank} out of range")
        if not columns:
            raise ValueError("at least one record column required")
        dst_ranks = np.asarray(dst_ranks, dtype=np.int64)
        columns = tuple(np.asarray(col) for col in columns)
        for col in columns:
            if col.shape != dst_ranks.shape:
                raise ValueError("record columns must align with dst_ranks")
        if dst_ranks.size == 0:
            return
        lo, hi = int(dst_ranks.min()), int(dst_ranks.max())
        if lo < 0 or hi >= self.num_ranks:
            bad = lo if lo < 0 else hi
            raise ValueError(
                f"destination rank {bad} out of range [0, {self.num_ranks})"
            )
        self._outbox.append((
            np.full(dst_ranks.size, src_rank, dtype=self._rank_dtype),
            dst_ranks.astype(self._rank_dtype), columns,
        ))

    def send(self, src: np.ndarray, dst: np.ndarray, *cols: np.ndarray) -> None:
        """The phase kernels' call shape: one batch holding every rank's
        records, grouped by the rank owning ``src`` (ranks ascending; any
        order inside a rank) — what the ranks would have posted one by
        one. ``src`` itself is let go: two gathers from the partition's
        narrow owner table give the rank columns, a byte per record up to
        256 ranks, and the records keep ``dst`` as their first column."""
        if len(src):
            owner = self.comm.partition.narrow_owner_map
            self._outbox.append((owner[src], owner[dst], (dst, *cols)))

    def _check_columns(self, num_columns: int) -> None:
        """Reject malformed supersteps *before* any traffic is charged, so a
        failed delivery never leaves the metrics half-updated."""
        for *_, cols in self._outbox:
            if len(cols) != num_columns:
                raise ValueError(
                    f"posted {len(cols)} columns, deliver expects {num_columns}"
                )

    def _close(
        self, record_bytes: int, phase_kind: str, num_columns: int
    ) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """Close the superstep: account the traffic and return ``(routed,
        cuts)`` — the record columns grouped by receiving rank, receiver
        ``r`` owning positions ``cuts[r]:cuts[r + 1]``, ordered there by
        sender, then by batch, then by position in the batch.

        Everything comes off one key per record, ``dst·P + src``: its
        ``bincount`` is the (src, dst) lane counts in dst-major order, whose
        row sums are the cuts; its stable sort is the routing order, and
        each column is gathered once. When the queued stream is already in
        sender order (one batch always is) stability keeps that order, so
        the sort reads the ``dst`` half alone — the same permutation, one
        radix pass fewer past 16 ranks. An idle superstep allocates
        nothing.
        """
        self._check_columns(num_columns)
        tr = self.comm.metrics.tracer
        span = (
            tr.begin("superstep", cat="superstep", phase=phase_kind)
            if tr is not None
            else None
        )
        queued, self._outbox = self._outbox, []
        p = self.num_ranks
        if not queued:
            lane_src = lane_dst = lane_cnt = np.empty(0, dtype=np.int64)
            routed, cuts = _no_records(p, num_columns)
        else:
            src, dst, columns = _stream(queued)
            key = dst.astype(self._key_dtype)
            key *= p
            key += src
            counts = np.bincount(key, minlength=p * p)
            cuts = _cuts(counts.reshape(p, p).sum(axis=1))
            if _in_sender_order(queued):
                order = _stable_order(dst, p - 1)
            else:
                order = _stable_order(key, p * p - 1)
            lanes = np.flatnonzero(counts)
            lane_dst, lane_src = np.divmod(lanes, p)
            lane_cnt = counts[lanes]
            routed = tuple(col[order] for col in columns)
        self.comm.exchange_by_rank_counts(
            lane_src, lane_dst, lane_cnt, record_bytes, phase_kind=phase_kind
        )
        if tr is not None:
            # ``lanes``: distinct (src, dst) pairs with traffic this superstep.
            tr.end(span, lanes=int(lane_cnt.size), records=int(lane_cnt.sum()))
        return routed, cuts

    def exchange(
        self, record_bytes: int, *, phase_kind: str = "other", num_columns: int = 2
    ) -> tuple[np.ndarray, ...]:
        """Close the superstep and return the routed record columns: what
        the ranks receive, receiver ascending (see :meth:`_close`)."""
        return self._close(record_bytes, phase_kind, num_columns)[0]

    def deliver(
        self,
        record_bytes: int,
        *,
        phase_kind: str = "other",
        num_columns: int = 2,
    ) -> list[tuple[np.ndarray, ...]]:
        """Close the superstep and return, per receiving rank, the record
        columns addressed to it: slices of the routed columns."""
        return _inboxes(*self._close(record_bytes, phase_kind, num_columns))


class ReliableMailbox(Mailbox):
    """Mailbox with a sequence/ack/retry reliable-transport layer.

    Every superstep close orders the record stream by (post,
    destination rank) (:meth:`_wire_stream`); a record's index in that
    stream is its global id, and its rank within its ``(src_rank,
    dst_rank)`` channel is its sequence number.  The protocol then runs:

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
