"""The rank driver's transport: the only channel between SPMD ranks.

A :class:`Mailbox` models one bulk-synchronous exchange round: during a
superstep records ``(dst_vertex, payload...)`` are queued, addressed by
destination rank; at the superstep boundary they move to the receivers
(counting the traffic through the accounting communicator) and every rank
gets exactly the records addressed to it. Nothing else crosses rank
boundaries.

There is one way in: :meth:`Mailbox.send`, the kernels' call
(:class:`~repro.core.transport.Transport`), with the records of *every*
rank's share of a frontier at once, grouped by sending rank. The outbox
holds ``(src_ranks, dst_ranks, columns)``: the sending and the receiving
rank of every record, in the narrowest unsigned type that holds a rank
(read off the partition's
:attr:`~repro.graph.partition.ContiguousPartition.narrow_owner_map`),
beside the records. They live until the exchange.

A superstep routes once and counts once. The queued batches are
concatenated in insertion order (one batch is handed on uncopied); one
stable sort on the key ``dst·P + src`` routes the records
(:func:`_stable_order`: the key is held in the narrowest unsigned type
that holds it, which makes NumPy's stable sort a radix sort), one gather
per column moves them, and the two rank columns, as they are, are the
traffic (:meth:`~repro.runtime.comm.Communicator.exchange_by_rank`: the
ledger counts the (src, dst) lanes when it folds). A receiver sees its
records by sender, then batch, then position in the batch.
:meth:`Mailbox.exchange` returns the routed columns, receiver ascending.
The cost of an exchange is a few passes over its records, whatever the
rank count.

The one other mailbox, :class:`repro.spmd.faults.FaultyMailbox`, runs a
sequence/ack/resend protocol over the wire a fault plan breaks.
"""

from __future__ import annotations

import numpy as np

from repro.core.transport import Transport
from repro.runtime.comm import Communicator

__all__ = ["Mailbox"]


def _stable_order(keys: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Stable sorting permutation of non-negative ``keys``, each held by
    the unsigned ``dtype``: the one routing sort of the module.

    The keys are cast to ``dtype`` — the narrowest type that holds the
    largest key — first, because NumPy's stable sort is a radix sort (one
    counting pass per key byte) for keys of at most 16 bits and a
    comparison sort beyond. A superstep's key ``dst·P + src`` fits a byte
    up to 16 ranks and two up to 256; wider keys take the comparison sort,
    same result.
    """
    return keys.astype(dtype, copy=False).argsort(kind="stable")


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
    (a ``send``'s records are grouped by sending rank, ascending), so the
    stream is when no batch starts below the sender its predecessor ended
    with."""
    return all(
        a[-1] <= b[0] for (a, _, _), (b, _, _) in zip(queued, queued[1:])
    )


def _no_records(num_columns: int) -> tuple[np.ndarray, ...]:
    """The routed columns of a superstep nobody sent anything in."""
    return (np.empty(0, dtype=np.int64),) * num_columns


class Mailbox(Transport):
    """Bulk-synchronous record exchange between ``num_ranks`` ranks."""

    def __init__(self, num_ranks: int, comm: Communicator) -> None:
        if num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        self.num_ranks = num_ranks
        self.comm = comm
        self._rank_dtype = np.min_scalar_type(num_ranks - 1)
        self._key_dtype = np.min_scalar_type(num_ranks * num_ranks - 1)
        self._outbox: list[tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]] = []
        """The batches of the open superstep in insertion order:
        ``(src_ranks, dst_ranks, columns)`` — the sending and the receiving
        rank of every record (``_rank_dtype``), and the records."""

    def send(self, src: np.ndarray, dst: np.ndarray, *cols: np.ndarray) -> None:
        """Queue one batch holding every rank's records, grouped by the rank
        owning ``src`` (ranks ascending; any order inside a rank) — the
        records each rank sends this superstep. ``src`` itself is let go:
        two gathers from the partition's narrow owner table give the rank
        columns, a byte per record up to 256 ranks, and the records keep
        ``dst`` as their first column."""
        if len(src):
            owner = self.comm.partition.narrow_owner_map
            self._outbox.append((owner[src], owner[dst], (dst, *cols)))

    def _check_columns(self, num_columns: int) -> None:
        """Reject malformed supersteps *before* any traffic is charged, so a
        failed delivery never leaves the metrics half-updated."""
        for *_, cols in self._outbox:
            if len(cols) != num_columns:
                raise ValueError(
                    f"posted {len(cols)} columns, exchange expects {num_columns}"
                )

    def _close(
        self, record_bytes: int, phase_kind: str, num_columns: int
    ) -> tuple[np.ndarray, ...]:
        """Close the superstep: account the traffic and return the record
        columns grouped by receiving rank, receiver ascending, ordered
        there by sender, then by batch, then by position in the batch.

        The routing order is the stable sort of the key ``dst·P + src``.
        When the queued stream is already in sender order (one batch always
        is) stability keeps that order, so the sort reads the ``dst`` half
        alone — the same permutation, one radix pass fewer past 16 ranks.
        Each column is gathered once, and the rank columns are the traffic,
        one :meth:`~repro.runtime.comm.Communicator.exchange_by_rank` call.
        An idle superstep allocates nothing.
        """
        self._check_columns(num_columns)
        tr = self.comm.metrics.tracer
        span = (
            tr.begin("superstep", cat="superstep", phase=phase_kind)
            if tr is not None
            else None
        )
        queued, self._outbox = self._outbox, []
        if not queued:
            src = dst = np.empty(0, dtype=self._rank_dtype)
            routed = _no_records(num_columns)
        else:
            src, dst, columns = _stream(queued)
            if len(queued) == 1 or _in_sender_order(queued):
                order = _stable_order(dst, self._rank_dtype)
            else:
                key = dst.astype(self._key_dtype)
                key *= self.num_ranks
                key += src
                order = _stable_order(key, self._key_dtype)
            routed = tuple(col[order] for col in columns)
        self.comm.exchange_by_rank(src, dst, record_bytes, phase_kind=phase_kind)
        if tr is not None:
            # ``lanes``: distinct (src, dst) pairs with traffic this superstep.
            lanes = np.unique(self.comm.lanes(src, dst)).size
            tr.end(span, lanes=lanes, records=int(src.size))
        return routed

    def exchange(
        self, record_bytes: int, *, phase_kind: str = "other", num_columns: int = 2
    ) -> tuple[np.ndarray, ...]:
        """Close the superstep and return the routed record columns: what
        the ranks receive, receiver ascending (see :meth:`_close`)."""
        return self._close(record_bytes, phase_kind, num_columns)
