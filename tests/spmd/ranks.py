"""Per-rank calls, restated on the mailbox's one way in.

A mailbox takes records through ``send(src, dst, *cols)`` — vertex ids,
the ranks read off the partition — and hands them back from ``exchange``,
receiver ascending. Tests that think in ranks (rank ``r`` posts records
to ranks ``dst_ranks``; every rank receives its inbox) name a rank by the
first vertex it owns: :func:`post` sends from that vertex to each
receiver's, the records' own columns behind the vertex column, and
:func:`deliver` exchanges, cuts the routed stream per receiver
(:func:`per_rank`) and drops the vertex column again.
"""

from __future__ import annotations

import numpy as np

from repro.spmd import FaultPlan, FaultyMailbox


def first_vertex(comm, ranks):
    """The first vertex each of ``ranks`` owns."""
    return comm.partition.boundaries[np.asarray(ranks, dtype=np.int64)]


def post(mailbox, rank, dst_ranks, *columns) -> None:
    """Rank ``rank`` sends the records ``columns`` to ``dst_ranks``."""
    dst = first_vertex(mailbox.comm, dst_ranks)
    src = np.full(dst.size, first_vertex(mailbox.comm, rank))
    mailbox.send(src, dst, *columns)


def per_rank(comm, routed):
    """Per receiving rank, its slice of the ``routed`` columns (the first
    being the destination vertex, receivers ascending)."""
    owner = comm.partition.owner(routed[0])
    cuts = np.searchsorted(owner, np.arange(comm.partition.num_ranks + 1))
    bounds = cuts.tolist()
    return [
        tuple(col[lo:hi] for col in routed)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def deliver(mailbox, record_bytes, *, phase_kind="other", num_columns=2):
    """Close a superstep :func:`post` filled: per receiving rank, the
    ``num_columns`` record columns addressed to it."""
    routed = mailbox.exchange(
        record_bytes, phase_kind=phase_kind, num_columns=num_columns + 1
    )
    return [cols[1:] for cols in per_rank(mailbox.comm, routed)]


def wire_stream(mailbox, num_columns=2):
    """The reliable mailbox's wire stream ``(src, dst, columns)`` of a
    superstep :func:`post` filled."""
    src, dst, (_, *columns) = mailbox._wire_stream(num_columns + 1)
    return src, dst, tuple(columns)


def perfect_wire(num_ranks, comm) -> FaultyMailbox:
    """The reliable protocol over the wire of an empty fault plan."""
    return FaultyMailbox(num_ranks, comm, FaultPlan())
