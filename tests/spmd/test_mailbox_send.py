"""``Mailbox.send`` of whole-frontier batches ≡ P ranks posting one by one.

The kernels run once over the one view and hand the mailbox every rank's
records in a single ``send`` per batch; until PR 21 each of P rank views
called ``post`` for its own share. Everything downstream hangs on the order
of the drained stream — ``ReliableMailbox._wire_stream`` numbers records by
position, fault plans draw victims by position — so ``send`` must leave
behind exactly what those posts left: one post per sending rank with
records, senders ascending, a sender's posts in insertion order. The
per-rank ``post`` path is the oracle: the same batches, cut at the rank
boundaries and posted rank by rank, must give the same ``_drain`` stream,
the same wire stream, the same inboxes and the same accounted lanes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.comm import RELAX_RECORD_BYTES
from repro.spmd.mailbox import Mailbox, ReliableMailbox
from tests.spmd.test_mailbox_router import make_comm

VERTICES_PER_RANK = 8  # make_comm's block partition


@st.composite
def supersteps(draw):
    """(P, batches): each batch is ``(src, dst, payload)`` over global
    vertex ids, ``src`` grouped by owning rank (ranks ascending) but in any
    order inside a rank, some ranks sending nothing."""
    p = draw(st.sampled_from([1, 2, 8]))
    n = VERTICES_PER_RANK * p
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    batches = []
    for tag in range(draw(st.integers(0, 3))):
        senders = np.flatnonzero(rng.random(p) < draw(st.sampled_from([0.0, 0.5, 1.0])))
        src = np.concatenate([
            rng.integers(r * VERTICES_PER_RANK, (r + 1) * VERTICES_PER_RANK,
                         int(rng.integers(1, 7)))
            for r in senders
        ] + [np.empty(0, dtype=np.int64)]).astype(np.int64)
        dst = rng.integers(0, n, src.size)
        payload = np.arange(src.size, dtype=np.int64) + 1000 * (tag + 1)
        batches.append((src, dst, payload))
    return p, batches


def fill(mailbox: Mailbox, p: int, batches, how: str) -> None:
    owner = mailbox.comm.partition.owner
    for src, dst, payload in batches:
        if how == "send":
            mailbox.send(src, dst, payload)
            continue
        # What P rank views did: every rank posts its own share of the batch.
        for rank in range(p):
            mine = owner(src) == rank
            mailbox.post(rank, owner(dst[mine]), dst[mine], payload[mine])


def both(mailbox_type, p, batches):
    pair = []
    for how in ("send", "post"):
        mailbox = mailbox_type(p, make_comm(p))
        fill(mailbox, p, batches, how)
        pair.append(mailbox)
    return pair


def assert_streams_equal(got, want):
    assert (got is None) == (want is None)
    if got is None:
        return
    for g, w in zip(got[:2] + got[3:], want[:2] + want[3:]):  # src, dst, sizes
        np.testing.assert_array_equal(g, w)
    for g, w in zip(got[2], want[2]):
        np.testing.assert_array_equal(g, w)


@settings(max_examples=200, deadline=None)
@given(supersteps())
def test_send_leaves_the_stream_of_per_rank_posts(superstep):
    p, batches = superstep
    sent, posted = both(Mailbox, p, batches)
    assert_streams_equal(sent._drain(), posted._drain())


@settings(max_examples=200, deadline=None)
@given(supersteps())
def test_send_leaves_the_wire_stream_of_per_rank_posts(superstep):
    p, batches = superstep
    sent, posted = both(ReliableMailbox, p, batches)
    src_s, dst_s, cols_s = sent._wire_stream(2)
    src_p, dst_p, cols_p = posted._wire_stream(2)
    np.testing.assert_array_equal(src_s, src_p)
    np.testing.assert_array_equal(dst_s, dst_p)
    for g, w in zip(cols_s, cols_p):
        np.testing.assert_array_equal(g, w)
    assert src_s.dtype == dst_s.dtype == np.int64  # the protocol's channel ids


@settings(max_examples=150, deadline=None)
@given(supersteps(), st.sampled_from([Mailbox, ReliableMailbox]))
def test_send_delivers_and_accounts_like_per_rank_posts(superstep, mailbox_type):
    p, batches = superstep
    sent, posted = both(mailbox_type, p, batches)
    routed = sent.exchange(RELAX_RECORD_BYTES, phase_kind="long")
    inboxes = posted.deliver(RELAX_RECORD_BYTES, phase_kind="long")
    # ``exchange`` is the routed stream ``deliver`` slices per receiver.
    for column, per_rank in zip(routed, zip(*inboxes)):
        np.testing.assert_array_equal(column, np.concatenate(per_rank))
    owner = sent.comm.partition.owner
    assert np.all(np.diff(owner(routed[0])) >= 0)
    assert sent.comm.metrics.records == posted.comm.metrics.records
    assert sent.comm.metrics.summary() == posted.comm.metrics.summary()


def test_two_batches_interleave_by_sender():
    """The IOS push superstep: long records (A) then outer-short records
    (B), each a whole frontier — the stream is r0·A, r0·B, r1·A, r1·B."""
    mailbox = Mailbox(2, make_comm(2))
    a = np.array([0, 1, 9], dtype=np.int64)          # ranks 0, 0, 1
    b = np.array([2, 8, 10], dtype=np.int64)         # ranks 0, 1, 1
    mailbox.send(a, np.array([8, 0, 1]), np.array([10, 11, 12]))
    mailbox.send(b, np.array([9, 2, 3]), np.array([20, 21, 22]))
    src, dst, (dst_vertex, payload), sizes = mailbox._drain()
    assert payload.tolist() == [10, 11, 20, 12, 21, 22]
    assert src.tolist() == [0, 0, 0, 1, 1, 1]
    assert dst.tolist() == [1, 0, 1, 0, 0, 0]
    assert dst_vertex.tolist() == [8, 0, 9, 1, 2, 3]
    assert sizes.tolist() == [2, 1, 1, 2]


def test_one_batch_is_the_stream_uncopied():
    mailbox = Mailbox(4, make_comm(4))
    src = np.array([1, 0, 17, 16, 16], dtype=np.int64)  # rank-grouped, unsorted inside
    dst = np.array([31, 2, 0, 5, 24], dtype=np.int64)
    payload = np.arange(5, dtype=np.int64)
    mailbox.send(src, dst, payload)
    ranks, dst_ranks, (col0, col1), sizes = mailbox._drain()
    assert col0 is dst and col1 is payload
    assert ranks.tolist() == [0, 0, 2, 2, 2] and sizes.tolist() == [2, 3]
    assert dst_ranks.tolist() == [3, 0, 0, 0, 3]
    # The per-record rank columns are a byte wide up to 256 ranks.
    assert ranks.dtype == dst_ranks.dtype == np.uint8
    assert mailbox._drain() is None


@pytest.mark.parametrize("p, dtype", [(256, np.uint8), (257, np.uint16)])
def test_rank_columns_widen_with_the_rank_count(p, dtype):
    mailbox = Mailbox(p, make_comm(p))
    last = VERTICES_PER_RANK * p - 1
    mailbox.send(np.array([0, last]), np.array([last, 0]), np.array([1, 2]))
    src, dst, _, _ = mailbox._drain()
    assert src.dtype == dst.dtype == dtype
    assert src.tolist() == [0, p - 1] and dst.tolist() == [p - 1, 0]


def test_empty_batch_queues_nothing_and_column_count_is_checked():
    mailbox = Mailbox(2, make_comm(2))
    none = np.empty(0, dtype=np.int64)
    mailbox.send(none, none, none)
    assert mailbox._drain() is None
    mailbox.send(np.array([0]), np.array([9]), np.array([1]))
    with pytest.raises(ValueError, match="posted 2 columns, deliver expects 3"):
        mailbox.exchange(24, num_columns=3)
    assert not mailbox.comm.metrics.records  # nothing was charged
