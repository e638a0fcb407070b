"""The one-key mailbox ≡ the router it replaced; one ``send`` ≡ per-rank ones.

The outbox holds every batch as it was queued, ``(src_ranks, dst_ranks,
columns)`` with one narrow rank entry per record, and a superstep routes
on the single key ``dst·P + src``. Until then the mailbox kept per-batch
sender lists, drained the queue into sender order piece by piece
(``_drain``), rebuilt the source ranks with ``np.repeat``, sorted on the
destination (``_route``) and read the lanes off the run boundaries of the
routed rank columns. :class:`ParentMailbox` is that code, kept here and
nowhere else, and the hypothesis test holds the mailbox to it on both
sides of every key-width boundary: ``exchange`` columns, the per-rank
cuts, ``Metrics.records`` and the reliable wire stream — record ids,
sequence numbers and fault victims hang on its order; a batch of one
rank's records is held to the parent's ``post``.

``send`` of a whole-frontier batch must leave what P ranks sending their
own shares leave: the same records, and in sender order the same stream.
"""

from __future__ import annotations

from itertools import accumulate
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.comm import RELAX_RECORD_BYTES
from repro.spmd.mailbox import Mailbox, _stream
from tests.spmd.ranks import first_vertex, per_rank, perfect_wire
from tests.spmd.test_mailbox_router import make_comm, sort_key_dtypes  # noqa: F401 (a fixture)

VERTICES_PER_RANK = 8  # make_comm's block partition


class ParentMailbox:
    """The router of the parent commit: ``post``/``send`` keep per-batch
    sender lists, ``_drain`` orders the pieces by sender, ``_route`` sorts
    on the destination, lanes are the runs of the routed rank columns.
    Verbatim but for the tracer and the validation ``post`` does."""

    def __init__(self, num_ranks, comm):
        self.num_ranks = num_ranks
        self.comm = comm
        self._rank_dtype = np.min_scalar_type(num_ranks - 1)
        self._outbox = []

    def post(self, src_rank, dst_ranks, *columns):
        dst_ranks = np.asarray(dst_ranks, dtype=np.int64)
        if dst_ranks.size:
            self._outbox.append((
                [src_rank], [dst_ranks.size], dst_ranks.astype(self._rank_dtype),
                tuple(np.asarray(c) for c in columns),
            ))

    def send(self, src, dst, *cols):
        owner = self.comm.partition.owner
        sizes = np.bincount(owner(src), minlength=self.num_ranks)
        senders = np.flatnonzero(sizes)
        if senders.size:
            self._outbox.append((
                senders.tolist(), sizes[senders].tolist(),
                owner(dst).astype(self._rank_dtype), (dst, *cols),
            ))

    def _drain(self):
        queued, self._outbox = self._outbox, []
        if not queued:
            return None
        if len(queued) == 1:
            ((senders, sizes, dst, columns),) = queued
        else:
            pieces = [
                (sender, size, dst[stop - size : stop],
                 tuple(col[stop - size : stop] for col in columns))
                for senders, sizes, dst, columns in queued
                for sender, size, stop in zip(senders, sizes, accumulate(sizes))
            ]
            pieces.sort(key=itemgetter(0))
            senders, sizes, dsts, cols = zip(*pieces)
            dst = np.concatenate(dsts)
            columns = tuple(np.concatenate(col) for col in zip(*cols))
        sizes = np.array(sizes, dtype=np.int64)
        src = np.repeat(np.array(senders, dtype=self._rank_dtype), sizes)
        return src, dst, columns, sizes

    def _route(self, dst_ranks):
        cuts = np.zeros(self.num_ranks + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst_ranks, minlength=self.num_ranks), out=cuts[1:])
        narrow = dst_ranks.astype(np.min_scalar_type(self.num_ranks - 1), copy=False)
        return np.argsort(narrow, kind="stable"), cuts

    def _close(self, record_bytes, phase_kind, num_columns):
        stream = self._drain()
        if stream is None:
            lane_src = lane_dst = lane_cnt = np.empty(0, dtype=np.int64)
            empty = np.empty(0, dtype=np.int64)
            routed = (empty,) * num_columns
            cuts = np.zeros(self.num_ranks + 1, dtype=np.int64)
        else:
            src, dst, columns, _sizes = stream
            order, cuts = self._route(dst)
            src, dst = src[order], dst[order]
            first = np.concatenate(
                ([0], np.flatnonzero((dst[1:] != dst[:-1]) | (src[1:] != src[:-1])) + 1)
            )
            lane_src, lane_dst = src[first], dst[first]
            lane_cnt = np.diff(first, append=src.size)
            routed = tuple(col[order] for col in columns)
        self.comm.exchange_by_rank_counts(
            lane_src, lane_dst, lane_cnt, record_bytes, phase_kind=phase_kind
        )
        return routed, cuts

    def exchange(self, record_bytes, *, phase_kind="other", num_columns=2):
        return self._close(record_bytes, phase_kind, num_columns)[0]

    def deliver(self, record_bytes, *, phase_kind="other", num_columns=2):
        routed, cuts = self._close(record_bytes, phase_kind, num_columns)
        bounds = cuts.tolist()
        return [tuple(c[lo:hi] for c in routed) for lo, hi in zip(bounds[:-1], bounds[1:])]

    def _wire_stream(self, num_columns):
        stream = self._drain()
        if stream is None:
            none = np.empty(0, dtype=np.int64)
            return none, none, (none,) * num_columns
        src, dst, cols, sizes = stream
        p = self.num_ranks
        post_key = np.arange(sizes.size, dtype=np.int64) * p
        key = np.repeat(post_key, sizes) + dst
        order = np.argsort(key.astype(np.min_scalar_type(sizes.size * p - 1)), kind="stable")
        src, dst = src[order].astype(np.int64), dst[order].astype(np.int64)
        return src, dst, tuple(c[order] for c in cols)


# ----------------------------------------------------------------------
# Supersteps
# ----------------------------------------------------------------------
def _frontier(rng, p):
    """``src`` of a whole-frontier batch: grouped by owning rank, ranks
    ascending, any order inside a rank, some ranks sending nothing."""
    share = rng.choice([0.0, 0.5, 1.0])
    senders = np.flatnonzero(rng.random(p) < share)
    return np.concatenate([
        rng.integers(r * VERTICES_PER_RANK, (r + 1) * VERTICES_PER_RANK,
                     int(rng.integers(1, 7)))
        for r in senders
    ] + [np.empty(0, dtype=np.int64)]).astype(np.int64)


@st.composite
def supersteps(draw, ranks=(1, 2, 8)):
    """(P, batches): each batch is ``(src, dst, payload)`` over global
    vertex ids, ``src`` a whole frontier (:func:`_frontier`)."""
    p = draw(st.sampled_from(ranks))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    batches = []
    for tag in range(draw(st.integers(0, 3))):
        src = _frontier(rng, p)
        dst = rng.integers(0, VERTICES_PER_RANK * p, src.size)
        payload = np.arange(src.size, dtype=np.int64) + 1000 * (tag + 1)
        batches.append((src, dst, payload))
    return p, batches


@st.composite
def mixed_supersteps(draw):
    """(P, batches) over rank counts on both sides of every key-width
    boundary (``dst·P + src`` past a byte at P = 17, past two at 257):
    0–3 batches, each a whole frontier or one rank's records."""
    p, frontiers = draw(supersteps(ranks=(1, 2, 8, 16, 17, 256, 257)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    batches = []
    for src, dst, payload in frontiers:
        if draw(st.booleans()):
            batches.append(("send", src, dst, payload))
        else:
            rank = int(rng.integers(0, p))
            batches.append(("post", rank, dst, payload))
    return p, batches


def fill(mailbox, p: int, batches, how: str) -> None:
    owner = mailbox.comm.partition.owner
    for src, dst, payload in batches:
        if how == "send":
            mailbox.send(src, dst, payload)
            continue
        # What P rank views did: every rank sends its own share of the batch.
        for rank in range(p):
            mine = owner(src) == rank
            mailbox.send(src[mine], dst[mine], payload[mine])


def fill_mixed(mailbox, batches) -> None:
    owner = mailbox.comm.partition.owner
    for how, src, dst, payload in batches:
        if how == "send":
            mailbox.send(src, dst, payload)
        elif isinstance(mailbox, ParentMailbox):
            mailbox.post(src, owner(dst), dst, payload)
        else:  # rank ``src``'s records, sent from the first vertex it owns
            rank = np.full(dst.size, first_vertex(mailbox.comm, src))
            mailbox.send(rank, dst, payload)


def both(mailbox_type, p, batches):
    pair = []
    for how in ("send", "post"):
        mailbox = mailbox_type(p, make_comm(p))
        fill(mailbox, p, batches, how)
        pair.append(mailbox)
    return pair


def in_sender_order(mailbox):
    """The queued stream stably ordered by sender: what ``_drain`` made."""
    if not mailbox._outbox:
        return None
    src, dst, cols = _stream(mailbox._outbox)
    order = np.argsort(src, kind="stable")
    return src[order], dst[order], tuple(c[order] for c in cols)


def assert_columns_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def assert_streams_equal(got, want):
    assert (got is None) == (want is None)
    if got is not None:
        assert_columns_equal(got[:2], want[:2])
        assert_columns_equal(got[2], want[2])


# ----------------------------------------------------------------------
# The mailbox ≡ the parent's router
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(mixed_supersteps())
def test_routes_like_the_parent(superstep):
    p, batches = superstep
    boxes = {}
    for name, make in (("new", Mailbox), ("old", ParentMailbox)):
        boxes[name] = [make(p, make_comm(p)) for _ in range(2)]
        for box in boxes[name]:
            fill_mixed(box, batches)
    new, old = boxes["new"], boxes["old"]
    assert_columns_equal(new[0].exchange(RELAX_RECORD_BYTES, phase_kind="long"),
                         old[0].exchange(RELAX_RECORD_BYTES, phase_kind="long"))
    # The parent sliced at its cuts: equal inboxes are equal cuts.
    routed = new[1].exchange(RELAX_RECORD_BYTES)
    for got, want in zip(per_rank(new[1].comm, routed),
                         old[1].deliver(RELAX_RECORD_BYTES), strict=True):
        assert_columns_equal(got, want)
    for n, o in zip(new, old):
        assert n.comm.metrics.records == o.comm.metrics.records
    reliable, oracle = perfect_wire(p, make_comm(p)), ParentMailbox(p, make_comm(p))
    fill_mixed(reliable, batches)
    fill_mixed(oracle, batches)
    src_g, dst_g, cols_g = reliable._wire_stream(2)
    src_w, dst_w, cols_w = oracle._wire_stream(2)
    assert_columns_equal((src_g, dst_g, *cols_g), (src_w, dst_w, *cols_w))
    assert src_g.dtype == dst_g.dtype == np.int64  # the protocol's channel ids


# ----------------------------------------------------------------------
# one send ≡ per-rank sends
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(supersteps())
def test_send_leaves_the_stream_of_per_rank_posts(superstep):
    p, batches = superstep
    sent, posted = both(Mailbox, p, batches)
    want = ParentMailbox(p, make_comm(p))
    fill(want, p, batches, "post")
    drained = want._drain()
    assert_streams_equal(in_sender_order(sent), in_sender_order(posted))
    assert_streams_equal(in_sender_order(sent), drained and drained[:3])


@settings(max_examples=200, deadline=None)
@given(supersteps())
def test_send_leaves_the_wire_stream_of_per_rank_posts(superstep):
    p, batches = superstep
    sent, posted = both(perfect_wire, p, batches)
    src_s, dst_s, cols_s = sent._wire_stream(2)
    src_p, dst_p, cols_p = posted._wire_stream(2)
    np.testing.assert_array_equal(src_s, src_p)
    np.testing.assert_array_equal(dst_s, dst_p)
    for g, w in zip(cols_s, cols_p):
        np.testing.assert_array_equal(g, w)
    assert src_s.dtype == dst_s.dtype == np.int64  # the protocol's channel ids


@settings(max_examples=150, deadline=None)
@given(supersteps(), st.sampled_from([Mailbox, perfect_wire]))
def test_send_delivers_and_accounts_like_per_rank_posts(superstep, mailbox_type):
    p, batches = superstep
    sent, posted = both(mailbox_type, p, batches)
    routed = sent.exchange(RELAX_RECORD_BYTES, phase_kind="long")
    inboxes = per_rank(
        posted.comm, posted.exchange(RELAX_RECORD_BYTES, phase_kind="long")
    )
    # One send's routed stream is the per-rank sends' inboxes, receivers ascending.
    for column, slices in zip(routed, zip(*inboxes)):
        np.testing.assert_array_equal(column, np.concatenate(slices))
    owner = sent.comm.partition.owner
    assert np.all(np.diff(owner(routed[0])) >= 0)
    assert sent.comm.metrics.records == posted.comm.metrics.records
    assert sent.comm.metrics.summary() == posted.comm.metrics.summary()


# ----------------------------------------------------------------------
# The outbox
# ----------------------------------------------------------------------
def test_two_batches_interleave_by_sender():
    """The IOS push superstep: long records (A) then outer-short records
    (B), each a whole frontier. Both are queued as sent; the key puts
    every receiver's records in (sender, batch, position) order, and the
    wire goes out post by post — r0·A, r0·B, r1·A, r1·B."""
    mailbox = Mailbox(2, make_comm(2))
    a = np.array([0, 1, 9], dtype=np.int64)          # ranks 0, 0, 1
    b = np.array([2, 8, 10], dtype=np.int64)         # ranks 0, 1, 1
    mailbox.send(a, np.array([8, 0, 1]), np.array([10, 11, 12]))
    mailbox.send(b, np.array([1, 2, 3]), np.array([20, 21, 22]))
    (src_a, dst_a, _), (src_b, dst_b, _) = mailbox._outbox
    assert src_a.tolist() == [0, 0, 1] and dst_a.tolist() == [1, 0, 0]
    assert src_b.tolist() == [0, 1, 1] and dst_b.tolist() == [0, 0, 0]
    inboxes = per_rank(mailbox.comm, mailbox.exchange(RELAX_RECORD_BYTES))
    assert [payload.tolist() for _, payload in inboxes] == [[11, 20, 12, 21, 22], [10]]
    assert [vertex.tolist() for vertex, _ in inboxes] == [[0, 1, 1, 2, 3], [8]]

    reliable = perfect_wire(2, make_comm(2))
    reliable.send(a, np.array([8, 0, 1]), np.array([10, 11, 12]))
    reliable.send(b, np.array([1, 2, 3]), np.array([20, 21, 22]))
    src, dst, (_, payload) = reliable._wire_stream(2)
    assert payload.tolist() == [11, 10, 20, 12, 21, 22]
    assert src.tolist() == [0, 0, 0, 1, 1, 1]
    assert dst.tolist() == [0, 1, 0, 0, 0, 0]


def test_one_batch_is_the_stream_uncopied():
    mailbox = Mailbox(4, make_comm(4))
    src = np.array([1, 0, 17, 16, 16], dtype=np.int64)  # rank-grouped, unsorted inside
    dst = np.array([31, 2, 0, 5, 24], dtype=np.int64)
    payload = np.arange(5, dtype=np.int64)
    mailbox.send(src, dst, payload)
    ((ranks, dst_ranks, (col0, col1)),) = mailbox._outbox
    assert col0 is dst and col1 is payload
    assert ranks.tolist() == [0, 0, 2, 2, 2]
    assert dst_ranks.tolist() == [3, 0, 0, 0, 3]
    # The per-record rank columns are a byte wide up to 256 ranks.
    assert ranks.dtype == dst_ranks.dtype == np.uint8
    stream = _stream(mailbox._outbox)
    assert all(g is w for g, w in zip(stream, mailbox._outbox[0]))
    (vertex, routed) = mailbox.exchange(RELAX_RECORD_BYTES)
    assert vertex.tolist() == [2, 0, 5, 31, 24] and routed.tolist() == [1, 2, 3, 0, 4]
    assert mailbox._outbox == []


@pytest.mark.parametrize(
    "p, dtype", [(16, np.uint8), (17, np.uint8), (256, np.uint8), (257, np.uint16)]
)
def test_rank_columns_widen_with_the_rank_count(p, dtype, sort_key_dtypes):
    """Rank columns hold ``P − 1``; the key ``dst·P + src`` holds ``P² − 1``
    (a byte up to 16 ranks, two up to 256). Two batches out of sender
    order sort on the whole key; one batch sorts on ``dst`` alone."""
    last = VERTICES_PER_RANK * p - 1
    mailbox = Mailbox(p, make_comm(p))
    mailbox.send(np.array([last]), np.array([last]), np.array([1]))
    mailbox.send(np.array([0]), np.array([0]), np.array([2]))
    for src, dst, _ in mailbox._outbox:
        assert src.dtype == dst.dtype == dtype
    assert [s.tolist() for s, _, _ in mailbox._outbox] == [[p - 1], [0]]
    vertex, payload = mailbox.exchange(RELAX_RECORD_BYTES)
    assert vertex.tolist() == [0, last] and payload.tolist() == [2, 1]
    assert sort_key_dtypes == [np.min_scalar_type(p * p - 1)]
    assert mailbox._key_dtype == np.min_scalar_type(p * p - 1)

    del sort_key_dtypes[:]
    mailbox.send(np.array([0, last]), np.array([last, 0]), np.array([1, 2]))
    mailbox.exchange(RELAX_RECORD_BYTES)
    assert sort_key_dtypes == [dtype]


def test_empty_batch_queues_nothing_and_column_count_is_checked():
    mailbox = Mailbox(2, make_comm(2))
    none = np.empty(0, dtype=np.int64)
    mailbox.send(none, none, none)
    assert mailbox._outbox == []
    mailbox.send(np.array([0]), np.array([9]), np.array([1]))
    with pytest.raises(ValueError, match="posted 2 columns, exchange expects 3"):
        mailbox.exchange(24, num_columns=3)
    assert not mailbox.comm.metrics.records  # nothing was charged
