"""Router ≡ per-sender segmentation (DESIGN.md §9).

Until PR 19 ``Mailbox.post`` segmented every batch by destination on the
spot (``argsort`` → run bounds → one tuple per (post, destination) lane) and
``deliver`` merged the lane tuples per receiver; the reliable mailbox
flattened the same lanes into its wire stream. The mailbox now appends at
``post`` and routes the whole superstep once. :class:`SegmentedOracle` is the
old code, kept here and nowhere else, and these tests hold the router to
it: each receiver's columns equal in content *and order*, the reliable wire
stream equal element for element (fault plans key off stream positions),
``Metrics.records`` equal field for field — and the routing key's integer
width follows the largest key, on both sides of every width boundary.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.partition import BlockPartition
from repro.runtime.comm import RELAX_RECORD_BYTES, Communicator
from repro.runtime.machine import MachineConfig
from repro.runtime.metrics import Metrics
from repro.spmd import mailbox as mailbox_module
from repro.spmd.mailbox import Mailbox, ReliableMailbox


def make_comm(p: int) -> Communicator:
    machine = MachineConfig(num_ranks=p, threads_per_rank=2)
    return Communicator(
        machine, BlockPartition(8 * p, p), Metrics(num_ranks=p, threads_per_rank=2)
    )


class SegmentedOracle:
    """The per-sender segmentation of the parent commit, verbatim but for
    the validation ``post`` still does."""

    def __init__(self, num_ranks: int, comm: Communicator) -> None:
        self.num_ranks = num_ranks
        self.comm = comm
        self._outbox = [[] for _ in range(num_ranks)]

    def post(self, src_rank, dst_ranks, *columns) -> None:
        dst_ranks = np.asarray(dst_ranks, dtype=np.int64)
        if dst_ranks.size == 0:
            return
        lo, hi = int(dst_ranks.min()), int(dst_ranks.max())
        if lo == hi:
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

    def deliver(self, record_bytes, *, phase_kind="other", num_columns=2):
        p = self.num_ranks
        lane_src, lane_dst, lane_cnt = [], [], []
        inbox = [[] for _ in range(p)]
        for src in range(p):
            for dst, cols in self._outbox[src]:
                lane_src.append(src)
                lane_dst.append(dst)
                lane_cnt.append(cols[0].size)
                inbox[dst].append(cols)
        self._outbox = [[] for _ in range(p)]
        self.comm.exchange_by_rank_counts(
            np.asarray(lane_src, dtype=np.int64),
            np.asarray(lane_dst, dtype=np.int64),
            np.asarray(lane_cnt, dtype=np.int64),
            record_bytes,
            phase_kind=phase_kind,
        )
        return [
            tuple(
                np.concatenate([batch[i] for batch in batches])
                if batches
                else np.empty(0, dtype=np.int64)
                for i in range(num_columns)
            )
            for batches in inbox
        ]

    def flatten(self, num_columns=2):
        """The reliable mailbox's wire stream: ``(src, dst, columns)``."""
        src, dst, cnt = [], [], []
        parts = [[] for _ in range(num_columns)]
        for s in range(self.num_ranks):
            for d, cols in self._outbox[s]:
                src.append(s)
                dst.append(d)
                cnt.append(cols[0].size)
                for i in range(num_columns):
                    parts[i].append(cols[i])
        self._outbox = [[] for _ in range(self.num_ranks)]
        if not cnt:
            none = np.empty(0, dtype=np.int64)
            return none, none, (none,) * num_columns
        return (
            np.repeat(np.asarray(src, dtype=np.int64), cnt),
            np.repeat(np.asarray(dst, dtype=np.int64), cnt),
            tuple(np.concatenate(c) for c in parts),
        )


# ----------------------------------------------------------------------
# Supersteps: (P, number of columns, [(src, dst_ranks, columns), ...])
# ----------------------------------------------------------------------
def _columns(dst_ranks, num_columns, tag):
    """Distinct payloads, so a misplaced record cannot go unnoticed."""
    k = len(dst_ranks)
    return tuple(
        np.arange(k, dtype=np.int64) + 1000 * (tag + 1) + 100_000 * i
        for i in range(num_columns)
    )


@st.composite
def supersteps(draw):
    p = draw(st.sampled_from([1, 2, 4, 8]))
    num_columns = draw(st.sampled_from([2, 3]))
    posts = []
    for src in range(p):
        for _ in range(draw(st.integers(0, 3))):
            k = draw(st.integers(0, 50))
            shape = draw(st.sampled_from(["mixed", "single", "self"]))
            if shape == "mixed":
                dst = draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k))
            elif shape == "single":
                dst = [draw(st.integers(0, p - 1))] * k
            else:
                dst = [src] * k
            dst = np.asarray(dst, dtype=np.int64)
            posts.append((src, dst, _columns(dst, num_columns, len(posts))))
    return p, num_columns, posts


def _post(num_columns, raw):
    return [
        (src, np.asarray(dst, dtype=np.int64),
         _columns(dst, num_columns, i))
        for i, (src, dst) in enumerate(raw)
    ]


ADVERSARIAL = {
    "nothing-posted": (4, 2, []),
    "only-empty-posts": (4, 2, _post(2, [(0, []), (3, [])])),
    "one-record": (4, 2, _post(2, [(2, [1])])),
    # IOS-shaped: the inner and the outer short arcs of one sender go out
    # as two posts of the same superstep, to the same destination.
    "ios-two-posts-one-lane": (4, 2, _post(2, [(1, [3, 3, 0]), (1, [3, 2, 3, 3])])),
    "all-to-self": (4, 3, _post(3, [(r, [r] * 5) for r in range(4)])),
    "descending": (8, 2, _post(2, [(0, list(range(7, -1, -1)) * 3)])),
    "everyone-to-one": (8, 2, _post(2, [(r, [5] * (r + 1)) for r in range(8)])),
    "one-to-everyone-twice": (8, 3, _post(3, [(6, list(range(8))), (6, list(range(8)))])),
    "interleaved-empties": (
        4, 2, _post(2, [(0, []), (0, [1, 0, 1]), (2, []), (3, [0, 0]), (3, [])])
    ),
    "single-rank": (1, 2, _post(2, [(0, [0, 0, 0]), (0, [0])])),
    "last-rank-only": (8, 2, _post(2, [(7, [7, 0, 7, 0])])),
}


def _assert_inboxes_equal(got, want):
    assert len(got) == len(want)
    for cols_g, cols_w in zip(got, want):
        assert len(cols_g) == len(cols_w)
        for g, w in zip(cols_g, cols_w):
            np.testing.assert_array_equal(g, w)


def check_superstep(p, num_columns, posts, mailbox_type):
    comm, oracle_comm = make_comm(p), make_comm(p)
    mailbox = mailbox_type(p, comm)
    oracle = SegmentedOracle(p, oracle_comm)
    for src, dst, cols in posts:
        mailbox.post(src, dst, *cols)
        oracle.post(src, dst, *cols)
    got = mailbox.deliver(
        RELAX_RECORD_BYTES, phase_kind="short", num_columns=num_columns
    )
    want = oracle.deliver(
        RELAX_RECORD_BYTES, phase_kind="short", num_columns=num_columns
    )
    _assert_inboxes_equal(got, want)
    assert comm.metrics.records == oracle_comm.metrics.records
    assert comm.metrics.summary() == oracle_comm.metrics.summary()


def check_wire_stream(p, num_columns, posts):
    mailbox = ReliableMailbox(p, make_comm(p))
    oracle = SegmentedOracle(p, make_comm(p))
    for src, dst, cols in posts:
        mailbox.post(src, dst, *cols)
        oracle.post(src, dst, *cols)
    src_g, dst_g, cols_g = mailbox._wire_stream(num_columns)
    src_w, dst_w, cols_w = oracle.flatten(num_columns)
    np.testing.assert_array_equal(src_g, src_w)
    np.testing.assert_array_equal(dst_g, dst_w)
    for g, w in zip(cols_g, cols_w):
        np.testing.assert_array_equal(g, w)


# ----------------------------------------------------------------------
class TestRouterEqualsSegmentation:
    @settings(max_examples=150, deadline=None)
    @given(supersteps())
    def test_mailbox(self, superstep):
        check_superstep(*superstep, Mailbox)

    @settings(max_examples=100, deadline=None)
    @given(supersteps())
    def test_reliable_mailbox_on_the_perfect_wire(self, superstep):
        check_superstep(*superstep, ReliableMailbox)

    @settings(max_examples=150, deadline=None)
    @given(supersteps())
    def test_reliable_wire_stream(self, superstep):
        check_wire_stream(*superstep)

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL))
    @pytest.mark.parametrize("mailbox_type", [Mailbox, ReliableMailbox])
    def test_adversarial(self, name, mailbox_type):
        check_superstep(*ADVERSARIAL[name], mailbox_type)

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL))
    def test_adversarial_wire_stream(self, name):
        check_wire_stream(*ADVERSARIAL[name])

    def test_two_posts_on_one_lane_are_one_message(self):
        """The IOS shape: the lane is declared once with the summed count,
        which the accounting cannot tell from two declarations."""
        comm = make_comm(4)
        mailbox = Mailbox(4, comm)
        for src, dst, cols in ADVERSARIAL["ios-two-posts-one-lane"][2]:
            mailbox.post(src, dst, *cols)
        mailbox.deliver(RELAX_RECORD_BYTES, phase_kind="short")
        (record,) = comm.metrics.records
        assert record.msgs_max == 3  # rank 1 to ranks 0, 2 and 3
        assert record.bytes_total == 7 * RELAX_RECORD_BYTES

    def test_consecutive_supersteps_do_not_leak(self):
        """The outbox is empty after a deliver, whichever path it took."""
        for mailbox_type in (Mailbox, ReliableMailbox):
            mailbox = mailbox_type(4, make_comm(4))
            mailbox.post(0, np.array([1, 2]), np.array([5, 6]), np.array([7, 8]))
            mailbox.deliver(RELAX_RECORD_BYTES)
            out = mailbox.deliver(RELAX_RECORD_BYTES)
            assert all(c.size == 0 for cols in out for c in cols)

    def test_inboxes_are_slices_of_one_routed_column(self):
        mailbox = Mailbox(4, make_comm(4))
        mailbox.post(0, np.array([3, 1, 3]), np.array([5, 6, 7]), np.array([1, 2, 3]))
        mailbox.post(2, np.array([1]), np.array([9]), np.array([4]))
        out = mailbox.deliver(RELAX_RECORD_BYTES)
        assert np.shares_memory(out[1][0], out[3][0].base)


# ----------------------------------------------------------------------
# The key width follows the largest key
# ----------------------------------------------------------------------
@pytest.fixture
def sort_key_dtypes(monkeypatch):
    """Dtypes of the arrays ``repro/spmd/mailbox.py`` hands to
    ``np.argsort`` (the oracle and the accounting sort too; not recorded)."""
    seen = []
    argsort = np.argsort

    def spy(a, *args, **kwargs):
        if sys._getframe(1).f_code.co_filename == mailbox_module.__file__:
            seen.append(np.asarray(a).dtype)
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    return seen


def _wide_posts(p, num_posts, seed):
    """``num_posts`` small posts over ``p`` ranks; the last one reaches the
    last rank, so the largest key is really there."""
    rng = np.random.default_rng(seed)
    raw = []
    for i in range(num_posts):
        dst = rng.integers(0, p, int(rng.integers(1, 5))).tolist()
        raw.append((i * p // num_posts, dst))
    raw[-1] = (p - 1, [p - 1, 0, p - 1])
    return _post(2, raw)


class TestKeyWidth:
    # 127/128 and 255/256: the last values a signed and an unsigned byte hold.
    @pytest.mark.parametrize("p", [128, 129, 256, 257, 300])
    def test_destination_key_past_a_byte(self, p, sort_key_dtypes):
        posts = _wide_posts(p, 40, seed=p)
        check_superstep(p, 2, posts, Mailbox)
        (dtype,) = sort_key_dtypes  # one routing sort per deliver
        assert np.iinfo(dtype).max >= p - 1
        assert dtype == np.min_scalar_type(p - 1)

    # P = 300: ordinal * P + dst crosses 2**15 between 109 and 110 posts
    # and 2**16 between 218 and 219.
    @pytest.mark.parametrize("num_posts", [109, 110, 218, 219, 400])
    def test_order_key_past_two_bytes(self, num_posts, sort_key_dtypes):
        p = 300
        posts = _wide_posts(p, num_posts, seed=num_posts)
        check_wire_stream(p, 2, posts)
        max_key = num_posts * p - 1
        (dtype,) = sort_key_dtypes
        assert np.iinfo(dtype).max >= max_key
        assert dtype == np.min_scalar_type(max_key)
        check_superstep(p, 2, posts, ReliableMailbox)

    def test_width_is_not_a_function_of_the_rank_count(self, sort_key_dtypes):
        """Eight ranks fit a byte; forty posts over eight ranks do not."""
        p = 8
        posts = _wide_posts(p, 40, seed=1)
        check_wire_stream(p, 2, posts)
        assert sort_key_dtypes == [np.uint16]
        del sort_key_dtypes[:]
        check_superstep(p, 2, posts, Mailbox)
        assert sort_key_dtypes == [np.uint8]
