"""Mailbox lanes: allocation discipline and accounting equivalence.

A superstep is accounted per record (DESIGN.md §9): the mailbox hands the
two narrow rank columns of its stream (one entry per record, a byte up to
256 ranks) to one ``Communicator.exchange_by_rank`` call, and the ledger
counts the (src, dst) lanes when it folds — same-rank lanes free, one
message per lane with traffic. These tests pin down the contracts that
accounting keeps: an idle superstep allocates no per-lane arrays at all,
a close makes that one call and no other, per-lane counts are
metrics-identical to the per-record form, the plain and the reliable
mailbox charge a superstep alike, and delivered record content (including
arrival order) is what the ranks posted. Ranks post and receive through
:mod:`tests.spmd.ranks`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.partition import BlockPartition
from repro.runtime.comm import RELAX_RECORD_BYTES, Communicator
from repro.runtime.machine import MachineConfig
from repro.runtime.metrics import Metrics
from repro.spmd.mailbox import Mailbox
from tests.spmd.ranks import deliver, per_rank, perfect_wire, post

P = 4


def make_comm(p: int = P) -> Communicator:
    machine = MachineConfig(num_ranks=p, threads_per_rank=2)
    return Communicator(machine, BlockPartition(8 * p, p), Metrics(
        num_ranks=p, threads_per_rank=2
    ))


def post_random(mailbox: Mailbox, seed: int, *, rounds: int = 3) -> None:
    """Post a deterministic random mix of batches from every rank."""
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        for src in range(mailbox.num_ranks):
            k = int(rng.integers(0, 6))
            dst = rng.integers(0, mailbox.num_ranks, k)
            post(
                mailbox, src, dst, rng.integers(0, 32, k), rng.integers(0, 100, k)
            )


class TestIdleSuperstep:
    def test_no_per_lane_allocations(self, monkeypatch):
        """Satellite 3: a superstep with no posted records must not build
        any per-lane arrays (historically an O(P²) np.full pattern)."""
        mailbox = Mailbox(P, make_comm())

        def boom(*a, **k):  # pragma: no cover - fails the test if hit
            raise AssertionError("idle exchange must not allocate lane arrays")

        with monkeypatch.context() as patched:
            patched.setattr(np, "full", boom)
            patched.setattr(np, "repeat", boom)
            patched.setattr(np, "concatenate", boom)
            routed = mailbox.exchange(RELAX_RECORD_BYTES, phase_kind="long")
        out = per_rank(mailbox.comm, routed)
        assert len(out) == P
        for cols in out:
            assert all(c.size == 0 and c.dtype == np.int64 for c in cols)

    def test_idle_step_record_still_emitted(self):
        """The zero exchange is still recorded (metrics shape unchanged)."""
        comm = make_comm()
        mailbox = Mailbox(P, comm)
        deliver(mailbox, RELAX_RECORD_BYTES, phase_kind="long")
        assert len(comm.metrics.records) == 1
        rec = comm.metrics.records[0]
        assert rec.bytes_total == 0 and rec.msgs_max == 0

    def test_empty_posted_batches_are_skipped(self):
        """Sending zero-length batches is equivalent to sending nothing."""
        comm = make_comm()
        mailbox = Mailbox(P, comm)
        empty = np.empty(0, dtype=np.int64)
        post(mailbox, 0, empty, empty, empty)
        out = deliver(mailbox, RELAX_RECORD_BYTES)
        assert all(c.size == 0 for cols in out for c in cols)
        assert comm.metrics.records[0].bytes_total == 0


class TestLaneAccountingEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    def test_counts_match_per_record_expansion(self, seed):
        """exchange_by_rank_counts(lanes) == exchange_by_rank(records)."""
        rng = np.random.default_rng(seed)
        k = 25
        src = rng.integers(0, P, k)
        dst = rng.integers(0, P, k)
        cnt = rng.integers(0, 9, k)  # includes zero-count lanes
        by_counts = make_comm()
        by_counts.exchange_by_rank_counts(
            src, dst, cnt, RELAX_RECORD_BYTES, phase_kind="long"
        )
        by_records = make_comm()
        by_records.exchange_by_rank(
            np.repeat(src, cnt), np.repeat(dst, cnt),
            RELAX_RECORD_BYTES, phase_kind="long",
        )
        assert by_counts.metrics.summary() == by_records.metrics.summary()

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_deliver_accounting_matches_reliable(self, seed):
        """Plain and reliable accounting agree on a perfect wire: the plain
        mailbox charges its stream in routing order, the reliable one its
        wire stream."""
        plain_comm, rel_comm = make_comm(), make_comm()
        plain = Mailbox(P, plain_comm)
        reliable = perfect_wire(P, rel_comm)
        post_random(plain, seed)
        post_random(reliable, seed)
        out_p = deliver(plain, RELAX_RECORD_BYTES, phase_kind="long")
        out_r = deliver(reliable, RELAX_RECORD_BYTES, phase_kind="long")
        assert plain_comm.metrics.summary() == rel_comm.metrics.summary()
        for cols_p, cols_r in zip(out_p, out_r):
            for a, b in zip(cols_p, cols_r):
                np.testing.assert_array_equal(a, b)


class TestOneAccountingCall:
    @pytest.mark.parametrize("make", [Mailbox, perfect_wire], ids=["Mailbox", "perfect_wire"])
    @pytest.mark.parametrize("seed", [None, 0, 8])
    def test_a_close_accounts_once_per_record(self, monkeypatch, make, seed):
        """Closing a superstep, idle (``seed`` None) or not, makes exactly
        one ``exchange_by_rank`` call, with one rank pair per record, and
        never charges per-lane counts."""
        calls = []
        by_rank = Communicator.exchange_by_rank

        def spy(self, src_ranks, dst_ranks, *args, **kwargs):
            calls.append(len(src_ranks))
            return by_rank(self, src_ranks, dst_ranks, *args, **kwargs)

        def counts(*args, **kwargs):  # pragma: no cover - fails the test if hit
            raise AssertionError("a superstep must not account per-lane counts")

        monkeypatch.setattr(Communicator, "exchange_by_rank", spy)
        monkeypatch.setattr(Communicator, "exchange_by_rank_counts", counts)
        mailbox = make(P, make_comm())
        if seed is not None:
            post_random(mailbox, seed)
        records = sum(len(src) for src, _, _ in mailbox._outbox)
        routed = mailbox.exchange(RELAX_RECORD_BYTES, phase_kind="long", num_columns=3)
        assert calls == [records] and routed[0].size == records


class TestDeliveryContent:
    @pytest.mark.parametrize("seed", [0, 1, 6])
    def test_content_and_order(self, seed):
        """Each receiver gets exactly its records, in (src asc, post order)."""
        rng = np.random.default_rng(seed)
        mailbox = Mailbox(P, make_comm())
        expected: list[list[tuple[int, int]]] = [[] for _ in range(P)]
        for src in range(P):
            for _ in range(3):
                k = int(rng.integers(1, 7))
                dst = np.sort(rng.integers(0, P, k))
                v = rng.integers(0, 32, k)
                w = rng.integers(0, 100, k)
                post(mailbox, src, dst, v, w)
                for r, vv, ww in zip(dst, v, w):
                    expected[r].append((int(vv), int(ww)))
        out = deliver(mailbox, RELAX_RECORD_BYTES)
        for r in range(P):
            got = list(zip(out[r][0].tolist(), out[r][1].tolist()))
            assert got == expected[r]

    def test_single_destination_post_fast_path(self):
        """A batch addressed to one rank skips the segmentation sort but
        must deliver identically to the general path."""
        fast = Mailbox(P, make_comm())
        post(fast, 0, np.array([2, 2, 2]), np.array([5, 6, 7]),
             np.array([50, 60, 70]))
        slow = Mailbox(P, make_comm())
        post(slow, 0, np.array([2, 1, 2]), np.array([5, 9, 6]),
             np.array([50, 90, 60]))
        out_f = deliver(fast, RELAX_RECORD_BYTES)
        out_s = deliver(slow, RELAX_RECORD_BYTES)
        np.testing.assert_array_equal(out_f[2][0], [5, 6, 7])
        np.testing.assert_array_equal(out_f[2][1], [50, 60, 70])
        np.testing.assert_array_equal(out_s[2][0], [5, 6])
        np.testing.assert_array_equal(out_s[1][0], [9])

    def test_out_of_range_destination_rejected(self):
        """A vertex past the graph has no owning rank: ``send`` reads both
        rank columns off the owner table, which holds 8·P vertices."""
        mailbox = Mailbox(P, make_comm())
        with pytest.raises(IndexError, match="out of bounds"):
            mailbox.send(np.array([0]), np.array([8 * P]), np.array([1]))
        with pytest.raises(IndexError, match="out of bounds"):
            mailbox.send(np.array([8 * P]), np.array([0]), np.array([1]))
        assert mailbox._outbox == []
