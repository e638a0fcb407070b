"""Batched mailbox lanes: allocation discipline and accounting equivalence.

The deliver hot path is lane-batched (DESIGN.md §9): empty (src, dst) lanes
are skipped and traffic is accounted from per-lane counts — the non-zero
entries of one ``bincount`` of the routing key. The per-record src/dst rank
columns the key is made of are materialised, one narrow entry per record
(a byte up to 256 ranks), and never handed to the accounting; no per-lane
table is built for an idle superstep. These tests pin down the three
contracts that refactor must keep: an idle superstep allocates no per-lane
arrays at all, the lane-count accounting is metrics-identical to the
per-record accounting it replaced, and delivered record content (including
arrival order) is unchanged — for both the plain and the reliable mailbox.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.partition import BlockPartition
from repro.runtime.comm import RELAX_RECORD_BYTES, Communicator
from repro.runtime.machine import MachineConfig
from repro.runtime.metrics import Metrics
from repro.spmd.mailbox import Mailbox, ReliableMailbox

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
            mailbox.post(
                src, dst, rng.integers(0, 32, k), rng.integers(0, 100, k)
            )


class TestIdleSuperstep:
    def test_no_per_lane_allocations(self, monkeypatch):
        """Satellite 3: a superstep with no posted records must not build
        any per-lane arrays (historically an O(P²) np.full pattern)."""
        mailbox = Mailbox(P, make_comm())

        def boom(*a, **k):  # pragma: no cover - fails the test if hit
            raise AssertionError("idle deliver must not allocate lane arrays")

        monkeypatch.setattr(np, "full", boom)
        monkeypatch.setattr(np, "repeat", boom)
        monkeypatch.setattr(np, "concatenate", boom)
        out = mailbox.deliver(RELAX_RECORD_BYTES, phase_kind="long")
        assert len(out) == P
        for cols in out:
            assert all(c.size == 0 and c.dtype == np.int64 for c in cols)

    def test_idle_step_record_still_emitted(self):
        """The zero exchange is still recorded (metrics shape unchanged)."""
        comm = make_comm()
        mailbox = Mailbox(P, comm)
        mailbox.deliver(RELAX_RECORD_BYTES, phase_kind="long")
        assert len(comm.metrics.records) == 1
        rec = comm.metrics.records[0]
        assert rec.bytes_total == 0 and rec.msgs_max == 0

    def test_empty_posted_batches_are_skipped(self):
        """Posting zero-length batches is equivalent to posting nothing."""
        comm = make_comm()
        mailbox = Mailbox(P, comm)
        empty = np.empty(0, dtype=np.int64)
        mailbox.post(0, empty, empty, empty)
        out = mailbox.deliver(RELAX_RECORD_BYTES)
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
        """Plain (lane-count) and reliable (per-record) accounting agree on
        a perfect wire — they charge the same exchange two different ways."""
        plain_comm, rel_comm = make_comm(), make_comm()
        plain = Mailbox(P, plain_comm)
        reliable = ReliableMailbox(P, rel_comm)
        post_random(plain, seed)
        post_random(reliable, seed)
        out_p = plain.deliver(RELAX_RECORD_BYTES, phase_kind="long")
        out_r = reliable.deliver(RELAX_RECORD_BYTES, phase_kind="long")
        assert plain_comm.metrics.summary() == rel_comm.metrics.summary()
        for cols_p, cols_r in zip(out_p, out_r):
            for a, b in zip(cols_p, cols_r):
                np.testing.assert_array_equal(a, b)


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
                mailbox.post(src, dst, v, w)
                for r, vv, ww in zip(dst, v, w):
                    expected[r].append((int(vv), int(ww)))
        out = mailbox.deliver(RELAX_RECORD_BYTES)
        for r in range(P):
            got = list(zip(out[r][0].tolist(), out[r][1].tolist()))
            assert got == expected[r]

    def test_single_destination_post_fast_path(self):
        """A batch addressed to one rank skips the segmentation sort but
        must deliver identically to the general path."""
        fast = Mailbox(P, make_comm())
        fast.post(0, np.array([2, 2, 2]), np.array([5, 6, 7]),
                  np.array([50, 60, 70]))
        slow = Mailbox(P, make_comm())
        slow.post(0, np.array([2, 1, 2]), np.array([5, 9, 6]),
                  np.array([50, 90, 60]))
        out_f = fast.deliver(RELAX_RECORD_BYTES)
        out_s = slow.deliver(RELAX_RECORD_BYTES)
        np.testing.assert_array_equal(out_f[2][0], [5, 6, 7])
        np.testing.assert_array_equal(out_f[2][1], [50, 60, 70])
        np.testing.assert_array_equal(out_s[2][0], [5, 6])
        np.testing.assert_array_equal(out_s[1][0], [9])

    def test_out_of_range_destination_rejected(self):
        mailbox = Mailbox(P, make_comm())
        with pytest.raises(ValueError, match="out of range"):
            mailbox.post(0, np.array([P]), np.array([1]))
        with pytest.raises(ValueError, match="out of range"):
            mailbox.post(0, np.array([-1]), np.array([1]))
