"""Unit tests for the accounting communicator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.partition import BlockPartition
from repro.runtime.comm import (
    RELAX_RECORD_BYTES,
    REQUEST_RECORD_BYTES,
    Communicator,
)
from repro.runtime.machine import MachineConfig
from repro.runtime.metrics import Metrics


def make_comm(num_ranks=4, n=16):
    machine = MachineConfig(num_ranks=num_ranks, threads_per_rank=2)
    part = BlockPartition(n, num_ranks)
    metrics = Metrics(num_ranks=num_ranks, threads_per_rank=2)
    return Communicator(machine, part, metrics), metrics, part


class TestExchangeByVertex:
    def test_intra_rank_traffic_is_free(self):
        comm, metrics, part = make_comm()
        # vertices 0 and 1 both live on rank 0
        comm.exchange_by_vertex(np.array([0]), np.array([1]), RELAX_RECORD_BYTES)
        rec = metrics.records[-1]
        assert rec.bytes_max == 0
        assert rec.msgs_max == 0

    def test_cross_rank_bytes_counted_both_sides(self):
        comm, metrics, part = make_comm()
        # vertex 0 (rank 0) -> vertex 15 (rank 3)
        comm.exchange_by_vertex(np.array([0]), np.array([15]), 16)
        rec = metrics.records[-1]
        assert rec.bytes_max == 16  # 16 out at rank0, 16 in at rank3
        assert rec.bytes_total == 16
        assert rec.msgs_max == 1

    def test_aggregation_one_message_per_pair(self):
        comm, metrics, part = make_comm()
        src = np.zeros(10, dtype=np.int64)  # all rank 0
        dst = np.full(10, 15, dtype=np.int64)  # all rank 3
        comm.exchange_by_vertex(src, dst, 16)
        rec = metrics.records[-1]
        assert rec.msgs_max == 1  # aggregated
        assert rec.bytes_max == 160

    def test_fan_out_message_count(self):
        comm, metrics, part = make_comm()
        # rank 0 sends one record to each other rank
        src = np.zeros(3, dtype=np.int64)
        dst = np.array([5, 9, 13])  # ranks 1, 2, 3
        comm.exchange_by_vertex(src, dst, 8)
        rec = metrics.records[-1]
        assert rec.msgs_max == 3

    def test_conservation_bytes_sent_equals_received(self):
        comm, metrics, part = make_comm()
        rng = np.random.default_rng(0)
        src = rng.integers(0, 16, 200)
        dst = rng.integers(0, 16, 200)
        comm.exchange_by_vertex(src, dst, 16)
        rec = metrics.records[-1]
        src_r = part.owner(src)
        dst_r = part.owner(dst)
        off = src_r != dst_r
        assert rec.bytes_total == off.sum() * 16

    def test_shape_mismatch_rejected(self):
        comm, _, _ = make_comm()
        with pytest.raises(ValueError):
            comm.exchange_by_vertex(np.array([0]), np.array([1, 2]), 8)

    def test_negative_record_bytes_rejected(self):
        comm, _, _ = make_comm()
        with pytest.raises(ValueError):
            comm.exchange_by_rank(np.array([0]), np.array([1]), -1)

    def test_empty_exchange_records_zeroes(self):
        comm, metrics, _ = make_comm()
        comm.exchange_by_vertex(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 16)
        rec = metrics.records[-1]
        assert rec.bytes_max == 0 and rec.msgs_max == 0


def exchange_by_filtering(src, dst, p, record_bytes):
    """What ``exchange_by_rank`` did before it stopped compacting: drop the
    same-rank records, then count the rest. The oracle for the record."""
    off_node = src != dst
    src, dst = src[off_node], dst[off_node]
    lanes = np.bincount(src * p + dst, minlength=p * p).reshape(p, p)
    bytes_per_rank = (lanes.sum(axis=1) + lanes.sum(axis=0)) * record_bytes
    msgs_per_rank = np.count_nonzero(lanes, axis=1)
    return int(msgs_per_rank.max()), int(bytes_per_rank.max()), int(bytes_per_rank.sum()) // 2


class TestExchangeByRankDiagonal:
    """Same-rank records are the diagonal of the lane grid: zeroing it
    must account exactly what filtering the records first did."""

    @settings(max_examples=150, deadline=None)
    @given(
        p=st.integers(1, 6),
        k=st.integers(0, 60),
        record_bytes=st.sampled_from([0, 16, 24]),
        same_rank=st.booleans(),
        seed=st.integers(0, 2**31),
    )
    def test_record_equals_filter_then_count(self, p, k, record_bytes, same_rank, seed):
        rng = np.random.default_rng(seed)
        src = rng.integers(0, p, k)
        dst = src.copy() if same_rank else rng.integers(0, p, k)
        comm, metrics, _ = make_comm(num_ranks=p, n=4 * p)
        comm.exchange_by_rank(src, dst, record_bytes, phase_kind="long")
        (rec,) = metrics.records
        assert (rec.kind, rec.phase_kind) == ("exchange", "long")
        assert (rec.msgs_max, rec.bytes_max, rec.bytes_total) == exchange_by_filtering(
            src, dst, p, record_bytes
        )

    def test_all_same_rank_traffic_is_free(self):
        comm, metrics, _ = make_comm()
        ranks = np.array([0, 1, 1, 3, 3, 3])
        comm.exchange_by_rank(ranks, ranks, 16)
        rec = metrics.records[-1]
        assert (rec.msgs_max, rec.bytes_max, rec.bytes_total) == (0, 0, 0)

    def test_zero_byte_records_still_count_messages(self):
        comm, metrics, _ = make_comm()
        comm.exchange_by_rank(np.array([0, 0, 2]), np.array([1, 3, 2]), 0)
        rec = metrics.records[-1]
        assert (rec.msgs_max, rec.bytes_max, rec.bytes_total) == (2, 0, 0)


class TestAllreduce:
    def test_counted(self):
        comm, metrics, _ = make_comm()
        comm.allreduce(2)
        assert metrics.total_allreduces == 2

    def test_zero_is_noop(self):
        comm, metrics, _ = make_comm()
        comm.allreduce(0)
        assert len(metrics.records) == 0

    def test_negative_rejected(self):
        comm, _, _ = make_comm()
        with pytest.raises(ValueError):
            comm.allreduce(-1)


class TestConstruction:
    def test_rank_mismatch_rejected(self):
        machine = MachineConfig(num_ranks=4, threads_per_rank=2)
        part = BlockPartition(16, 8)
        metrics = Metrics(num_ranks=4, threads_per_rank=2)
        with pytest.raises(ValueError, match="ranks"):
            Communicator(machine, part, metrics)

    def test_record_sizes(self):
        assert RELAX_RECORD_BYTES == 16
        assert REQUEST_RECORD_BYTES == 24
