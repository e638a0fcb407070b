"""Unit tests for per-thread work attribution."""

import numpy as np
import pytest

from repro.graph.partition import BlockPartition
from repro.runtime.machine import MachineConfig
from repro.runtime.work import thread_index, thread_work


def setup(n=16, ranks=2, threads=2):
    return BlockPartition(n, ranks), MachineConfig(num_ranks=ranks, threads_per_rank=threads)


class TestThreadIndex:
    def test_rank_offsets(self):
        part, machine = setup()
        idx = thread_index(np.arange(16), part, machine)
        # rank 0 owns 0..7 -> threads 0..1; rank 1 owns 8..15 -> threads 2..3
        assert set(idx[:8].tolist()) == {0, 1}
        assert set(idx[8:].tolist()) == {2, 3}

    def test_block_distribution_within_rank(self):
        part, machine = setup()
        idx = thread_index(np.arange(8), part, machine)
        assert list(idx) == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_uneven_blocks(self):
        part = BlockPartition(5, 2)  # rank0: 0..2, rank1: 3..4
        machine = MachineConfig(num_ranks=2, threads_per_rank=2)
        idx = thread_index(np.arange(5), part, machine)
        # rank0 has 3 vertices over 2 threads: 2 + 1
        assert list(idx[:3]) == [0, 0, 1]
        assert list(idx[3:]) == [2, 3]

    def test_more_threads_than_vertices(self):
        part = BlockPartition(2, 1)
        machine = MachineConfig(num_ranks=1, threads_per_rank=8)
        idx = thread_index(np.arange(2), part, machine)
        assert idx.max() < 8
        assert len(set(idx.tolist())) == 2


class TestThreadWork:
    def test_unit_counting(self):
        part, machine = setup()
        tw = thread_work(np.array([0, 1, 8]), None, part, machine)
        assert tw.sum() == 3
        assert tw[0] == 2  # vertices 0,1 on thread 0
        assert tw[2] == 1

    def test_weighted_units(self):
        part, machine = setup()
        tw = thread_work(np.array([0, 8]), np.array([5.0, 7.0]), part, machine)
        assert tw[0] == 5.0 and tw[2] == 7.0

    def test_empty(self):
        part, machine = setup()
        tw = thread_work(np.array([], dtype=np.int64), None, part, machine)
        assert tw.shape == (4,)
        assert tw.sum() == 0


class TestThreadWorkBalanced:
    def test_light_vertices_unchanged(self):
        part, machine = setup()
        a = thread_work(np.array([0, 8]), np.array([2.0, 3.0]), part, machine)
        b = thread_work(
            np.array([0, 8]), np.array([2.0, 3.0]), part, machine, heavy_threshold=10
        )
        assert np.array_equal(a, b)

    def test_heavy_vertex_spread_over_rank_threads(self):
        part, machine = setup()
        tw = thread_work(
            np.array([0]), np.array([100.0]), part, machine, heavy_threshold=10
        )
        # spread evenly over rank 0's two threads, none on rank 1
        assert tw[0] == tw[1] == 50.0
        assert tw[2] == tw[3] == 0.0

    def test_total_work_preserved(self):
        part, machine = setup()
        rng = np.random.default_rng(1)
        v = rng.integers(0, 16, 40)
        u = rng.uniform(0, 50, 40)
        a = thread_work(v, u, part, machine)
        b = thread_work(v, u, part, machine, heavy_threshold=20)
        assert a.sum() == pytest.approx(b.sum())

    def test_balancing_reduces_max(self):
        part, machine = setup()
        v = np.array([0, 1, 2])
        u = np.array([100.0, 1.0, 1.0])
        a = thread_work(v, u, part, machine)
        b = thread_work(v, u, part, machine, heavy_threshold=10)
        assert b.max() < a.max()

    def test_infinite_threshold_equals_plain(self):
        part, machine = setup()
        v = np.array([0, 5, 9])
        u = np.array([1000.0, 2.0, 3.0])
        a = thread_work(v, u, part, machine)
        b = thread_work(v, u, part, machine, heavy_threshold=float("inf"))
        assert np.array_equal(a, b)
