"""Unit tests for the 1-D block partition."""

import numpy as np
import pytest

from repro.graph.partition import BlockPartition
from repro.runtime.machine import MachineConfig
from repro.runtime.work import thread_index


class TestBoundaries:
    def test_even_split(self):
        p = BlockPartition(8, 4)
        assert list(p.boundaries) == [0, 2, 4, 6, 8]

    def test_uneven_split_front_loads_remainder(self):
        p = BlockPartition(10, 4)
        assert list(p.boundaries) == [0, 3, 6, 8, 10]

    def test_more_ranks_than_vertices(self):
        p = BlockPartition(2, 4)
        assert list(p.boundaries) == [0, 1, 2, 2, 2]

    def test_single_rank(self):
        p = BlockPartition(7, 1)
        assert list(p.boundaries) == [0, 7]

    def test_zero_vertices(self):
        p = BlockPartition(0, 3)
        assert list(p.boundaries) == [0, 0, 0, 0]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            BlockPartition(5, 0)
        with pytest.raises(ValueError):
            BlockPartition(-1, 2)


class TestOwner:
    def test_owner_scalar(self):
        p = BlockPartition(10, 4)
        assert p.owner(0) == 0
        assert p.owner(2) == 0
        assert p.owner(3) == 1
        assert p.owner(9) == 3

    def test_owner_vectorized_matches_ranges(self):
        p = BlockPartition(100, 7)
        v = np.arange(100)
        owners = p.owner(v)
        for r in range(7):
            lo, hi = p.rank_range(r)
            assert np.all(owners[lo:hi] == r)

    def test_owner_inverse_of_rank_range(self):
        p = BlockPartition(37, 5)
        for r in range(5):
            lo, hi = p.rank_range(r)
            for v in range(lo, hi):
                assert p.owner(v) == r

    def test_blocks_tile_vertex_space(self):
        p = BlockPartition(41, 6)
        total = sum(p.rank_size(r) for r in range(6))
        assert total == 41


class TestLocalGlobal:
    def test_rank_range_bounds_checked(self):
        p = BlockPartition(10, 2)
        with pytest.raises(IndexError):
            p.rank_range(2)


class TestThreadOwner:
    """The node-internal distribution every solve uses
    (:func:`~repro.runtime.work.thread_index`): a rank's vertices are
    block-distributed again over its threads."""

    def test_thread_distribution_covers_all_threads(self):
        p = BlockPartition(64, 2)
        threads = thread_index(np.arange(32), p, MachineConfig(2, 4))
        assert set(threads.tolist()) == {0, 1, 2, 3}

    def test_thread_blocks_contiguous(self):
        p = BlockPartition(64, 2)
        threads = thread_index(np.arange(64), p, MachineConfig(2, 4))
        assert np.all(np.diff(threads) >= 0)
        assert np.array_equal(np.bincount(threads), [8] * 8)
