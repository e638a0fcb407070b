"""Unit tests for distance helpers, relaxation application and buckets."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.buckets import NO_BUCKET, bucket_index, bucket_members, next_bucket
from repro.core.distances import INF, init_distances, is_reached, settled_fraction
from repro.core.relax import apply_relaxations


class TestDistances:
    def test_init(self):
        d = init_distances(5, 2)
        assert d[2] == 0
        assert np.all(d[[0, 1, 3, 4]] == INF)

    def test_init_root_bounds(self):
        with pytest.raises(ValueError):
            init_distances(5, 5)
        with pytest.raises(ValueError):
            init_distances(5, -1)

    def test_inf_is_overflow_safe(self):
        assert INF + 2**40 > 0  # no int64 wraparound for realistic sums

    def test_is_reached(self):
        d = init_distances(3, 0)
        assert list(is_reached(d)) == [True, False, False]

    def test_settled_fraction(self):
        s = np.array([True, True, False, False])
        assert settled_fraction(s) == 0.5
        assert settled_fraction(np.array([], dtype=bool)) == 1.0


class TestApplyRelaxations:
    def test_basic_improvement(self):
        d = np.array([0, 10, 10], dtype=np.int64)
        changed = apply_relaxations(d, np.array([1]), np.array([5]))
        assert list(changed) == [1]
        assert d[1] == 5

    def test_non_improving_ignored(self):
        d = np.array([0, 5], dtype=np.int64)
        changed = apply_relaxations(d, np.array([1, 1]), np.array([5, 9]))
        assert changed.size == 0
        assert d[1] == 5

    def test_duplicates_take_min(self):
        d = np.array([0, 100], dtype=np.int64)
        changed = apply_relaxations(d, np.array([1, 1, 1]), np.array([30, 10, 20]))
        assert list(changed) == [1]
        assert d[1] == 10

    def test_empty_batch(self):
        d = np.array([0, 1], dtype=np.int64)
        changed = apply_relaxations(d, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert changed.size == 0

    def test_changed_is_sorted_unique(self):
        d = np.full(10, 100, dtype=np.int64)
        dst = np.array([7, 3, 7, 5])
        nd = np.array([1, 2, 3, 4])
        changed = apply_relaxations(d, dst, nd)
        assert list(changed) == [3, 5, 7]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            apply_relaxations(np.zeros(3, np.int64), np.array([0]), np.array([1, 2]))

    def test_ties_do_not_count_as_changed(self):
        d = np.array([0, 7], dtype=np.int64)
        changed = apply_relaxations(d, np.array([1]), np.array([7]))
        assert changed.size == 0


def apply_relaxations_by_sorting(d, dst, nd):
    """The formulation ``apply_relaxations`` had before it went sort-free,
    kept here as the oracle: dedupe the touched destinations with a sort
    and report the ones whose value differs before and after."""
    improving = nd < d[dst]
    dst, nd = dst[improving], nd[improving]
    touched = np.unique(dst)
    before = d[touched].copy()
    np.minimum.at(d, dst, nd)
    return touched[d[touched] < before]


class TestApplyRelaxationsAgainstSortingOracle:
    """The changed set is exactly the surviving destinations — no
    before/after comparison — on either side of the dedupe switch."""

    @settings(max_examples=200, deadline=None)
    @given(
        # n up to 40: every batch takes the mask; n up to 5000 with at most
        # 64 records: small batches take the sort.
        n=st.one_of(st.integers(1, 40), st.integers(1, 5000)),
        k=st.integers(0, 64),
        hi=st.sampled_from([1, 5, 100]),  # hi=1: nothing can improve on d >= 0
        seed=st.integers(0, 2**31),
    )
    def test_same_distances_and_changed_set(self, n, k, hi, seed):
        rng = np.random.default_rng(seed)
        d0 = rng.integers(0, 100, n).astype(np.int64)
        dst = rng.integers(0, n, k)
        nd = rng.integers(0, hi, k).astype(np.int64)
        expected_d = d0.copy()
        expected_changed = apply_relaxations_by_sorting(expected_d, dst, nd)
        d = d0.copy()
        changed = apply_relaxations(d, dst, nd)
        assert changed.dtype == np.int64
        assert np.array_equal(d, expected_d)
        assert np.array_equal(changed, expected_changed)
        assert np.array_equal(changed, np.flatnonzero(d < d0))

    def test_all_non_improving_batch_changes_nothing(self):
        d = np.arange(2000, dtype=np.int64)
        dst = np.array([5, 5, 1999, 0])
        changed = apply_relaxations(d, dst, d[dst] + np.array([0, 3, 0, 1]))
        assert changed.size == 0
        assert np.array_equal(d, np.arange(2000))


class TestBuckets:
    def test_bucket_index(self):
        d = np.array([0, 24, 25, 49, 50, INF], dtype=np.int64)
        idx = bucket_index(d, 25)
        assert list(idx) == [0, 0, 1, 1, 2, NO_BUCKET]

    def test_bucket_members_excludes_settled(self):
        d = np.array([0, 10, 30, 60], dtype=np.int64)
        settled = np.array([True, False, False, False])
        members = bucket_members(d, settled, 0, 25)
        assert list(members) == [1]

    def test_next_bucket_skips_empty(self):
        d = np.array([0, 100], dtype=np.int64)
        settled = np.array([True, False])
        assert next_bucket(d, settled, 25) == 4

    def test_next_bucket_terminates(self):
        d = np.array([0, INF], dtype=np.int64)
        settled = np.array([True, False])
        assert next_bucket(d, settled, 25) == NO_BUCKET

    def test_delta_one_is_per_distance(self):
        d = np.array([3, 4, 4], dtype=np.int64)
        idx = bucket_index(d, 1)
        assert list(idx) == [3, 4, 4]
