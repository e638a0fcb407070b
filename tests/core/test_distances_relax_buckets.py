"""Unit tests for distance helpers, relaxation application and buckets."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.distances import INF, init_distances, is_reached, settled_fraction
from repro.core.relax import apply_relaxations
from repro.core.views import VertexView
from repro.util import ranges
from tests.core.oracles import NO_BUCKET, bucket_index, bucket_members, next_bucket


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

    @pytest.mark.parametrize("bad", ["dst", "nd"])
    @pytest.mark.parametrize(
        "values",
        [np.array([0.0, 2.9]), np.array([True, False]), np.array([0, 2], dtype=object)],
    )
    def test_non_integer_columns_are_refused(self, bad, values):
        """A float column used to be truncated: ``dst=[0.0, 2.9]`` lowered
        vertices 0 and 2, ``nd=[1.7, 9.9]`` wrote 1 and 9."""
        d = np.full(4, 100, dtype=np.int64)
        cols = {"dst": np.array([1, 2]), "nd": np.array([5, 6])}
        cols[bad] = values
        with pytest.raises(ValueError, match=f"^{bad} must be an integer array"):
            apply_relaxations(d, cols["dst"], cols["nd"])
        assert np.all(d == 100)

    def test_empty_columns_of_any_dtype_are_taken(self):
        d = np.array([0, 1], dtype=np.int64)
        assert apply_relaxations(d, [], np.array([], dtype=np.float64)).size == 0


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
    """The changed set is exactly the surviving destinations, read off the
    filter below the dense boundary and off the before/after diff at or
    above it."""

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


def min_apply_oracle(d, dst, nd):
    """The grouped minimum one record at a time, in plain Python: the
    final distances and the vertices that fell."""
    out = d.tolist()
    for v, x in zip(dst.tolist(), nd.tolist()):
        out[v] = min(out[v], x)
    fell = [v for v, (a, b) in enumerate(zip(out, d.tolist())) if a < b]
    return np.array(out, dtype=np.int64), fell


class TestBothRegimes:
    """``apply_relaxations`` against :func:`min_apply_oracle` on either
    side of ``_DENSE_SHARE`` (the filter below ``n/16`` records, the diff
    at and above it): the final ``d`` and the returned set — sorted,
    unique, int64 and a fresh array."""

    @staticmethod
    def sizes(n):
        edge = -(-n // ranges._DENSE_SHARE)  # first dense size
        return sorted({0, 1, max(edge - 1, 0), edge, edge + 1, n, 3 * n})

    @staticmethod
    def check(d0, dst, nd):
        expected_d, expected_changed = min_apply_oracle(d0, dst, nd)
        d = d0.copy()
        changed = apply_relaxations(d, dst, nd)
        assert np.array_equal(d, expected_d)
        assert changed.dtype == np.int64
        assert changed.tolist() == expected_changed
        assert not np.shares_memory(changed, dst)
        assert not np.shares_memory(changed, d)
        return changed

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.one_of(st.integers(1, 48), st.sampled_from([256, 4096])),
        where=st.integers(0, 6),
        spread=st.sampled_from([1, 3, 100]),  # 1: ties and duplicates only
        seed=st.integers(0, 2**31),
    )
    def test_matches_the_oracle_at_every_size(self, n, where, spread, seed):
        rng = np.random.default_rng(seed)
        sizes = self.sizes(n)
        k = sizes[min(where, len(sizes) - 1)]
        d0 = rng.integers(0, 100, n).astype(np.int64)
        # Few distinct destinations, proposals in a narrow band around d:
        # duplicate destinations and tied proposals on both sides.
        dst = rng.integers(0, max(n // spread, 1), k)
        nd = d0[dst] + rng.integers(-spread, spread + 1, k)
        self.check(d0, dst, nd)

    @pytest.mark.parametrize("n", [1, 16, 100, 4096])
    def test_named_batches(self, n):
        share = ranges._DENSE_SHARE
        rng = np.random.default_rng(n)
        d0 = rng.integers(10, 1000, n).astype(np.int64)
        for k in self.sizes(n):
            dst = rng.integers(0, n, k)
            # No record improves: every proposal ties or exceeds.
            assert self.check(d0, dst, d0[dst] + rng.integers(0, 3, k)).size == 0
            # Every record improves, duplicates included.
            changed = self.check(d0, dst, d0[dst] - 1 - rng.integers(0, 5, k))
            assert changed.tolist() == sorted(set(dst.tolist()))
            # Duplicates whose proposals tie one another below d.
            self.check(d0, np.repeat(dst[: k // 2 + 1], 2)[:k], np.full(k, 5))
        assert {k * share >= n for k in self.sizes(n)} == {False, True}

    def test_one_vertex(self):
        d0 = np.array([7], dtype=np.int64)
        for nd in ([], [7], [8, 9], [3], [6, 2, 2, 9]):
            nd = np.array(nd, dtype=np.int64)
            self.check(d0, np.zeros(nd.size, dtype=np.int64), nd)

    @pytest.mark.parametrize("k", [3, 40])  # below and above n/16 of n = 64
    def test_view_apply_with_a_window(self, k):
        n = 64
        rng = np.random.default_rng(k)
        d0 = rng.integers(0, 200, n).astype(np.int64)
        d0[rng.integers(0, n, 8)] = INF
        settled = np.zeros(n, dtype=bool)
        settled[d0 < 20] = True
        view = VertexView(
            indptr=np.zeros(n + 1, dtype=np.int64),
            adj=np.empty(0, dtype=np.int64),
            weights=np.empty(0, dtype=np.int64),
            short_offsets=np.zeros(n, dtype=np.int64),
            d=d0.copy(),
            settled=settled,
        )
        unsettled = np.flatnonzero(~settled)
        dst = rng.choice(unsettled, k)
        nd = rng.integers(20, 150, k).astype(np.int64)
        expected_d, fell = min_apply_oracle(d0, dst, nd)
        lo, hi = 50, 100
        changed = view.apply(dst, nd, window=(lo, hi))
        assert np.array_equal(view.d, expected_d)
        assert changed.dtype == np.int64
        assert changed.tolist() == [v for v in fell if lo <= expected_d[v] < hi]
        assert not np.shares_memory(changed, dst)
        # The region gains each newly reached vertex once; queued masks it.
        reached = np.flatnonzero(~settled & (expected_d < INF))
        assert np.array_equal(np.sort(view.region), reached)
        assert np.array_equal(np.flatnonzero(view.queued), reached)


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
