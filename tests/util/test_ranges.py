"""Unit tests for the vectorised index kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.util import ranges
from repro.util.ranges import concat_ranges, sorted_unique_ids


class TestConcatRanges:
    def test_docstring_example(self):
        idx, owners = concat_ranges(np.array([0, 5]), np.array([2, 8]))
        assert list(idx) == [0, 1, 5, 6, 7]
        assert list(owners) == [0, 0, 1, 1, 1]

    def test_empty_input(self):
        idx, owners = concat_ranges(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert idx.size == 0 and owners.size == 0

    def test_all_empty_ranges(self):
        idx, owners = concat_ranges(np.array([3, 7]), np.array([3, 7]))
        assert idx.size == 0

    def test_mixed_empty_and_nonempty(self):
        idx, owners = concat_ranges(np.array([0, 2, 2]), np.array([2, 2, 4]))
        assert list(idx) == [0, 1, 2, 3]
        assert list(owners) == [0, 0, 2, 2]

    @pytest.mark.parametrize(
        "starts, ends",
        [
            ([4, 4, 9], [4, 6, 11]),   # empty first
            ([4, 6, 9], [6, 6, 11]),   # empty middle
            ([4, 9, 2], [6, 11, 2]),   # empty last
            ([3, 3, 0, 7, 7], [3, 5, 0, 7, 9]),  # empty runs around full ones
            ([5, 1, 8], [5, 1, 8]),    # all empty
        ],
    )
    def test_empty_ranges_anywhere(self, starts, ends):
        idx, owners = concat_ranges(np.array(starts), np.array(ends))
        ref = [(x, i) for i, (s, e) in enumerate(zip(starts, ends)) for x in range(s, e)]
        assert idx.dtype == owners.dtype == np.int64
        assert list(zip(idx.tolist(), owners.tolist())) == ref

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            concat_ranges(np.array([5]), np.array([3]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            concat_ranges(np.array([1, 2]), np.array([3]))

    @pytest.mark.parametrize(
        "starts, ends",
        [
            ([0.5, 3.9], [2.7, 5.2]),  # was truncated to [0, 1, 3, 4]
            ([0, 3], [2.0, 5.0]),
            (np.array([True, False]), [1, 1]),
            (np.array([0, 3], dtype=object), [2, 5]),
        ],
    )
    def test_non_integer_bounds_are_refused(self, starts, ends):
        with pytest.raises(ValueError, match="must be an integer array"):
            concat_ranges(np.asarray(starts), np.asarray(ends))

    def test_empty_bounds_of_any_dtype_and_any_integer_width(self):
        idx, owners = concat_ranges([], [])
        assert idx.size == owners.size == 0 and idx.dtype == np.int64
        idx, _ = concat_ranges(np.array([0, 5], np.uint8), np.array([2, 8], np.int16))
        assert idx.dtype == np.int64 and idx.tolist() == [0, 1, 5, 6, 7]

    def test_matches_python_reference(self):
        rng = np.random.default_rng(0)
        starts = rng.integers(0, 50, 30)
        ends = starts + rng.integers(0, 10, 30)
        idx, owners = concat_ranges(starts, ends)
        ref_idx, ref_owners = [], []
        for i, (s, e) in enumerate(zip(starts, ends)):
            ref_idx.extend(range(s, e))
            ref_owners.extend([i] * (e - s))
        assert list(idx) == ref_idx
        assert list(owners) == ref_owners

    def test_single_large_range(self):
        idx, owners = concat_ranges(np.array([10]), np.array([10_010]))
        assert idx.size == 10_000
        assert idx[0] == 10 and idx[-1] == 10_009
        assert np.all(owners == 0)


class TestSortedUniqueIds:
    """``np.unique`` is the oracle; the dense/sparse switch must be invisible."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.one_of(st.integers(1, 40), st.integers(1, 5000)),
        size=st.integers(0, 64),
        seed=st.integers(0, 2**31),
    )
    def test_equals_np_unique(self, n, size, seed):
        ids = np.random.default_rng(seed).integers(0, n, size)
        out = sorted_unique_ids(ids, n)
        assert out.dtype == np.int64
        assert np.array_equal(out, np.unique(ids))

    @pytest.mark.parametrize("n", [1, 7, 4096])
    def test_empty(self, n):
        out = sorted_unique_ids(np.empty(0, dtype=np.int64), n)
        assert out.dtype == np.int64 and out.size == 0

    def test_single_vertex_universe(self):
        assert list(sorted_unique_ids(np.zeros(5, dtype=np.int64), 1)) == [0]

    @pytest.mark.parametrize(
        "ids",
        [[1.5, 1.2, 3.9], [1.0, 3.0], [True, False, True], np.array([1, 3], dtype=object)],
    )
    def test_non_integer_ids_are_refused(self, ids):
        """``[1.5, 1.2, 3.9]`` used to come back as ``[1, 3]``."""
        with pytest.raises(ValueError, match="^ids must be an integer array"):
            sorted_unique_ids(np.asarray(ids), 5)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint32])
    def test_any_integer_width_and_empty_input(self, dtype):
        out = sorted_unique_ids(np.array([3, 1, 3], dtype=dtype), 5)
        assert out.dtype == np.int64 and out.tolist() == [1, 3]
        assert sorted_unique_ids([], 5).tolist() == []

    def test_both_sides_of_the_switch(self):
        # The same ids against a small and a large universe take the mask
        # and the sort respectively; each side also at its boundary size.
        share = ranges._DENSE_SHARE
        ids = np.array([3, 1, 3, 0, 1])
        assert ids.size * share >= 64 and ids.size * share < 10**6
        assert list(sorted_unique_ids(ids, 64)) == [0, 1, 3]
        assert list(sorted_unique_ids(ids, 10**6)) == [0, 1, 3]
        n = 4 * share
        rng = np.random.default_rng(0)
        for size in (3, 4, 5):  # sort, first masked size, mask
            ids = rng.integers(0, n, size)
            assert np.array_equal(sorted_unique_ids(ids, n), np.unique(ids))


class TestKernelEquivalences:
    """The two index kernels against their plain oracles (DESIGN.md §9,
    rules 1 and 2): whatever branch runs, the caller cannot tell."""

    @staticmethod
    def switch_sizes(n):
        """0, 1, 2 and either side of the sort/mask switch for ``n``."""
        edge = -(-n // ranges._DENSE_SHARE)  # first masked size
        return sorted({0, 1, 2, max(edge - 1, 0), edge, edge + 1})

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("n", [1, 16, 4096, 2**20])
    def test_sorted_unique_ids_either_side_of_the_switch(self, n, dtype):
        rng = np.random.default_rng(n)
        for size in self.switch_sizes(n):
            ids = rng.integers(0, n, size).astype(dtype)
            out = sorted_unique_ids(ids, n)
            assert out.dtype == np.int64
            assert np.array_equal(out, np.unique(ids)), (n, size)
            assert not np.shares_memory(out, ids)

    @pytest.mark.parametrize("n", [1, 16, 4096, 2**20])
    def test_duplicates_only_and_already_sorted_inputs_are_not_aliased(self, n):
        for size in self.switch_sizes(n)[1:]:
            same = np.full(size, n - 1, dtype=np.int64)
            out = sorted_unique_ids(same, n)
            assert out.tolist() == [n - 1]
            assert not np.shares_memory(out, same)
            # Sorted and duplicate-free already: the result equals the
            # argument and must still be a fresh array.
            ids = np.arange(min(size, n), dtype=np.int64)
            out = sorted_unique_ids(ids, n)
            assert np.array_equal(out, ids)
            assert not np.shares_memory(out, ids)

    @staticmethod
    def loop_ranges(starts, ends):
        pairs = [
            (x, i) for i, (s, e) in enumerate(zip(starts, ends)) for x in range(s, e)
        ]
        return [x for x, _ in pairs], [i for _, i in pairs]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 10**12), st.integers(0, 12)), max_size=12
        ),
        st.sampled_from(["as drawn", "all empty"]),
    )
    def test_concat_ranges_equals_the_loop(self, pairs, shape):
        starts = [s for s, _ in pairs]
        ends = [s if shape == "all empty" else s + c for s, c in pairs]
        idx, owners = concat_ranges(
            np.array(starts, dtype=np.int64), np.array(ends, dtype=np.int64)
        )
        assert idx.dtype == owners.dtype == np.int64
        assert (idx.tolist(), owners.tolist()) == self.loop_ranges(starts, ends)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 10**12), st.integers(0, 12)), min_size=1, max_size=12),
        st.data(),
    )
    def test_one_negative_length_anywhere_is_rejected(self, pairs, data):
        """Also where the lengths cancel (total 0) or sum below zero, which
        ``np.repeat`` never gets to see."""
        starts = [s + 20 for s, _ in pairs]
        ends = [s + c for s, c in zip(starts, (c for _, c in pairs))]
        bad = data.draw(st.integers(0, len(pairs) - 1))
        ends[bad] = starts[bad] - data.draw(st.integers(1, 20))
        with pytest.raises(ValueError, match="^ranges must have non-negative length$"):
            concat_ranges(np.array(starts), np.array(ends))

    @pytest.mark.parametrize(
        "starts, ends",
        [
            ([5, 0], [3, 2]),      # lengths cancel: total 0
            ([5, 0], [1, 2]),      # total below zero
            ([0, 5, 9], [4, 3, 9]),  # total positive: np.repeat's rejection
        ],
    )
    def test_negative_length_at_every_total(self, starts, ends):
        with pytest.raises(ValueError, match="^ranges must have non-negative length$"):
            concat_ranges(np.array(starts), np.array(ends))

    @pytest.mark.parametrize(
        "starts, ends", [([1, 2], [3]), ([], [0]), ([[0, 1]], [1, 2])]
    )
    def test_mismatched_shapes_are_rejected(self, starts, ends):
        with pytest.raises(ValueError, match="^starts and ends must have equal shape$"):
            concat_ranges(np.array(starts, dtype=np.int64), np.array(ends, dtype=np.int64))


class TestFormatTable:
    def test_alignment_and_title(self):
        from repro.util.tables import format_table

        out = format_table([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_missing_cells(self):
        from repro.util.tables import format_table

        out = format_table([{"a": 1}, {"b": 2}])
        assert "a" in out and "b" in out

    def test_empty(self):
        from repro.util.tables import format_table

        assert "(no rows)" in format_table([])

    def test_float_formatting(self):
        from repro.util.tables import format_table

        out = format_table([{"x": 0.000123456, "y": 12345.6, "z": 1.5}])
        assert "0.000123" in out
        assert "1.23e+04" in out
        assert "1.5" in out
