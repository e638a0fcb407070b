"""Vectorised index kernels: range concatenation and bounded-id dedupe.

The hot path of every relaxation kernel is "gather the adjacency slices of
these vertices" and then "which vertices did that touch". ``concat_ranges``
turns per-vertex ``[start, end)`` ranges into one flat index array without a
Python loop — the idiom the performance guides call 'vectorise the for
loop' — and ``sorted_unique_ids`` deduplicates a batch of vertex ids without
sorting it when the batch is large.
"""

from __future__ import annotations

import numpy as np

from repro.util.ints import int_array

__all__ = ["concat_ranges", "sorted_unique_ids"]

_DENSE_SHARE = 16
"""``sorted_unique_ids`` scatters into an ``n``-byte mask once the batch holds
at least ``n / _DENSE_SHARE`` ids, and sorts below that. From a sweep over
uniform, skewed and 8×-duplicated ids at n = 2^12 … 2^20 (the RMAT scale
12–16 and 64×64 grid range and beyond; DESIGN.md, "Hot-path kernels"): the
mask costs about 2 µs + 0.2–2 ns per vertex (the scatter misses cache on
large ``n``) + 1–2 ns per id, ``np.sort`` plus a neighbour comparison about
2 µs + 7–10 ns per id. Duplicate-heavy batches — what a relaxation round's
destinations are — cross between ``size = n/32`` and ``n/16`` at every ``n``
measured, uniform ones between ``n/8`` and ``n/6``; at ``n/2`` the sort is
2–4× slower, at ``n/256`` the mask up to 10×."""


def sorted_unique_ids(ids: np.ndarray, n: int) -> np.ndarray:
    """Sorted unique values of ``ids``, every one of which lies in ``[0, n)``.

    What NumPy's ``unique`` returns for ``ids``, always in a fresh array
    (callers keep their argument and the result side by side). A batch that
    is a sizeable share of ``n`` is marked in a length-``n`` bool mask and
    read back with ``flatnonzero`` (no sort, O(n + size)); a small batch is
    sorted and keeps every element that differs from its left neighbour
    (O(size log size), independent of ``n``). The choice depends only on
    ``ids.size`` and ``n``. The range is a precondition, not checked: the
    callers index a length-``n`` array with the same ids first. Non-integer
    ids are refused with ``ValueError``, not truncated.
    """
    ids = int_array("ids", ids)
    if ids.size * _DENSE_SHARE < n:
        ordered = np.sort(ids)
        if ordered.size < 2:
            return ordered
        keep = np.empty(ordered.size, dtype=bool)
        keep[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
        return ordered[keep]
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return np.flatnonzero(mask)


def concat_ranges(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the integer ranges ``[starts[i], ends[i])``.

    Returns
    -------
    (indices, owners):
        ``indices`` — the concatenation of all ranges, in order;
        ``owners`` — for each output element, the index ``i`` of the range
        it came from (useful to map arcs back to their tail vertex).

    Example
    -------
    >>> concat_ranges(np.array([0, 5]), np.array([2, 8]))
    (array([0, 1, 5, 6, 7]), array([0, 0, 1, 1, 1]))

    Non-integer bounds are refused with ``ValueError``, not truncated.
    """
    starts = int_array("starts", starts)
    ends = int_array("ends", ends)
    if starts.shape != ends.shape:
        raise ValueError("starts and ends must have equal shape")
    counts = ends - starts
    try:
        owners = np.repeat(np.arange(starts.size, dtype=np.int64), counts)
    except ValueError:
        # ``np.repeat`` checks every count on its way to the total, so
        # there is no validation pass of our own.
        raise ValueError("ranges must have non-negative length") from None
    if owners.size == 0:
        return np.empty(0, dtype=np.int64), owners
    # Output position p of range i holds starts[i] + (p - first position of
    # range i) = p + (ends[i] - one past range i's last position): one
    # per-range shift off the running total, gathered through `owners`.
    shift = ends - np.add.accumulate(counts)
    indices = np.arange(owners.size, dtype=np.int64)
    indices += shift[owners]
    return indices, owners
