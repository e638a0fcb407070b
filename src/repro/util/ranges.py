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

__all__ = ["concat_ranges", "sorted_unique_ids"]

_DENSE_SHARE = 256
"""``sorted_unique_ids`` scatters into an ``n``-byte mask once the batch holds
at least ``n / _DENSE_SHARE`` ids, and sorts below that. From a sweep over
uniform and skewed ids at n = 2^12 … 2^20 (the RMAT scale 12–16 and 64×64
grid range and beyond; DESIGN.md, "Hot-path kernels"): the mask costs about
2 µs + 0.18 ns per vertex + 1–2 ns per id, ``np.unique`` about 2 µs + 75 ns
per id, and the two cross between ``size = n/512`` and ``n/256`` at every
``n`` measured. At ``n/8`` the sort is already 6–18× slower."""


def sorted_unique_ids(ids: np.ndarray, n: int) -> np.ndarray:
    """Sorted unique values of ``ids``, every one of which lies in ``[0, n)``.

    Same output as ``np.unique(ids)``. A batch that is a sizeable share of
    ``n`` is marked in a length-``n`` bool mask and read back with
    ``flatnonzero`` (no sort, O(n + size)); a small batch is sorted (O(size
    log size), independent of ``n``). The choice depends only on
    ``ids.size`` and ``n``. The range is a precondition, not checked: the
    callers index a length-``n`` array with the same ids first.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size * _DENSE_SHARE < n:
        return np.unique(ids)
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
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    if starts.shape != ends.shape:
        raise ValueError("starts and ends must have equal shape")
    counts = ends - starts
    if np.any(counts < 0):
        raise ValueError("ranges must have non-negative length")
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    owners = np.repeat(np.arange(starts.size, dtype=np.int64), counts)
    # Output position p of range i holds starts[i] + (p - first position of
    # range i): one per-range shift, gathered through `owners`.
    shift = starts - (np.cumsum(counts) - counts)
    indices = np.arange(total, dtype=np.int64)
    indices += shift[owners]
    return indices, owners
