"""Vectorised relaxation application.

A relaxation batch is a pair of arrays ``(dst, nd)``: proposed new tentative
distances for destination vertices. Applying a batch is a grouped min-reduce
(``np.minimum.at``), the vectorised equivalent of the paper's L2-atomic
min-updates. The set of vertices whose distance actually decreased — the
next phase's candidates — is read one of two ways, switched at the
boundary the id dedupe uses (``ranges._DENSE_SHARE``): a small batch is
filtered against ``d`` and its surviving destinations are deduplicated; a
batch of at least ``n / _DENSE_SHARE`` records lands unfiltered, and the
changed set is the diff of ``d`` against a copy taken before (DESIGN.md,
"Hot-path kernels", rule 1).
"""

from __future__ import annotations

import numpy as np

from repro.util.ints import int_array
from repro.util.ranges import _DENSE_SHARE, sorted_unique_ids

__all__ = ["apply_relaxations"]


def apply_relaxations(
    d: np.ndarray, dst: np.ndarray, nd: np.ndarray
) -> np.ndarray:
    """Apply ``d[dst] = min(d[dst], nd)`` elementwise; return changed vertices.

    Parameters
    ----------
    d:
        Tentative-distance array, modified in place.
    dst:
        Destination vertex per relaxation record (duplicates allowed).
    nd:
        Proposed distance per record.

    Returns
    -------
    Sorted unique array of vertices whose tentative distance decreased,
    always a fresh array. Non-integer ``dst`` or ``nd`` is refused with
    ``ValueError``, not truncated.

    A destination falls exactly when some record undercuts it. A dense
    batch (``dst.size * _DENSE_SHARE >= d.size``) therefore lands whole
    and the changed set is ``flatnonzero(d < old)``: one O(n) pass, no
    gather, compress or dedupe of the records. A sparse batch first drops
    the records with ``nd >= d[dst]``; every surviving destination ``v``
    then strictly decreases (its new value is ``min(d_old[v], min_j nd_j)
    <= nd_i < d_old[v]``), so the changed set *is* the surviving
    destinations, deduplicated — O(size log size), independent of ``n``.
    """
    dst = int_array("dst", dst)
    nd = int_array("nd", nd)
    if dst.shape != nd.shape:
        raise ValueError("dst and nd must align")
    if dst.size == 0:
        return np.empty(0, dtype=np.int64)
    if dst.size * _DENSE_SHARE >= d.size:
        old = d.copy()
        np.minimum.at(d, dst, nd)
        return np.flatnonzero(d < old)
    improving = nd < d[dst]
    if not np.count_nonzero(improving):
        return np.empty(0, dtype=np.int64)
    dst = dst[improving]
    np.minimum.at(d, dst, nd[improving])
    return sorted_unique_ids(dst, d.size)
