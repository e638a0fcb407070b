"""Vectorised relaxation application.

A relaxation batch is a pair of arrays ``(dst, nd)``: proposed new tentative
distances for destination vertices. Applying a batch is a grouped min-reduce
(``np.minimum.at``), the vectorised equivalent of the paper's L2-atomic
min-updates. The set of vertices whose distance actually decreased — the
next phase's candidates — is the set of destinations of the records that
pass the improvement filter; no before/after comparison is needed.
"""

from __future__ import annotations

import numpy as np

from repro.util.ranges import sorted_unique_ids

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
    Sorted unique array of vertices whose tentative distance decreased.

    Records with ``nd >= d[dst]`` are dropped first. Every destination
    ``v`` of a surviving record ``i`` then strictly decreases: its new
    value is ``min(d_old[v], min_j nd_j) <= nd_i < d_old[v]``. So the
    changed set *is* the set of surviving destinations, deduplicated.
    """
    dst = np.asarray(dst, dtype=np.int64)
    nd = np.asarray(nd, dtype=np.int64)
    if dst.shape != nd.shape:
        raise ValueError("dst and nd must align")
    if dst.size == 0:
        return np.empty(0, dtype=np.int64)
    # Early filter against the pre-application values: drop records that
    # cannot improve. Duplicate destinations are still resolved by the
    # grouped minimum below.
    improving = nd < d[dst]
    if not np.count_nonzero(improving):
        return np.empty(0, dtype=np.int64)
    dst = dst[improving]
    np.minimum.at(d, dst, nd[improving])
    return sorted_unique_ids(dst, d.size)
