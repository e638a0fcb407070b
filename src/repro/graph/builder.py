"""Edge-list to CSR construction.

The Graph 500 pipeline generates a stream of (tail, head) pairs; this module
turns such streams into :class:`~repro.graph.csr.CSRGraph` instances, handling
symmetrization, self-loop removal and duplicate-edge resolution (keep the
minimum weight, as any SSSP-correct dedup must).
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["from_edges", "from_undirected_edges", "compact_edges"]


def compact_edges(
    tails: np.ndarray,
    heads: np.ndarray,
    weights: np.ndarray,
    *,
    drop_self_loops: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort arcs by (tail, head), drop self-loops and deduplicate.

    Duplicate arcs (same tail and head) are merged keeping the minimum
    weight — the only reduction that preserves shortest-path distances.

    Returns the compacted ``(tails, heads, weights)`` triple.
    """
    tails, heads, weights = (np.asarray(a, dtype=np.int64) for a in (tails, heads, weights))
    if not (tails.shape == heads.shape == weights.shape):
        raise ValueError("tails, heads and weights must have equal length")
    if drop_self_loops:
        keep = tails != heads
        tails, heads, weights = tails[keep], heads[keep], weights[keep]
    else:  # the packed sort below works in the three arrays
        tails, heads, weights = tails.copy(), heads.copy(), weights.copy()
    if tails.size == 0:
        return tails, heads, weights
    # Sorting by (tail, head, weight) dominates graph construction. When the
    # three fields fit together in 62 bits, they are packed into one key in
    # the tails array, sorted in place and decoded back into the three
    # arrays: equal keys are equal arcs, so no stable order is needed.
    h_span, w_span = int(heads.max()) + 1, int(weights.max()) + 1
    bits = int(tails.max()).bit_length() + h_span.bit_length() + w_span.bit_length()
    if bits <= 62 and min(tails.min(), heads.min(), weights.min()) >= 0:
        tails *= h_span
        tails += heads
        tails *= w_span
        tails += weights
        tails.sort()
        np.divmod(tails, w_span, out=(tails, weights))
        np.divmod(tails, h_span, out=(tails, heads))
    else:
        order = np.lexsort((weights, heads, tails))
        tails, heads, weights = tails[order], heads[order], weights[order]
    # After sorting by (tail, head, weight), the first arc of each duplicate
    # run carries the minimum weight.
    first = np.empty(tails.size, dtype=bool)
    first[0] = True
    np.not_equal(tails[1:], tails[:-1], out=first[1:])
    first[1:] |= heads[1:] != heads[:-1]
    return tails[first], heads[first], weights[first]


def from_edges(
    tails: np.ndarray,
    heads: np.ndarray,
    weights: np.ndarray,
    num_vertices: int,
    *,
    undirected: bool = False,
    dedup: bool = True,
) -> CSRGraph:
    """Build a :class:`CSRGraph` from directed arcs.

    Parameters
    ----------
    tails, heads, weights:
        Parallel arrays describing the arcs.
    num_vertices:
        Total vertex count ``n`` (vertex ids must be in ``[0, n)``).
    undirected:
        Mark the result as undirected. The caller is responsible for the
        arc set already being symmetric; use :func:`from_undirected_edges`
        to symmetrize automatically.
    dedup:
        Remove self-loops and duplicate arcs (min-weight wins).
    """
    tails, heads, weights = (np.asarray(a, dtype=np.int64) for a in (tails, heads, weights))
    if tails.size and (
        tails.min() < 0
        or heads.min() < 0
        or tails.max() >= num_vertices
        or heads.max() >= num_vertices
    ):
        raise ValueError("vertex ids out of range")
    if dedup:
        tails, heads, weights = compact_edges(tails, heads, weights)
    else:
        order = np.lexsort((heads, tails))
        tails, heads, weights = tails[order], heads[order], weights[order]
    counts = np.bincount(tails, minlength=num_vertices).astype(np.int64)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRGraph(indptr, heads, weights, undirected=undirected)


def from_undirected_edges(
    tails: np.ndarray,
    heads: np.ndarray,
    weights: np.ndarray,
    num_vertices: int,
) -> CSRGraph:
    """Build a symmetrized :class:`CSRGraph` from undirected edges.

    Each input edge ``{u, v}`` with weight ``w`` produces the arcs ``(u, v)``
    and ``(v, u)``, both with weight ``w``. Self-loops are discarded and
    parallel edges collapse to the lightest.
    """
    tails, heads, weights = (np.asarray(a, dtype=np.int64) for a in (tails, heads, weights))
    return from_edges(
        np.concatenate([tails, heads]), np.concatenate([heads, tails]),
        np.concatenate([weights, weights]), num_vertices, undirected=True,
    )
