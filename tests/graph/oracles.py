"""Test-only oracles for graph construction: the bodies that sorted arcs
before construction sorted one packed key in place, kept as the reference
the in-place sorts are held equal to.

- :func:`compact_edges_oracle` — a stable ``argsort`` of the packed
  ``(tail, head, weight)`` key (``lexsort`` when wider than 62 bits), then
  three gathers and the keep-minimum dedupe.
- :func:`sorted_by_weight_oracle` — a stable ``argsort`` of the packed
  ``(tail, weight)`` key (``lexsort`` when wider), then two gathers.
- :func:`reverse_oracle` — a stable ``argsort`` of the heads and three
  gathers.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph


def compact_edges_oracle(tails, heads, weights, *, drop_self_loops=True):
    tails = np.asarray(tails, dtype=np.int64)
    heads = np.asarray(heads, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.int64)
    if not (tails.shape == heads.shape == weights.shape):
        raise ValueError("tails, heads and weights must have equal length")
    if drop_self_loops:
        keep = tails != heads
        tails, heads, weights = tails[keep], heads[keep], weights[keep]
    if tails.size == 0:
        return tails, heads, weights
    h_span = int(heads.max()) + 1
    w_span = int(weights.max()) + 1
    t_bits = int(tails.max()).bit_length()
    if t_bits + h_span.bit_length() + w_span.bit_length() <= 62 and weights.min() >= 0:
        key = (tails * h_span + heads) * w_span + weights
        order = np.argsort(key, kind="stable")
    else:
        order = np.lexsort((weights, heads, tails))
    tails, heads, weights = tails[order], heads[order], weights[order]
    first = np.empty(tails.size, dtype=bool)
    first[0] = True
    np.not_equal(tails[1:], tails[:-1], out=first[1:])
    first[1:] |= heads[1:] != heads[:-1]
    return tails[first], heads[first], weights[first]


def sorted_by_weight_oracle(graph: CSRGraph) -> CSRGraph:
    n = graph.num_vertices
    adj = graph.adj.copy()
    weights = graph.weights.copy()
    seg = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    w_span = int(weights.max()) + 1 if weights.size else 1
    if (n.bit_length() + w_span.bit_length() <= 62) and (
        weights.size == 0 or weights.min() >= 0
    ):
        order = np.argsort(seg * w_span + weights, kind="stable")
    else:
        order = np.lexsort((weights, seg))
    adj = adj[order]
    weights = weights[order]
    return CSRGraph(graph.indptr, adj, weights, graph.undirected, _sorted_by_weight=True)


def reverse_oracle(graph: CSRGraph) -> CSRGraph:
    n = graph.num_vertices
    tails = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    order = np.argsort(graph.adj, kind="stable")
    new_tails = graph.adj[order]
    new_heads = tails[order]
    new_weights = graph.weights[order]
    counts = np.bincount(new_tails, minlength=n).astype(np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRGraph(indptr, new_heads, new_weights, graph.undirected)
