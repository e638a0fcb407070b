"""Compressed sparse row (CSR) graph container.

All SSSP kernels in :mod:`repro.core` operate on this structure. The graph
is stored as three numpy arrays (the classic adjacency-array layout used by
Graph 500 codes):

- ``indptr``  — ``int64[n + 1]``, prefix sums of vertex out-degrees;
- ``adj``     — ``int64[m]``, concatenated adjacency lists;
- ``weights`` — ``int64[m]``, per-directed-edge weights aligned with ``adj``.

Undirected graphs (the paper's setting) are stored symmetrized: each
undirected edge ``{u, v}`` contributes the two directed arcs ``(u, v)`` and
``(v, u)`` with equal weight. ``num_undirected_edges`` reports ``m / 2`` in
that case and is what TEPS computations use (the Graph 500 convention counts
input edges, not directed arcs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, TypeVar

import numpy as np

__all__ = ["CSRGraph"]

T = TypeVar("T")


@dataclass(frozen=True)
class CSRGraph:
    """An immutable weighted graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; adjacency of vertex ``u`` lives
        in ``adj[indptr[u]:indptr[u + 1]]``.
    adj:
        ``int64`` array of directed-edge heads.
    weights:
        ``int64`` array of positive edge weights aligned with ``adj``.
    undirected:
        True when the arrays store a symmetrized undirected graph.
    """

    indptr: np.ndarray
    adj: np.ndarray
    weights: np.ndarray
    undirected: bool = True
    _sorted_by_weight: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        adj = np.ascontiguousarray(self.adj, dtype=np.int64)
        weights = np.ascontiguousarray(self.weights, dtype=np.int64)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "weights", weights)
        if indptr.ndim != 1 or adj.ndim != 1 or weights.ndim != 1:
            raise ValueError("CSR arrays must be one-dimensional")
        if indptr.size == 0:
            raise ValueError("indptr must have length n + 1 >= 1")
        if indptr[0] != 0:
            raise ValueError("indptr[0] must be 0")
        if adj.size != indptr[-1]:
            raise ValueError(
                f"adj has {adj.size} entries but indptr[-1] = {int(indptr[-1])}"
            )
        if weights.size != adj.size:
            raise ValueError("weights must align with adj")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if adj.size and (adj.min() < 0 or adj.max() >= self.num_vertices):
            raise ValueError("adjacency entries out of range")
        if weights.size and weights.min() < 0:
            raise ValueError("edge weights must be non-negative")
        object.__setattr__(self, "_tables", {})

    def memo(self, key: tuple, build: Callable[[], T]) -> T:
        """``build()``, made once per graph and ``key`` and kept for the
        graph's life: the per-graph tables every context of the graph
        shares (short/long splits by Δ, partitions, thread maps).

        What ``build`` returns must not point back at the graph. The memo
        lives in the graph, so a back-reference is a cycle, and a dropped
        graph would then stay resident until the cyclic collector runs
        instead of going at its last reference. Racing builders agree on
        the first value stored."""
        try:
            return self._tables[key]
        except KeyError:
            return self._tables.setdefault(key, build())

    # ------------------------------------------------------------------
    # Shape accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return int(self.indptr.size - 1)

    @property
    def num_arcs(self) -> int:
        """Number of stored directed arcs (``2m`` for undirected graphs)."""
        return int(self.adj.size)

    @property
    def num_undirected_edges(self) -> int:
        """Number of input edges as counted by TEPS (``m``)."""
        return self.num_arcs // 2 if self.undirected else self.num_arcs

    @cached_property
    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex (``int64[n]``, read-only).

        Differenced once per graph: the push/pull estimator gathers from it
        per bucket, and every context of a graph shares the one table."""
        degrees = np.diff(self.indptr)
        degrees.flags.writeable = False
        return degrees

    def degree(self, u: int) -> int:
        """Out-degree of vertex ``u``."""
        return int(self.indptr[u + 1] - self.indptr[u])

    def neighbors(self, u: int) -> np.ndarray:
        """Adjacency list (view) of vertex ``u``."""
        return self.adj[self.indptr[u] : self.indptr[u + 1]]

    def neighbor_weights(self, u: int) -> np.ndarray:
        """Weights (view) aligned with :meth:`neighbors`."""
        return self.weights[self.indptr[u] : self.indptr[u + 1]]

    @cached_property
    def max_weight(self) -> int:
        """Largest edge weight (0 on an edgeless graph).

        Reduced once per graph: the push/pull estimator reads it per bucket,
        and the arrays of a graph never change after construction.
        """
        return int(self.weights.max()) if self.weights.size else 0

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def sorted_by_weight(self) -> "CSRGraph":
        """Return an equivalent graph with each adjacency list sorted by weight.

        Weight-sorted adjacency lets the short/long edge split be expressed as
        a per-vertex offset (a single ``searchsorted`` per vertex) instead of a
        mask over all arcs, which is what the paper's edge-classification
        preprocessing computes.
        """
        if self._sorted_by_weight:
            return self
        n, m = self.num_vertices, self.num_arcs
        w_span = self.max_weight + 1
        key = self.arc_tails()
        # Sort within each CSR segment, stably: one in-place sort of the
        # packed (tail, weight, arc position) key when it fits in 62 bits.
        if (n * w_span * m).bit_length() <= 62:
            key *= w_span
            key += self.weights
            order = _positions_in_order(key, m)
        else:
            order = np.lexsort((self.weights, key))
        return CSRGraph(self.indptr, self.adj[order], self.weights[order],
                        self.undirected, _sorted_by_weight=True)

    def short_edge_offsets(self, delta: int) -> np.ndarray:
        """Per-vertex index of the first *long* edge (weight >= ``delta``).

        Requires a weight-sorted graph (see :meth:`sorted_by_weight`). Entry
        ``k`` for vertex ``u`` means ``adj[indptr[u]:indptr[u]+k]`` are the
        short edges and the rest are long.
        """
        if not self._sorted_by_weight:
            raise ValueError("short_edge_offsets requires a weight-sorted graph")
        # Short arcs of u = (short arcs before indptr[u + 1]) - (short arcs
        # before indptr[u]): a prefix-count difference, read off the sorted
        # positions of the short arcs so that only those are materialised.
        # Empty segments and an empty position list need no special case.
        short_positions = np.flatnonzero(self.weights < delta)
        return np.diff(np.searchsorted(short_positions, self.indptr))

    def reverse(self) -> "CSRGraph":
        """Return the graph with all arcs reversed.

        For undirected (symmetrized) graphs this is an identical graph; it is
        provided for completeness and for directed-graph experiments.
        """
        n, m = self.num_vertices, self.num_arcs
        # Arcs in stable head order: the packed (head, arc position) key
        # when it fits in 62 bits.
        if (n * m).bit_length() <= 62:
            order = _positions_in_order(self.adj.copy(), m)
        else:
            order = np.lexsort((self.adj,))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.adj, minlength=n), out=indptr[1:])
        return CSRGraph(indptr, self.arc_tails()[order], self.weights[order],
                        self.undirected)

    def arc_tails(self) -> np.ndarray:
        """Tail vertex of every stored arc (``int64[num_arcs]``)."""
        return np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.degrees)

    def to_edge_list(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(tails, heads, weights)`` arrays of all stored arcs."""
        return self.arc_tails(), self.adj.copy(), self.weights.copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "undirected" if self.undirected else "directed"
        return (
            f"CSRGraph(n={self.num_vertices}, m={self.num_undirected_edges}, "
            f"{kind}, w_max={self.max_weight})"
        )


def _positions_in_order(key: np.ndarray, m: int) -> np.ndarray:
    """The stable ``argsort`` of ``key``, ``m`` non-negative entries with
    ``(key.max() + 1) * m`` at most 2**62: ``key * m + position`` sorted in
    place, the positions read off by one ``%``. ``key`` is used up."""
    key *= m
    key += np.arange(m, dtype=np.int64)
    key.sort()
    key %= m
    return key
