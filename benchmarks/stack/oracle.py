"""The external yardstick: SciPy's sequential Dijkstra on the same CSR.

It is both the correctness oracle (served and solved distances must equal
it bit for bit) and the yardstick of the ``*_vs_scipy`` metrics, so each
check also returns how long the SciPy call took. A sparse matrix drops
explicit zeros, so a graph with a zero-weight arc is checked with the
repo's heap reference instead, and such checks carry no timing.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.core.distances import INF
from repro.core.reference import dijkstra_reference

__all__ = ["Oracle"]


class Oracle:
    """Reference distances for one graph snapshot."""

    def __init__(self, graph) -> None:
        self.graph = graph
        n = graph.num_vertices
        self._matrix = None
        if graph.weights.size == 0 or graph.weights.min() > 0:
            self._matrix = csr_matrix(
                (graph.weights.astype(np.float64), graph.adj, graph.indptr),
                shape=(n, n),
            )

    def check(self, root: int, got: np.ndarray) -> tuple[bool, float | None]:
        """Whether ``got`` equals the reference bit for bit, and how long
        the SciPy call took (``None`` when the heap reference stood in)."""
        seconds = None
        if self._matrix is None:
            want = dijkstra_reference(self.graph, int(root))
        else:
            t0 = time.perf_counter()
            dist = dijkstra(self._matrix, directed=True, indices=int(root))
            seconds = time.perf_counter() - t0
            want = np.full(dist.shape, INF, dtype=np.int64)
            reached = np.isfinite(dist)
            want[reached] = dist[reached].astype(np.int64)
        got = np.asarray(got)
        return got.dtype.kind == "i" and np.array_equal(got, want), seconds
