"""Shortest-path tree reconstruction and path extraction.

The paper's algorithms compute distances only; a downstream consumer
(routing, Graph 500 validation) also needs the *tree*. Rather
than burden the distributed engine with parent bookkeeping, the tree is
reconstructed from the distance array in one vectorised pass: vertex ``v``
may pick any neighbour ``u`` with ``d(u) + w(u, v) == d(v)`` as its parent
— such a neighbour always exists for a reached non-root vertex, and any
choice yields a valid shortest-path tree.
"""

from __future__ import annotations

import numpy as np

from repro.core.distances import INF
from repro.graph.csr import CSRGraph
from repro.util.ranges import concat_ranges

__all__ = [
    "build_parent_tree",
    "extract_path",
    "tree_depths",
    "NO_PARENT",
]

NO_PARENT: int = -1
"""Parent marker for the root and for unreached vertices."""


def build_parent_tree(graph: CSRGraph, d: np.ndarray, root: int) -> np.ndarray:
    """Parent of every vertex in some shortest-path tree rooted at ``root``.

    Vectorised over all arcs: an arc ``(u, v)`` is *tight* when
    ``d[u] + w == d[v]``; every reached non-root vertex selects one tight
    incoming arc. Returns ``int64[n]`` with :data:`NO_PARENT` for the root
    and for unreached vertices.

    Raises ``ValueError`` if ``d`` is not a valid distance array for the
    graph (a reached non-root vertex with no tight incoming arc).
    """
    n = graph.num_vertices
    d = np.asarray(d, dtype=np.int64)
    if d.shape != (n,):
        raise ValueError("distance array shape mismatch")
    parent = np.full(n, NO_PARENT, dtype=np.int64)
    tails = graph.arc_tails()
    heads = graph.adj
    finite_tail = d[tails] < INF
    tight = finite_tail & (d[tails] + graph.weights == d[heads])
    # For each head with at least one tight arc, keep any one tail (last
    # write wins — all candidates are equally valid).
    parent[heads[tight]] = tails[tight]
    parent[root] = NO_PARENT
    reached = d < INF
    orphans = reached & (parent == NO_PARENT)
    orphans[root] = False
    if orphans.any():
        v = int(np.nonzero(orphans)[0][0])
        raise ValueError(
            f"invalid distance array: vertex {v} is reached (d={int(d[v])}) "
            "but has no tight incoming arc"
        )
    return parent


def extract_path(parent: np.ndarray, root: int, target: int) -> list[int]:
    """Vertex sequence root -> ... -> target along the parent tree.

    Returns ``[]`` when ``target`` is unreached. Guards against malformed
    parent arrays (cycles) by bounding the walk at ``n`` steps.
    """
    parent = np.asarray(parent, dtype=np.int64)
    if target == root:
        return [root]
    if parent[target] == NO_PARENT:
        return []
    path = [int(target)]
    v = int(target)
    for _ in range(parent.size):
        v = int(parent[v])
        path.append(v)
        if v == root:
            return path[::-1]
    raise ValueError("parent array contains a cycle")


def tree_depths(parent: np.ndarray, root: int) -> np.ndarray:
    """Hop depth of every vertex in the parent tree (-1 if unreached).

    Runs in O(n) amortised via path-compression-style memoisation.
    """
    parent = np.asarray(parent, dtype=np.int64)
    n = parent.size
    depth = np.full(n, -2, dtype=np.int64)  # -2 = unknown
    depth[root] = 0
    unreached = parent == NO_PARENT
    depth[unreached] = -1
    depth[root] = 0
    for v in range(n):
        if depth[v] != -2:
            continue
        chain = []
        u = v
        while depth[u] == -2:
            chain.append(u)
            u = int(parent[u])
        base = depth[u]
        for i, x in enumerate(reversed(chain), start=1):
            depth[x] = base + i
    return depth
