"""Inter-node load balancing by vertex splitting (Section III-E).

At extreme scales the degree skew of RMAT-1 graphs defeats thread-level
balancing: a single vertex's neighbourhood exceeds what one *node* can
process. The paper's remedy is graph surgery: a vertex ``u`` of extreme
degree is split into ``ℓ`` *proxies* ``u_1 … u_ℓ`` connected to ``u`` by
zero-weight edges, and ``u``'s original adjacency is partitioned across the
proxies. Shortest distances of original vertices are unchanged (any path
through ``u`` now detours through a zero-weight proxy hop), but the
neighbourhood work is spread over the ranks owning the proxies.

(The *intra*-node tier of the strategy — threads of a rank cooperating on
heavy vertices — does not change the graph and lives in the step ledger's
fold of a charge, :func:`repro.runtime.metrics.work_grid`.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.builder import from_undirected_edges
from repro.graph.csr import CSRGraph

__all__ = ["SplitResult", "split_heavy_vertices"]


@dataclass(frozen=True)
class SplitResult:
    """Outcome of the proxy-splitting transform.

    ``new_id_of_original[v]`` locates original vertex ``v`` in the new
    graph; distances computed on :attr:`graph` are mapped back through it.
    """

    graph: CSRGraph
    new_id_of_original: np.ndarray
    num_split_vertices: int
    num_proxies: int

    def distances_for_original(self, d_new: np.ndarray) -> np.ndarray:
        """Project a distance array of the split graph onto original ids."""
        return np.asarray(d_new)[self.new_id_of_original]


def _occurrence_index(values: np.ndarray) -> np.ndarray:
    """Per-element running count of prior occurrences of the same value.

    ``[7, 3, 7, 7, 3] -> [0, 0, 1, 2, 1]``; used to deal incident edges of a
    heavy vertex round-robin into proxy groups without a Python loop.
    """
    if values.size == 0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    group_start = np.zeros(values.size, dtype=np.int64)
    new_group = np.empty(values.size, dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_vals[1:], sorted_vals[:-1], out=new_group[1:])
    starts = np.nonzero(new_group)[0]
    counts = np.diff(np.append(starts, values.size))
    group_start = np.repeat(starts, counts)
    occ_sorted = np.arange(values.size, dtype=np.int64) - group_start
    occ = np.empty(values.size, dtype=np.int64)
    occ[order] = occ_sorted
    return occ


def split_heavy_vertices(
    graph: CSRGraph,
    threshold: int,
    *,
    shuffle: bool = True,
    seed: int = 0,
) -> SplitResult:
    """Split every vertex with degree > ``threshold`` into proxies.

    Each heavy vertex ``u`` receives ``ℓ = ceil(degree(u) / threshold)``
    proxies; its incident edges are dealt into groups of at most
    ``threshold`` and re-anchored on the proxies; ``u`` keeps only the
    ``ℓ`` zero-weight edges to its proxies. With ``shuffle=True`` (the
    default) all vertex ids of the new graph are relabelled with a seeded
    random permutation so the proxies scatter across block partitions —
    placing them is the entire point of the transform.
    """
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    if not graph.undirected:
        raise ValueError("vertex splitting expects an undirected graph")
    n = graph.num_vertices
    deg = graph.degrees
    heavy_mask = deg > threshold
    heavy = np.nonzero(heavy_mask)[0].astype(np.int64)
    if heavy.size == 0:
        identity = np.arange(n, dtype=np.int64)
        return SplitResult(graph, identity, 0, 0)

    num_proxies_per = np.zeros(n, dtype=np.int64)
    num_proxies_per[heavy] = -(-deg[heavy] // threshold)  # ceil division
    proxy_base = np.zeros(n, dtype=np.int64)
    np.cumsum(num_proxies_per, out=proxy_base)
    total_proxies = int(proxy_base[-1])
    proxy_base = n + np.concatenate(([0], proxy_base[:-1]))

    # Undirected edge list, each edge once.
    tails, heads, weights = graph.to_edge_list()
    once = tails < heads
    tails, heads, weights = tails[once], heads[once], weights[once]

    # Re-anchor every appearance of a heavy endpoint onto one of its proxies.
    endpoints = np.concatenate([tails, heads])
    occ = _occurrence_index(endpoints)
    is_heavy_slot = heavy_mask[endpoints]
    new_endpoints = endpoints.copy()
    hv = endpoints[is_heavy_slot]
    new_endpoints[is_heavy_slot] = proxy_base[hv] + occ[is_heavy_slot] // threshold
    new_tails = new_endpoints[: tails.size]
    new_heads = new_endpoints[tails.size :]

    # Zero-weight spokes: u -- u_i for every proxy.
    spoke_tails = np.repeat(heavy, num_proxies_per[heavy])
    spoke_occ = _occurrence_index(spoke_tails)
    spoke_heads = proxy_base[spoke_tails] + spoke_occ
    spoke_weights = np.zeros(spoke_tails.size, dtype=np.int64)

    all_tails = np.concatenate([new_tails, spoke_tails])
    all_heads = np.concatenate([new_heads, spoke_heads])
    all_weights = np.concatenate([weights, spoke_weights])
    new_n = n + total_proxies

    if shuffle:
        rng = np.random.default_rng(seed)
        perm = rng.permutation(new_n).astype(np.int64)
        all_tails = perm[all_tails]
        all_heads = perm[all_heads]
        new_id_of_original = perm[:n]
    else:
        new_id_of_original = np.arange(n, dtype=np.int64)

    new_graph = from_undirected_edges(all_tails, all_heads, all_weights, new_n)
    return SplitResult(
        graph=new_graph,
        new_id_of_original=new_id_of_original,
        num_split_vertices=int(heavy.size),
        num_proxies=total_proxies,
    )
