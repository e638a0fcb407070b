"""SSSP-powered centrality measures.

The paper motivates SSSP with complex-network analysis, citing Brandes'
betweenness algorithm and Freeman's closeness measure (refs [1], [2]).
Both reduce to repeated single-source shortest-path computations, so they
double as realistic multi-root workloads for the solver:

- **closeness** — ``(r - 1) / sum(d)`` over the ``r`` vertices reached from
  the source (the Wasserman–Faust generalisation handles disconnected
  graphs by scaling with the reached fraction);
- **betweenness** — Brandes' algorithm generalised to weighted graphs: per
  source, count shortest paths ``sigma`` forward over the shortest-path
  DAG in increasing distance order, then accumulate dependencies ``delta``
  backward. Both sweeps are vectorised per distance level.
"""

from __future__ import annotations

import numpy as np

from repro.core.distances import INF
from repro.core.paths import predecessor_arcs
from repro.core.solver import BatchSolver, solve_sssp
from repro.graph.csr import CSRGraph
from repro.graph.roots import choose_roots

__all__ = ["closeness_centrality", "betweenness_centrality", "sssp_distances"]


def sssp_distances(graph: CSRGraph, source: int, **solver_kwargs) -> np.ndarray:
    """Distances from ``source`` using the distributed solver."""
    solver_kwargs.setdefault("algorithm", "opt")
    solver_kwargs.setdefault("delta", 25)
    solver_kwargs.setdefault("num_ranks", 4)
    solver_kwargs.setdefault("threads_per_rank", 4)
    return solve_sssp(graph, source, **solver_kwargs).distances


def _batch_solver(graph: CSRGraph, solver_kwargs: dict) -> BatchSolver:
    """Multi-source pipelines share one preprocessed solver."""
    kwargs = dict(solver_kwargs)
    kwargs.setdefault("algorithm", "opt")
    kwargs.setdefault("delta", 25)
    kwargs.setdefault("num_ranks", 4)
    kwargs.setdefault("threads_per_rank", 4)
    return BatchSolver(graph, **kwargs)


def closeness_centrality(
    graph: CSRGraph,
    sources: np.ndarray | None = None,
    *,
    num_sources: int = 16,
    seed: int = 0,
    **solver_kwargs,
) -> dict[int, float]:
    """Wasserman–Faust closeness of the given (or sampled) sources.

    ``c(v) = ((r - 1) / sum_d) * ((r - 1) / (n - 1))`` with ``r`` the number
    of vertices reached from ``v`` — 0 for isolated sources.
    """
    n = graph.num_vertices
    if sources is None:
        sources = choose_roots(graph, num_sources, seed=seed)
    solver = _batch_solver(graph, solver_kwargs)
    out: dict[int, float] = {}
    for s in np.asarray(sources, dtype=np.int64):
        d = solver.solve(int(s)).distances
        reached = d < INF
        r = int(reached.sum())
        if r <= 1 or n <= 1:
            out[int(s)] = 0.0
            continue
        total = float(d[reached].sum())
        out[int(s)] = ((r - 1) / total) * ((r - 1) / (n - 1))
    return out


def betweenness_centrality(
    graph: CSRGraph,
    sources: np.ndarray | None = None,
    *,
    num_sources: int = 16,
    seed: int = 0,
    normalized: bool = True,
    **solver_kwargs,
) -> np.ndarray:
    """Approximate weighted betweenness via Brandes over sampled sources.

    For every sampled source: solve SSSP, extract the shortest-path DAG
    (tight arcs), sweep forward per distance level to count shortest paths
    ``sigma``, then backward to accumulate dependencies ``delta`` and add
    them into the betweenness scores. With ``sources=None`` samples
    ``num_sources`` roots (the standard Brandes–Pich approximation);
    passing all vertices yields exact betweenness.
    """
    if graph.weights.size and graph.weights.min() == 0:
        # Zero-weight arcs connect equal-distance vertices, breaking the
        # per-level batching of the sigma sweep (paths could thread within
        # a level). Positive weights are the paper's setting anyway.
        raise ValueError("betweenness requires strictly positive weights")
    n = graph.num_vertices
    bc = np.zeros(n, dtype=np.float64)
    if sources is None:
        sources = choose_roots(graph, num_sources, seed=seed)
    sources = np.asarray(sources, dtype=np.int64)
    solver = _batch_solver(graph, solver_kwargs)

    for s in sources:
        d = solver.solve(int(s)).distances
        reached = np.nonzero(d < INF)[0]
        if reached.size <= 1:
            continue
        dag_tails, dag_heads = predecessor_arcs(graph, d)
        # Forward sweep: sigma in increasing distance order. All tails of
        # arcs into a level have strictly smaller distance, so levels can
        # be batched with np.add.at.
        sigma = np.zeros(n, dtype=np.float64)
        sigma[s] = 1.0
        arc_order = np.argsort(d[dag_heads], kind="stable")
        dag_tails = dag_tails[arc_order]
        dag_heads = dag_heads[arc_order]
        head_d = d[dag_heads]
        level_bounds = np.nonzero(np.diff(head_d))[0] + 1
        tail_groups = np.split(dag_tails, level_bounds)
        head_groups = np.split(dag_heads, level_bounds)
        for tg, hg in zip(tail_groups, head_groups):
            np.add.at(sigma, hg, sigma[tg])
        # Backward sweep: delta in decreasing distance order.
        delta = np.zeros(n, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            for tg, hg in zip(reversed(tail_groups), reversed(head_groups)):
                contrib = sigma[tg] / sigma[hg] * (1.0 + delta[hg])
                np.add.at(delta, tg, contrib)
        delta[s] = 0.0
        bc += delta

    if normalized and n > 2:
        # Raw accumulation over all sources counts each unordered pair
        # twice; the 1/((n-1)(n-2)) scale absorbs that (the networkx
        # convention), with n/|sources| extrapolating sampled sources.
        bc *= (n / max(len(sources), 1)) / ((n - 1) * (n - 2))
    else:
        # Unnormalised undirected convention: each pair counted once.
        bc /= 2.0
    return bc
