"""Direction-optimizing BFS (Beamer, Asanović, Patterson; SC'12).

Level-synchronous BFS with two step implementations:

**top-down** — every frontier vertex sends its id along all incident arcs;
unvisited receivers join the next frontier. Work and traffic scale with the
edges *leaving the frontier*.

**bottom-up** — every unvisited vertex scans its own (incoming) arcs for a
frontier neighbour and stops at the first hit. Work scales with the edges
examined by the *unvisited* side — far less than top-down when the frontier
is a large fraction of the graph — at the cost of broadcasting the frontier
bitmap (an allgather of n bits per level).

Beamer's heuristic switches top-down -> bottom-up when the frontier's edge
count exceeds ``1/alpha`` of the unexplored edge count, and back when the
frontier shrinks below ``n / beta`` vertices (alpha = 15, beta = 24 in the
original paper). This mirrors the SSSP pruning push/pull decision — which
the paper credits to exactly this technique.

All compute and traffic is declared to the same accounting runtime as the
SSSP engine, so BFS and SSSP TEPS are directly comparable (the paper's
Fig. 1 discussion).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import SolverConfig
from repro.core.context import ExecutionContext, make_context
from repro.graph.csr import CSRGraph
from repro.runtime.comm import RELAX_RECORD_BYTES
from repro.runtime.costmodel import CostBreakdown, evaluate_cost, simulated_gteps
from repro.runtime.machine import MachineConfig
from repro.runtime.metrics import ComputeKind, Metrics
from repro.util.ranges import concat_ranges

__all__ = ["BfsResult", "run_bfs", "DEFAULT_ALPHA", "DEFAULT_BETA"]

DEFAULT_ALPHA = 15
"""Beamer's top-down -> bottom-up switching parameter."""

DEFAULT_BETA = 24
"""Beamer's bottom-up -> top-down switching parameter."""

UNVISITED = np.int64(-1)


@dataclass
class BfsResult:
    """Outcome of one BFS run on the simulated machine."""

    levels: np.ndarray
    """Hop distance per vertex (-1 = unreached)."""
    parent: np.ndarray
    """BFS-tree parent per vertex (-1 = root or unreached)."""
    metrics: Metrics
    cost: CostBreakdown
    gteps: float
    direction_per_level: list[str]
    root: int

    @property
    def num_reached(self) -> int:
        return int((self.levels >= 0).sum())

    @property
    def num_levels(self) -> int:
        return len(self.direction_per_level)


def _top_down_step(
    ctx: ExecutionContext,
    frontier: np.ndarray,
    levels: np.ndarray,
    parent: np.ndarray,
    level: int,
) -> np.ndarray:
    """Expand the frontier along outgoing arcs; returns the next frontier."""
    graph = ctx.graph
    indptr, adj = graph.indptr, graph.adj
    arcs, owner_idx = concat_ranges(indptr[frontier], indptr[frontier + 1])
    src = frontier[owner_idx]
    dst = adj[arcs]
    ctx.charge(
        ComputeKind.BF_RELAX,
        frontier,
        (indptr[frontier + 1] - indptr[frontier]).astype(np.float64),
        phase_kind="bf",
    )
    ctx.comm.exchange_by_vertex(src, dst, RELAX_RECORD_BYTES, phase_kind="bf")
    ctx.charge(ComputeKind.BF_RELAX, dst, None, phase_kind="bf",
               count_as_relax=True)
    fresh_mask = levels[dst] == UNVISITED
    fresh_dst = dst[fresh_mask]
    fresh_src = src[fresh_mask]
    # first writer wins for the parent; duplicates collapse via unique
    uniq, first = np.unique(fresh_dst, return_index=True)
    levels[uniq] = level
    parent[uniq] = fresh_src[first]
    return uniq


def _bottom_up_step(
    ctx: ExecutionContext,
    frontier_mask: np.ndarray,
    levels: np.ndarray,
    parent: np.ndarray,
    level: int,
) -> np.ndarray:
    """Unvisited vertices search their in-arcs for a frontier neighbour.

    Returns the next frontier. Each unvisited vertex stops at its first
    frontier neighbour (the early exit that makes bottom-up cheap); the
    charged work is exactly the arcs examined. The frontier bitmap
    broadcast is accounted as an allgather-style exchange of n/8 bytes
    per rank pair boundary (modelled as one exchange of the bitmap bytes).
    """
    graph = ctx.in_graph
    indptr, adj = graph.indptr, graph.adj
    n = levels.size
    unvisited = np.nonzero(levels == UNVISITED)[0].astype(np.int64)
    if unvisited.size == 0:
        return np.empty(0, dtype=np.int64)

    # Frontier bitmap allgather: each rank contributes its n/P-bit chunk
    # and assembles the full n-bit bitmap. A ring/recursive-doubling
    # allgather moves ~(P-1)/P * n bits in and out per rank — ~2 * n/8
    # bytes — with P-1 (aggregated) messages.
    p = ctx.machine.num_ranks
    if p > 1:
        bitmap_bytes = np.full(p, 2 * (n // 8 + 1), dtype=np.int64)
        ctx.metrics.add_exchange(
            np.full(p, p - 1, dtype=np.int64),
            bitmap_bytes,
            phase_kind="bf",
        )

    arcs, owner_idx = concat_ranges(indptr[unvisited], indptr[unvisited + 1])
    hits = frontier_mask[adj[arcs]]
    # Per-unvisited-vertex: index of the first frontier neighbour, and the
    # number of arcs examined (hit position + 1, or the full degree).
    degs = (indptr[unvisited + 1] - indptr[unvisited]).astype(np.int64)
    # positions within each segment
    seg_starts = np.concatenate(([0], np.cumsum(degs)[:-1]))
    pos_in_seg = np.arange(arcs.size, dtype=np.int64) - seg_starts[owner_idx]
    # first hit per segment: minimum hit position (degs where none)
    first_hit = np.full(unvisited.size, np.iinfo(np.int64).max, dtype=np.int64)
    if hits.any():
        np.minimum.at(first_hit, owner_idx[hits], pos_in_seg[hits])
    found = first_hit < np.iinfo(np.int64).max
    examined = np.where(found, first_hit + 1, degs).astype(np.float64)
    ctx.charge(
        ComputeKind.BF_RELAX, unvisited, examined, phase_kind="bf",
        count_as_relax=True,
    )

    joiners = unvisited[found]
    if joiners.size:
        parent_arc = indptr[joiners] + first_hit[found]
        parent[joiners] = adj[parent_arc]
        levels[joiners] = level
    return joiners


def run_bfs(
    graph: CSRGraph,
    root: int,
    *,
    machine: MachineConfig | None = None,
    num_ranks: int = 8,
    threads_per_rank: int = 16,
    alpha: int = DEFAULT_ALPHA,
    beta: int = DEFAULT_BETA,
    direction: str = "auto",
    intra_lb: bool = False,
) -> BfsResult:
    """Breadth-first search from ``root`` on the simulated machine.

    ``direction``: ``"auto"`` (Beamer's heuristic), ``"top-down"`` or
    ``"bottom-up"`` to force one step kind throughout.
    """
    if direction not in ("auto", "top-down", "bottom-up"):
        raise ValueError(f"unknown direction {direction!r}")
    if machine is None:
        machine = MachineConfig(num_ranks=num_ranks, threads_per_rank=threads_per_rank)
    # BFS ignores weights; Δ is irrelevant but the context requires one.
    ctx = make_context(graph, machine, SolverConfig(delta=1, intra_lb=intra_lb))
    g = ctx.graph
    n = g.num_vertices
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range")

    levels = np.full(n, UNVISITED, dtype=np.int64)
    parent = np.full(n, UNVISITED, dtype=np.int64)
    levels[root] = 0
    frontier = np.array([root], dtype=np.int64)
    frontier_mask = np.zeros(n, dtype=bool)
    directions: list[str] = []
    degrees = g.degrees
    total_arcs = int(g.num_arcs)
    explored_arcs = int(degrees[root])
    mode = "top-down" if direction != "bottom-up" else "bottom-up"
    level = 0

    while True:
        ctx.comm.allreduce(1, phase_kind="bucket")  # level-synchronous barrier
        if frontier.size == 0:
            break
        level += 1
        if direction == "auto":
            frontier_edges = int(degrees[frontier].sum())
            remaining_edges = max(total_arcs - explored_arcs, 1)
            if mode == "top-down" and frontier_edges * alpha > remaining_edges:
                mode = "bottom-up"
            elif mode == "bottom-up" and frontier.size * beta < n:
                mode = "top-down"
        else:
            mode = direction
        directions.append(mode)

        if mode == "top-down":
            next_frontier = _top_down_step(ctx, frontier, levels, parent, level)
        else:
            frontier_mask[:] = False
            frontier_mask[frontier] = True
            next_frontier = _bottom_up_step(
                ctx, frontier_mask, levels, parent, level
            )
        explored_arcs += int(degrees[next_frontier].sum())
        frontier = next_frontier

    parent[root] = UNVISITED
    cost = evaluate_cost(ctx.metrics, machine)
    gteps = simulated_gteps(graph.num_undirected_edges, ctx.metrics, machine, cost)
    return BfsResult(
        levels=levels,
        parent=parent,
        metrics=ctx.metrics,
        cost=cost,
        gteps=gteps,
        direction_per_level=directions,
        root=root,
    )
