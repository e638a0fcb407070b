"""Distributed breadth-first search with direction optimization.

The paper repeatedly positions SSSP against BFS: Fig. 1 compares against
Graph 500 BFS records, and the pruning heuristic of Section III-B "is
inspired by the direction optimization technique adopted by Beamer et al.
in the context of BFS". This subpackage implements that BFS — top-down and
bottom-up steps with Beamer's switching heuristic — on the same simulated
runtime, so the paper's "SSSP is only two to five times slower than BFS on
the same machine configuration" claim can be measured rather than quoted
(figure `bfs-vs-sssp` of `benchmarks/figures`).
"""

from repro.bfs.engine import BfsResult, run_bfs

__all__ = ["BfsResult", "run_bfs"]
