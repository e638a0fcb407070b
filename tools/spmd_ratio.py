#!/usr/bin/env python
"""Wall-clock ratio of the rank driver over the whole-graph driver, per root.

The shape of the `spmd-vs-orchestrated` gate (`cold_spmd`): an R-MAT
graph of 2^scale vertices, weight-sorted, solved with the `opt` preset at
Δ = 25 on an 8 × 8 machine. Every root is solved by `spmd_delta_stepping`
(records routed through a mailbox) and by `BatchSolver.solve` (the same
traffic declared), alternated — each pass runs one driver first and the
next pass the other — so a drift of the host moves both sides alike.
A root's ratio is the rank driver's fastest solve over the whole-graph
driver's; the script prints the median, p10 and p90 of those ratios and
fails if the two drivers' distances differ.

    PYTHONPATH=src python tools/spmd_ratio.py [--scale 10] [--roots 30] [--seed 1] [--passes 2]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.core.config import preset
from repro.core.solver import BatchSolver
from repro.graph import rmat_graph
from repro.runtime.machine import MachineConfig
from repro.spmd.engine import spmd_delta_stepping


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--scale", type=int, default=10)
    ap.add_argument("--roots", type=int, default=30)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=2)
    args = ap.parse_args()

    graph = rmat_graph(args.scale, seed=args.seed).sorted_by_weight()
    machine, config = MachineConfig(num_ranks=8, threads_per_rank=8), preset("opt", 25)
    solver = BatchSolver(graph, algorithm="opt", delta=25, num_ranks=8, threads_per_rank=8)
    drivers = {
        "spmd": lambda root: spmd_delta_stepping(graph, root, machine, config=config)[0],
        "orchestrated": lambda root: solver.solve(root).distances,
    }
    rng = np.random.default_rng(args.seed)
    roots = rng.choice(np.flatnonzero(graph.degrees), size=args.roots, replace=False)
    for solve in drivers.values():
        solve(int(roots[0]))  # warm-up

    ratios = []
    for root in (int(r) for r in roots):
        best, distances = dict.fromkeys(drivers, float("inf")), {}
        for turn in range(args.passes):
            for name in list(drivers)[:: 1 if turn % 2 == 0 else -1]:
                t0 = time.perf_counter()
                distances[name] = drivers[name](root)
                best[name] = min(best[name], time.perf_counter() - t0)
        if not np.array_equal(*distances.values()):
            raise SystemExit(f"root {root}: the drivers' distances differ")
        ratios.append(best["spmd"] / best["orchestrated"])

    p10, median, p90 = np.percentile(ratios, [10, 50, 90])
    print(
        f"scale-{args.scale} R-MAT, opt/Δ=25, 8x8, {len(ratios)} roots x "
        f"{args.passes} alternated passes (per-root minimum)"
    )
    print(f"spmd/orchestrated per root: median {median:.3f}, p10 {p10:.3f}, p90 {p90:.3f}")


if __name__ == "__main__":
    main()
