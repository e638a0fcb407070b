#!/usr/bin/env python
"""Repair wall time against the touched region, over one fresh solve.

``repair_sssp`` falls back to a fresh solve when dirty ∪ frontier passes
``max_dirty_fraction · n``. Where that default belongs is where a repair
stops being cheaper than the solve it replaces. Per churn level this
applies one seeded batch to the graph, then for each root repairs the
exact old distances with the gate off and solves the new snapshot fresh
on the same context (each the minimum of ``--repeats`` runs):

    PYTHONPATH=src python tools/repair_crossover.py --graph rmat --scale 14
    PYTHONPATH=src python tools/repair_crossover.py --graph grid --side 64

Same preset and machine shape as `benchmarks/stack` (`opt`, Δ = 25,
8 × 8), on the weight-sorted graph it builds. A row is one churn level:
the median over roots of the region ``(dirty + frontier) / n`` (an upper
bound on the gate's dirty ∪ frontier: a re-anchored orphan is in both),
of the repair and fresh-solve milliseconds and of their ratio. The last
line names the region where the ratio crosses 1, interpolated between
the two rows around it.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from repro.core.config import preset
from repro.core.context import make_context
from repro.core.reference import dijkstra_reference
from repro.core.solver import BatchSolver
from repro.dynamic.repair import repair_sssp
from repro.dynamic.updates import apply_batch, random_update_batch
from repro.graph import grid_graph, rmat_graph
from repro.runtime.machine import MachineConfig

CHURN = (0.001, 0.003, 0.01, 0.03, 0.1, 0.15, 0.2, 0.3)


def best_ms(fn, repeats: int) -> tuple[float, object]:
    """Minimum wall milliseconds of ``repeats`` calls, and the last result."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return min(times), out


def sweep(graph, roots, seed: int, repeats: int):
    machine = MachineConfig(num_ranks=8, threads_per_rank=8)
    old = {root: dijkstra_reference(graph, root) for root in roots}
    rows = []
    for churn in CHURN:
        batch = random_update_batch(graph, np.random.default_rng(seed), churn_fraction=churn)
        new_graph, delta = apply_batch(graph, batch)
        ctx = make_context(new_graph, machine, preset("opt", 25))
        solver = BatchSolver.from_context(ctx)
        region, repair, fresh = [], [], []
        for root in roots:
            ms, result = best_ms(lambda: repair_sssp(
                ctx, root, old[root], delta, max_dirty_fraction=float("inf")), repeats)
            solve_ms, solved = best_ms(lambda: solver.solve(root), repeats)
            np.testing.assert_array_equal(result.distances, solved.distances)
            region.append((result.dirty + result.frontier) / graph.num_vertices)
            repair.append(ms)
            fresh.append(solve_ms)
        ratios = [r / f for r, f in zip(repair, fresh)]
        rows.append((churn, batch.size, *(statistics.median(v)
                                          for v in (region, repair, fresh, ratios))))
    return rows


def crossover(rows) -> str:
    for (_, _, r0, *_, q0), (_, _, r1, *_, q1) in zip(rows, rows[1:]):
        if q0 < 1 <= q1:
            return f"{100 * (r0 + (1 - q0) * (r1 - r0) / (q1 - q0)):.1f} %"
    return "none in the swept range" if rows[-1][-1] < 1 else "below the first row"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--graph", choices=("rmat", "grid"), default="rmat")
    parser.add_argument("--scale", type=int, default=14)
    parser.add_argument("--side", type=int, default=64)
    parser.add_argument("--roots", type=int, default=8)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    graph = (rmat_graph(args.scale, seed=args.seed) if args.graph == "rmat"
             else grid_graph(args.side, args.side, seed=args.seed)).sorted_by_weight()
    connected = np.flatnonzero(graph.degrees > 0)
    rng = np.random.default_rng(args.seed)
    roots = [int(r) for r in rng.choice(connected, size=args.roots, replace=False)]
    rows = sweep(graph, roots, args.seed, args.repeats)
    print(f"{'churn':>7} {'ops':>7} {'region':>8} {'repair ms':>10} "
          f"{'fresh ms':>9} {'ratio':>6}")
    for churn, ops, region, repair, fresh, ratio in rows:
        print(f"{churn:>7.3f} {ops:>7} {100 * region:>7.2f}% {repair:>10.2f} "
              f"{fresh:>9.2f} {ratio:>6.2f}")
    print(f"repair costs one fresh solve at a region of {crossover(rows)} of n")


if __name__ == "__main__":
    main()
