#!/usr/bin/env python
"""Wall-clock time per *region* of a `cold_grid`- or `cold_rmat`-shaped solve.

A cProfile self-time view of the many-bucket regime looks flat: the cost
is hundreds of small NumPy dispatches, none of which stands out. Timed by
region instead — an accumulator around every call of a named function,
children included — the per-epoch residues show. Regions nest
(`concat_ranges` runs inside `gather_push_records` and the short phase,
`apply_relaxations` inside `VertexView.apply`, `gather_pull_requests`
inside `long_phase_pull`, the accounting calls inside `relax_round`, and
the hybrid tail, `bellman_ford_stage`, holds relax rounds of its own,
`estimate_models` runs inside `decide_mode` and `gather_push_records`
inside `long_phase_push`), so the rows do not add up to the solve; a
region counts only its outermost call (`scan_all_ranks` may call
`charge_scan`, both sites of one region).

    PYTHONPATH=src python tools/region_timer.py [--side 64] [--solves 10] [--seed 1] [--driver rank]
    PYTHONPATH=src python tools/region_timer.py --graph rmat --scale 15

Prints, per region, calls and milliseconds per solve (the per-root minimum
over ``--repeats`` passes, summed over calls), the solve total, and how
many push/pull decisions per solve were certified push without pricing
pull and how many ran `estimate_models` (`decide_mode` calls less
`estimate_models` calls, and those calls) — the same counts a traced
solve makes, since a tracer does not steer the decision. Same
graph, preset and machine shape as `benchmarks/stack`'s `cold_grid`
(`opt`, Δ = 25, 8 × 8); ``--graph rmat --scale N`` solves on an R-MAT
graph of 2^N vertices instead, the few-huge-frontiers regime of
`cold_rmat` (scale 15 there). ``--driver rank`` runs the same solves through
`spmd_delta_stepping` (the rank driver, as `cold_spmd` calls it: a
context per solve, records routed through a mailbox) and adds the regions
only that driver has: `make_context`, `Mailbox.send`, `Mailbox.exchange`.
Sites are patched by name, so a renamed function fails the run instead of
dropping out of the table.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

import repro.core.defence as defence
import repro.core.phases as phases
import repro.core.pruning as pruning
import repro.core.pushpull as pushpull
import repro.core.views as views
import repro.spmd.engine as spmd_engine
from repro.core.config import preset
from repro.core.context import ExecutionContext
from repro.core.solver import BatchSolver
from repro.graph import grid_graph, rmat_graph
from repro.runtime.comm import Communicator
from repro.runtime.machine import MachineConfig
from repro.runtime.metrics import Metrics
from repro.spmd.mailbox import Mailbox

#: (owner, attribute) sites per region; a function imported by name into
#: several modules is patched in each
REGIONS = {
    "decide_mode": [(phases, "decide_mode")],
    "estimate_models": [(pushpull, "estimate_models")],
    "long_phase_push": [(phases, "long_phase_push")],
    "VertexView.apply": [(views.VertexView, "apply")],
    "apply_relaxations": [(views, "apply_relaxations")],
    "VertexView.unsettled": [(views.VertexView, "unsettled")],
    "concat_ranges": [(phases, "concat_ranges"), (pruning, "concat_ranges")],
    "short_records": [(phases, "short_records")],
    "gather_push_records": [(pruning, "gather_push_records")],
    "long_phase_pull": [(phases, "long_phase_pull")],
    "gather_pull_requests": [(pruning, "gather_pull_requests")],
    "bellman_ford_stage": [
        (phases, "bellman_ford_stage"), (defence, "bellman_ford_stage"),
        (spmd_engine, "bellman_ford_stage"),
    ],
    "relax_round": [(phases, "relax_round"), (pruning, "relax_round")],
    "ExecutionContext.charge": [(ExecutionContext, "charge")],
    "charge_scan": [
        (ExecutionContext, "charge_scan"), (ExecutionContext, "scan_all_ranks")
    ],
    "exchange_by_vertex": [(Communicator, "exchange_by_vertex")],
    "allreduce": [(Communicator, "allreduce")],
    "Metrics.settle": [(Metrics, "settle")],
}
#: regions of the rank driver alone (``--driver rank``)
RANK_REGIONS = {
    "make_context": [(spmd_engine, "make_context")],
    "Mailbox.send": [(Mailbox, "send")],
    "Mailbox.exchange": [(Mailbox, "exchange")],
}


class Accumulator:
    def __init__(self, regions: dict) -> None:
        self.regions = regions
        self.reset()
        self.depth = dict.fromkeys(regions, 0)

    def reset(self) -> None:
        self.seconds = dict.fromkeys(self.regions, 0.0)
        self.calls = dict.fromkeys(self.regions, 0)

    def wrap(self, region: str, fn):
        clock = time.perf_counter

        def timed(*args, **kwargs):
            if self.depth[region]:
                return fn(*args, **kwargs)
            self.depth[region] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[region] += clock() - t0
                self.calls[region] += 1
                self.depth[region] -= 1

        return timed

    def arm(self) -> None:
        for region, sites in self.regions.items():
            for owner, name in sites:
                setattr(owner, name, self.wrap(region, getattr(owner, name)))

    def take(self) -> tuple[dict, dict]:
        """What accumulated since the last call; starts over."""
        out = self.seconds, self.calls
        self.reset()
        return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--graph", choices=("grid", "rmat"), default="grid")
    ap.add_argument("--side", type=int, default=64)
    ap.add_argument("--scale", type=int, default=15)
    ap.add_argument("--solves", type=int, default=10)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--driver", choices=("whole", "rank"), default="whole")
    args = ap.parse_args()

    if args.graph == "rmat":
        graph = rmat_graph(args.scale, seed=args.seed).sorted_by_weight()
        shape = f"scale-{args.scale} R-MAT"
    else:
        graph = grid_graph(args.side, args.side, seed=args.seed).sorted_by_weight()
        shape = f"{args.side}x{args.side} grid"
    regions = dict(REGIONS)
    if args.driver == "rank":
        regions.update(RANK_REGIONS)
        machine = MachineConfig(num_ranks=8, threads_per_rank=8)
        config = preset("opt", 25)

        def solve(root):
            return spmd_engine.spmd_delta_stepping(graph, root, machine, config=config)[1]
    else:
        solve = BatchSolver(
            graph, algorithm="opt", delta=25, num_ranks=8, threads_per_rank=8
        ).solve

    rng = np.random.default_rng(args.seed)
    roots = rng.choice(np.flatnonzero(graph.degrees), size=args.solves, replace=False)
    solve(int(roots[0]))  # warm-up

    acc = Accumulator(regions)
    acc.arm()
    best: dict[int, tuple[float, dict, dict]] = {}
    epochs = applies = 0
    for _ in range(args.repeats):
        for root in (int(r) for r in roots):
            t0 = time.perf_counter()
            result = solve(root)
            wall = time.perf_counter() - t0
            seconds, calls = acc.take()
            if root not in best or wall < best[root][0]:
                best[root] = (wall, seconds, calls)
            epochs = result.metrics.buckets_processed
            applies = calls["VertexView.apply"]

    n = len(best)
    solve_ms = sum(w for w, _, _ in best.values()) / n * 1e3
    print(
        f"{shape}, opt/Δ=25, 8x8, {args.driver} driver, "
        f"{n} roots x {args.repeats} "
        f"passes (per-root minimum); last root: {epochs} epochs, {applies} applies"
    )
    print(f"{'region':<25}{'calls/solve':>12}{'ms/solve':>10}{'share':>8}")
    for region in regions:
        ms = sum(s[region] for _, s, _ in best.values()) / n * 1e3
        calls = sum(c[region] for _, _, c in best.values()) / n
        print(f"{region:<25}{calls:>12.0f}{ms:>10.2f}{ms / solve_ms:>8.1%}")
    print(f"{'solve':<25}{'':>12}{solve_ms:>10.2f}")
    # Every decision the expectation estimator does not certify it prices.
    priced = sum(c["estimate_models"] for _, _, c in best.values()) / n
    certified = sum(c["decide_mode"] for _, _, c in best.values()) / n - priced
    print(f"push/pull decisions per solve: {certified:.1f} certified, {priced:.1f} priced")


if __name__ == "__main__":
    main()
