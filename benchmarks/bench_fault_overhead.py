"""Fault-tolerance overhead of the self-healing SPMD engine.

The recovery layer (DESIGN.md §7) promises two things: zero overhead when
no faults are injected, and bit-identical distances at a measurable cost
when they are. This bench quantifies the cost side: for a ladder of fault
plans — from a perfect wire through record loss/duplication/reordering up
to a rank crash — it reports the recovery supersteps, retransmissions,
recovery-phase traffic and the simulated-time overhead relative to the
fault-free SPMD run, and asserts the distances never drift.
"""

from __future__ import annotations

import functools

import sys
from pathlib import Path

if __package__ in (None, ""):  # standalone execution: python benchmarks/bench_*.py
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import numpy as np

from benchmarks.common import (
    BENCH_SCALE,
    cached_rmat,
    choose_root,
    default_machine,
    print_table,
)
from repro.core.solver import solve_sssp
from repro.spmd.faults import FaultPlan, RankCrash, RankStall

SCALE = BENCH_SCALE - 3  # self-healing sweeps are whole-graph BF iterations
NUM_RANKS = 8

PLANS: list[tuple[str, FaultPlan | None]] = [
    ("fault-free", None),
    ("empty plan", FaultPlan()),
    ("loss 2%", FaultPlan(seed=11, loss_rate=0.02)),
    ("loss 10%", FaultPlan(seed=11, loss_rate=0.10)),
    ("dup 5%", FaultPlan(seed=11, dup_rate=0.05)),
    ("reorder 20%", FaultPlan(seed=11, reorder_rate=0.20)),
    ("delay 5%", FaultPlan(seed=11, delay_rate=0.05)),
    (
        "loss+dup+delay",
        FaultPlan(seed=11, loss_rate=0.05, dup_rate=0.02, delay_rate=0.02),
    ),
    ("crash r1@4", FaultPlan(seed=11, crashes=(RankCrash(1, 4),))),
    ("stall r2@3x3", FaultPlan(seed=11, stalls=(RankStall(2, 3, 3),))),
]


@functools.lru_cache(maxsize=1)
def compute_rows():
    graph = cached_rmat(SCALE, "rmat1")
    root = choose_root(graph, seed=3)
    machine = default_machine(NUM_RANKS, 8)

    # Del-25 throughout: the table's rows were measured on plain Δ-stepping.
    solve = functools.partial(
        solve_sssp, graph, root, algorithm="delta", delta=25, machine=machine
    )
    baseline = solve(faults=FaultPlan(), validate="structural")
    base_time = baseline.cost.total_time
    base_d = baseline.distances

    rows = []
    for label, plan in PLANS:
        # ``None`` is the true fault-free path: no wire, no recovery machinery.
        res = solve(faults=plan, validate="structural")
        assert np.array_equal(res.distances, base_d), label
        rec = res.metrics.recovery
        rows.append(
            {
                "plan": label,
                "time_s": res.cost.total_time,
                "overhead": res.cost.total_time / base_time - 1.0,
                "rec_steps": rec.recovery_supersteps,
                "retries": rec.retries,
                "resent_B": rec.retransmitted_bytes,
                "rec_bytes": res.metrics.recovery_bytes,
                "rec_phases": res.metrics.recovery_phases,
                "restarts": rec.rank_restarts,
                "sweeps": rec.healing_sweeps,
            }
        )
    return rows


def test_fault_overhead(benchmark):
    rows = benchmark.pedantic(compute_rows, rounds=1, iterations=1)
    print_table(rows, "fault-tolerance overhead (distances bit-identical)")
    by_plan = {row["plan"]: row for row in rows}
    # A perfect wire costs nothing: no recovery traffic, no extra supersteps.
    for label in ("fault-free", "empty plan"):
        assert by_plan[label]["rec_bytes"] == 0
        assert by_plan[label]["rec_steps"] == 0
    # Injected faults show up as measurable recovery work.
    assert by_plan["loss 10%"]["retries"] > 0
    assert by_plan["loss 10%"]["rec_bytes"] > 0
    assert by_plan["crash r1@4"]["restarts"] >= 1
    # More loss costs more recovery traffic.
    assert by_plan["loss 10%"]["resent_B"] > by_plan["loss 2%"]["resent_B"]


if __name__ == "__main__":
    print_table(compute_rows(), "fault-tolerance overhead")
