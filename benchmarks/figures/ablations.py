"""Experiments beyond the paper's tables: six ablations of its design
choices, the cost-constant calibration and the recovery layer's overhead
ladder.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np

from benchmarks.common import cached_rmat, default_machine
from benchmarks.figures.lab import Figure, Lab, only, oracle_score
from repro.analysis.sweep import delta_sweep
from repro.core.config import SolverConfig, preset
from repro.core.solver import solve_sssp
from repro.graph.rmat import RMAT1, rmat_graph
from repro.graph.roots import choose_root, choose_roots
from repro.graph.weights import (
    bimodal_weights, exponential_weights, reweight, uniform_weights)
from repro.runtime.calibration import calibrate, retime
from repro.spmd.faults import FaultPlan, RankCrash, RankStall


# ------------------------------------------------------------ τ (Sec. III-D)
TAUS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def tau_tables(lab: Lab):
    rows = []
    for family in ("rmat1", "rmat2"):
        graph = cached_rmat(lab.scale, family)
        root = choose_root(graph, seed=0)
        for tau in TAUS:
            res = solve_sssp(graph, root, algorithm=f"opt-tau{tau}",
                             config=preset("opt", 25).evolve(tau=tau),
                             machine=default_machine(8))
            rows.append({
                "family": family.upper(),
                "tau": tau,
                "gteps": res.gteps,
                "buckets": res.metrics.buckets_processed,
                "relaxations": res.metrics.total_relaxations,
                "bkt_ms": res.cost.bucket_time * 1e3,
            })
    return {"Ablation — hybrid switch threshold τ (paper: 0.4)": rows}


def tau_check(tables):
    rows = only(tables)
    for family in ("RMAT1", "RMAT2"):
        sub = {r["tau"]: r for r in rows if r["family"] == family}
        # relaxations decrease monotonically as the switch is delayed
        relax = [sub[t]["relaxations"] for t in TAUS]
        assert all(b <= a for a, b in zip(relax, relax[1:]))
        # bucket overhead increases as the switch is delayed
        assert sub[1.0]["bkt_ms"] > sub[0.0]["bkt_ms"]
        # the paper's τ=0.4 performs within 20% of the best sweep point
        best = max(r["gteps"] for r in sub.values())
        assert sub[0.4]["gteps"] > 0.8 * best


# ---------------------------------------------------------- IOS (Sec. III-A)
def ios_tables(lab: Lab):
    rows = []
    for family in ("rmat1", "rmat2"):
        graph = cached_rmat(lab.scale, family)
        root = choose_root(graph, seed=0)
        for delta in (25, 64, 128):
            base = solve_sssp(graph, root, algorithm="del", machine=default_machine(8),
                              config=SolverConfig(delta=delta))
            ios = solve_sssp(graph, root, algorithm="ios", machine=default_machine(8),
                             config=SolverConfig(delta=delta, use_ios=True))
            b_short = base.metrics.relaxations_by_kind().get("short_relax", 0)
            i_short = ios.metrics.relaxations_by_kind().get("short_relax", 0)
            rows.append({
                "family": family.upper(),
                "delta": delta,
                "short_relax_base": b_short,
                "short_relax_ios": i_short,
                "short_reduction": 1 - i_short / max(b_short, 1),
                "total_base": base.metrics.total_relaxations,
                "total_ios": ios.metrics.total_relaxations,
            })
    return {"Ablation — IOS short-relaxation reduction (paper: ~10%)": rows}


def ios_check(tables):
    rows = only(tables)
    for r in rows:
        # IOS strictly reduces short relaxations...
        assert r["short_relax_ios"] < r["short_relax_base"]
        # ...and never increases total work
        assert r["total_ios"] <= r["total_base"]
    # the reduction is material somewhere (the paper reports ~10%)
    assert max(r["short_reduction"] for r in rows) > 0.05


# --------------------------------------------- decision estimators (III-C)
ESTIMATOR_VARIANTS = [
    ("volume-only", {"pushpull_estimator": "expectation", "imbalance_weight": 0.0}),
    ("expectation", {"pushpull_estimator": "expectation"}),
    ("histogram", {"pushpull_estimator": "histogram"}),
    ("exact", {"pushpull_estimator": "exact"}),
]
ESTIMATOR_ROOTS = 6


def estimator_tables(lab: Lab):
    rows = []
    for family in ("rmat1", "rmat2"):
        graph = cached_rmat(lab.scale - 3, family)
        roots = choose_roots(graph, ESTIMATOR_ROOTS, seed=3)
        for label, overrides in ESTIMATOR_VARIANTS:
            optimal, worst, _ = oracle_score(graph, roots, **overrides)
            rows.append({
                "family": family.upper(),
                "estimator": label,
                "optimal": f"{optimal}/{len(roots)}",
                "optimal_count": optimal,
                "worst_slowdown": worst,
            })
    return {"Ablation — decision estimators vs exhaustive oracle": rows}


def estimator_check(tables):
    by = {(r["family"], r["estimator"]): r for r in only(tables)}
    for family in ("RMAT1", "RMAT2"):
        # the exact estimator is optimal everywhere (the IV-G claim)
        assert by[(family, "exact")]["optimal_count"] == ESTIMATOR_ROOTS
        # richer estimators never do worse than the volume-only baseline
        assert (by[(family, "exact")]["optimal_count"]
                >= by[(family, "volume-only")]["optimal_count"])
        assert by[(family, "expectation")]["worst_slowdown"] < 1.5


# ------------------------------------------------- partition (Sec. III-E)
def partition_tables(lab: Lab):
    # Graph 500 scrambles vertex labels so block partitions do not inherit
    # the R-MAT process's id-locality; unscrambled labels (hubs at low ids)
    # are the worst case for block distribution.
    graphs = {
        "scrambled": cached_rmat(lab.scale, "rmat1"),
        "unscrambled": rmat_graph(
            lab.scale, params=RMAT1, seed=1, scramble=False).sorted_by_weight(),
    }
    rows = []
    for label, graph in graphs.items():
        root = choose_root(graph, seed=0)
        for strategy in ("block", "degree"):
            res = solve_sssp(graph, root, algorithm=f"opt-{strategy}",
                             config=preset("opt", 25).evolve(partition=strategy),
                             machine=default_machine(16))
            rows.append({
                "labels": label,
                "partition": strategy,
                "gteps": res.gteps,
                "compute_ms": res.cost.compute_time * 1e3,
                "comm_ms": res.cost.comm_time * 1e3,
            })
    return {"Ablation — block vs degree-balanced partition": rows}


def partition_check(tables):
    by = {(r["labels"], r["partition"]): r for r in only(tables)}
    # Degree balancing must recover a clear win on unscrambled labels.
    assert (by[("unscrambled", "degree")]["gteps"]
            > by[("unscrambled", "block")]["gteps"])
    # On scrambled labels both strategies are in the same ballpark
    # (scrambling is what makes block distribution viable at all).
    ratio = by[("scrambled", "degree")]["gteps"] / by[("scrambled", "block")]["gteps"]
    assert 0.5 < ratio < 2.0


# ------------------------------------------------------- machine constants
BASE = default_machine(8)
MACHINES = [
    ("baseline", BASE),
    ("10x alpha", replace(BASE, alpha=BASE.alpha * 10)),
    ("10x beta", replace(BASE, beta=BASE.beta * 10)),
    ("10x sync", replace(BASE, t_allreduce_base=BASE.t_allreduce_base * 10,
                         t_allreduce_log=BASE.t_allreduce_log * 10)),
    ("10x compute", replace(BASE, t_relax=BASE.t_relax * 10,
                            t_request=BASE.t_request * 10)),
]


def machine_tables(lab: Lab):
    graph = cached_rmat(lab.scale, "rmat1")
    root = choose_root(graph, seed=0)
    rows = []
    for label, machine in MACHINES:
        del_, prune, opt = (
            solve_sssp(graph, root, algorithm=name, delta=25, machine=machine).gteps
            for name in ("delta", "prune", "opt")
        )
        rows.append({
            "machine": label,
            "del_gteps": del_,
            "prune_gteps": prune,
            "opt_gteps": opt,
            "opt_vs_del": opt / del_,
        })
    return {"Ablation — machine-constant sensitivity (RMAT-1)": rows}


def machine_check(tables):
    rows = only(tables)
    for r in rows:
        # the headline ranking survives every constant perturbation
        assert r["opt_gteps"] > r["del_gteps"]
    by = {r["machine"]: r for r in rows}
    # Prune >= Del except when synchronization is artificially inflated:
    # its two decision allreduces per bucket become the dominant cost.
    for label in ("baseline", "10x alpha", "10x beta", "10x compute"):
        assert by[label]["prune_gteps"] >= by[label]["del_gteps"] * 0.95

    def prune_margin(label):
        return by[label]["prune_gteps"] / by[label]["del_gteps"]

    # Costlier bandwidth -> pruning's volume reduction buys more.
    assert prune_margin("10x beta") > prune_margin("baseline")
    # Costlier compute -> pruning's relaxation reduction buys more.
    assert prune_margin("10x compute") > prune_margin("baseline")
    # Under costly sync, OPT holds its lead while bare Prune loses it —
    # hybridization absorbs the decision overhead by removing the buckets.
    assert by["10x sync"]["opt_gteps"] > by["10x sync"]["prune_gteps"]


# ---------------------------------------------------- weight distributions
WEIGHT_DISTRIBUTIONS = [
    ("uniform", uniform_weights),
    ("exponential", exponential_weights),
    ("bimodal", bimodal_weights),
]


def weights_tables(lab: Lab):
    base = cached_rmat(lab.scale - 2, "rmat1")
    sweep, estimators = [], []
    for name, generator in WEIGHT_DISTRIBUTIONS:
        graph = reweight(base, generator, seed=11).sorted_by_weight()
        for r in delta_sweep(graph, choose_root(graph, seed=0), (5, 25, 100),
                             algorithm="delta", num_ranks=8, threads_per_rank=8):
            sweep.append({"weights": name, **r})
        roots = choose_roots(graph, 5, seed=4)
        for estimator in ("expectation", "histogram"):
            optimal, worst, _ = oracle_score(
                graph, roots, pushpull_estimator=estimator, histogram_bins=32)
            estimators.append({
                "weights": name,
                "estimator": estimator,
                "optimal": f"{optimal}/{len(roots)}",
                "optimal_count": optimal,
                "worst_slowdown": worst,
            })
    return {
        "Ablation — Δ sweep under different weight distributions": sweep,
        "Ablation — estimator robustness to the weight distribution": estimators,
    }


def weights_check(tables):
    sweep, estimators = tables.values()
    # Under every distribution some Δ completes with a positive rate;
    # where the optimum falls shifts with the distribution (that is the point).
    for name, _ in WEIGHT_DISTRIBUTIONS:
        sub = {r["delta"]: r["gteps"] for r in sweep if r["weights"] == name}
        assert max(sub.values()) > 0
    by = {(r["weights"], r["estimator"]): r for r in estimators}
    # On uniform weights both estimators are near-optimal.
    assert by[("uniform", "expectation")]["worst_slowdown"] < 1.3
    # The histogram estimator never trails the expectation estimator by
    # much on any distribution (it measures instead of assuming).
    for name, _ in WEIGHT_DISTRIBUTIONS:
        assert (by[(name, "histogram")]["optimal_count"]
                >= by[(name, "expectation")]["optimal_count"] - 1)
        assert by[(name, "histogram")]["worst_slowdown"] < 1.5


# ------------------------------------------------------------- calibration
# Paper Fig. 12, RMAT-1 GTEPS at 1k..16k nodes (the shape, not the scale).
CALIBRATION_PROFILE = {4: 173.0, 8: 331.0, 16: 653.0, 32: 1102.0, 64: 1870.0}


def calibration_tables(lab: Lab):
    nodes_list = tuple(CALIBRATION_PROFILE)
    results = [lab.weak("rmat1", nodes, "lb-opt", 25) for nodes in nodes_list]
    runs = [(res.metrics, nodes) for res, nodes in zip(results, nodes_list)]
    edge_counts = [res.num_edges for res in results]
    # Targets: times implied by the paper's GTEPS profile, rescaled so the
    # first point matches our default model's time (shape-only fit).
    base_time = retime(runs[0][0], default_machine(nodes_list[0]))
    scale_factor = base_time / (edge_counts[0] / CALIBRATION_PROFILE[nodes_list[0]])
    targets = [(m_edges / CALIBRATION_PROFILE[nodes]) * scale_factor
               for nodes, m_edges in zip(nodes_list, edge_counts)]
    fitted, err = calibrate(runs, targets)
    rows = []
    for (metrics, nodes), target, m_edges in zip(runs, targets, edge_counts):
        t = retime(metrics, fitted.with_ranks(nodes))
        rows.append({
            "nodes": nodes,
            "target_ms": target * 1e3,
            "fitted_ms": t * 1e3,
            "rel_err": (t - target) / target,
            "gteps_fitted": m_edges / t / 1e9,
        })
    return {
        "Calibration — fit to the paper's Fig. 12 RMAT-1 profile": rows,
        "Calibration — the fit": [{
            "rel_rms_error": err,
            "t_relax": fitted.t_relax,
            "alpha": fitted.alpha,
            "beta": fitted.beta,
            "t_allreduce_base": fitted.t_allreduce_base,
            "t_allreduce_log": fitted.t_allreduce_log,
        }],
    }


def calibration_check(tables):
    _, (fit,) = tables.values()
    # The counters can carry the paper's weak-scaling shape to within ~25%.
    assert fit["rel_rms_error"] < 0.25


# ---------------------------------------------------------- fault overhead
FAULT_PLANS: list[tuple[str, FaultPlan | None]] = [
    # ``None`` is the true fault-free path: no wire, no recovery machinery.
    ("fault-free", None),
    ("empty plan", FaultPlan()),
    ("loss 2%", FaultPlan(seed=11, loss_rate=0.02)),
    ("loss 10%", FaultPlan(seed=11, loss_rate=0.10)),
    ("dup 5%", FaultPlan(seed=11, dup_rate=0.05)),
    ("reorder 20%", FaultPlan(seed=11, reorder_rate=0.20)),
    ("delay 5%", FaultPlan(seed=11, delay_rate=0.05)),
    ("loss+dup+delay",
     FaultPlan(seed=11, loss_rate=0.05, dup_rate=0.02, delay_rate=0.02)),
    ("crash r1@4", FaultPlan(seed=11, crashes=(RankCrash(1, 4),))),
    ("stall r2@3x3", FaultPlan(seed=11, stalls=(RankStall(2, 3, 3),))),
]


def fault_overhead_tables(lab: Lab):
    # self-healing sweeps are whole-graph BF iterations: keep the graph modest
    graph = cached_rmat(lab.scale - 3, "rmat1")
    # Del-25 throughout: the table's rows were measured on plain Δ-stepping.
    solve = functools.partial(
        solve_sssp, graph, choose_root(graph, seed=3), algorithm="delta", delta=25,
        machine=default_machine(8, 8), validate="structural")
    baseline = solve(faults=FaultPlan())
    rows = []
    for label, plan in FAULT_PLANS:
        res = solve(faults=plan)
        assert np.array_equal(res.distances, baseline.distances), label
        rec = res.metrics.recovery
        rows.append({
            "plan": label,
            "time_s": res.cost.total_time,
            "overhead": res.cost.total_time / baseline.cost.total_time - 1.0,
            "rec_steps": rec.recovery_supersteps,
            "retries": rec.retries,
            "resent_B": rec.retransmitted_bytes,
            "rec_bytes": res.metrics.recovery_bytes,
            "rec_phases": res.metrics.recovery_phases,
            "restarts": rec.rank_restarts,
            "sweeps": rec.healing_sweeps,
        })
    return {"fault-tolerance overhead (distances bit-identical)": rows}


def fault_overhead_check(tables):
    by_plan = {row["plan"]: row for row in only(tables)}
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


FIGURES = {
    "calibration": Figure(
        "Some non-negative assignment of the 7 cost constants makes the "
        "LB-OPT-25 weak-scaling times follow the paper's Fig. 12 RMAT-1 "
        "profile: the counters, not the default constants, carry the shape.",
        calibration_tables, calibration_check,
        "81fac4f9aebee5493200f3f58b7e73936d1cea0cf64cfb0ba1beaa0d522f3670"),
    "fault-overhead": Figure(
        "The recovery layer costs nothing on a perfect wire and keeps distances "
        "bit-identical, at a measurable cost, under loss, duplication, "
        "reordering, delay, a rank crash and a stall (DESIGN.md §7).",
        fault_overhead_tables, fault_overhead_check,
        "65f39cabeb53d592b45413953090a8887f99deac48a1c9b6e011a0aef1f0845a"),
    "ablation-tau": Figure(
        "τ = 0.4 sits in the sweet spot of the hybrid switch: earlier inflates "
        "relaxations, later keeps paying bucket overhead.",
        tau_tables, tau_check,
        "2d5a662583546fdce71437bf7708fb1199f893c4e4a2aacdb3a1a70d1370d129"),
    "ablation-ios": Figure(
        "Relaxing only inner short edges in the short phases cuts short "
        "relaxations by about 10 % and never adds work.",
        ios_tables, ios_check,
        "8ec052d2c6372b4eb5445c9342c86caae505801f2136541cf96c223f22405563"),
    "ablation-estimator": Figure(
        "Pure communication volume decides wrongly in ~15 % of cases; adding "
        "the max-per-processor term, histograms or exact counts closes the "
        "gap to the exhaustive oracle.",
        estimator_tables, estimator_check,
        "08863c2cc17f82b4cc00d6c3f82be24ed7ff863d75d2efd750120375ae48a9e7"),
    "ablation-partition": Figure(
        "Thread load is the aggregate degree of owned vertices, so block "
        "distribution needs scrambled labels; degree-balanced boundaries "
        "rescue unscrambled ones.",
        partition_tables, partition_check,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ablation-machine": Figure(
        "The OPT > Del ranking does not hinge on the cost constants: it "
        "survives 10x latency, bandwidth, synchronization and compute cost.",
        machine_tables, machine_check,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ablation-weights": Figure(
        "Under non-uniform weights the best Δ moves, and the expectation "
        "estimator's uniform-weight assumption is scored against a histogram "
        "estimator that measures the distribution.",
        weights_tables, weights_check,
        "d62dc3ed6afd7aa5a9df6dbaf93db495e6f0e9ec90f11f5e9928a3980ecab963"),
}
