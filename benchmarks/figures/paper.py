"""The paper's own figures and sections: Figs. 1, 3–12, §IV-G, §IV-H and the
BFS-vs-SSSP remark of §I-C.

Graph sizes are shrunk from the paper's 2^23 vertices per Blue Gene/Q node to
laptop scale; the weak-scaling protocol, parameter sets and algorithm
compositions are the paper's. EXPERIMENTS.md records paper vs measured.
"""

from __future__ import annotations

import numpy as np

from benchmarks.common import cached_rmat, default_machine
from benchmarks.figures.lab import Figure, Lab, only, oracle_score
from repro.analysis.phase_stats import (
    algorithm_comparison,
    bucket_census_table,
    phase_relaxation_series,
)
from repro.analysis.sweep import delta_sweep
from repro.bfs import run_bfs
from repro.core.config import DELTA_INFINITY, SolverConfig, preset
from repro.core.solver import solve_sssp
from repro.graph.builder import from_undirected_edges
from repro.graph.degree import degree_stats
from repro.graph.roots import choose_root, choose_roots
from repro.graph.social import synthetic_social_graph


# ---------------------------------------------------------------- Fig. 1
FIG01_PAPER_ROWS = [
    {"source": "Madduri et al. [13]", "problem": "SSSP", "system": "Cray MTA-2 (40)",
     "scale": 28, "gteps": 0.1},
    {"source": "this paper", "problem": "SSSP", "system": "BG/Q 4,096 nodes",
     "scale": 35, "gteps": 650},
    {"source": "this paper", "problem": "SSSP", "system": "BG/Q 32,768 nodes",
     "scale": 38, "gteps": 3100},
]


def fig01_tables(lab: Lab):
    rows = [
        {"source": "repro (simulated)", "problem": "SSSP",
         "system": f"sim {nodes} nodes", "scale": lab.weak_scale(nodes),
         "gteps": lab.weak("rmat1", nodes, "lb-opt", 25).gteps}
        for nodes in (4, 16, 64)
    ]
    return {"Fig. 1 — performance comparison (paper rows + simulated rows)":
            FIG01_PAPER_ROWS + rows}


def fig01_check(tables):
    # Absolute rates differ (simulated laptop vs Blue Gene/Q); the claim is
    # the scaling trend: simulated GTEPS grows with the node count.
    gteps = [r["gteps"] for r in only(tables) if r["source"] == "repro (simulated)"]
    assert gteps[-1] > gteps[0]


# ---------------------------------------------------------------- Fig. 3
FIG03_SPECS = [
    ("Dijkstra", "delta", 1),
    ("Del-10", "delta", 10),
    ("Del-25", "delta", 25),
    ("Del-40", "delta", 40),
    ("Hybrid-25", "opt", 25),
    ("Prune-25", "prune", 25),
    ("Bellman-Ford", "bellman-ford", 25),
]


def fig03_tables(lab: Lab):
    tables = {}
    for family in ("rmat1", "rmat2"):
        graph = cached_rmat(lab.scale, family)
        tables[f"Fig. 3 — phases and relaxations ({family.upper()})"] = [
            {**row, "family": family.upper()}
            for row in algorithm_comparison(graph, choose_root(graph, seed=0),
                                            FIG03_SPECS, machine=default_machine(8))
        ]
    return tables


def fig03_check(tables):
    for rows in tables.values():
        by = {r["algorithm"]: r for r in rows}
        # (a) phase ordering
        assert by["Bellman-Ford"]["phases"] <= by["Del-25"]["phases"]
        assert by["Del-25"]["phases"] <= by["Dijkstra"]["phases"]
        # hybrid approaches Bellman-Ford
        assert by["Hybrid-25"]["phases"] <= 3 * by["Bellman-Ford"]["phases"]
        # (b) work ordering
        assert by["Dijkstra"]["relaxations"] <= by["Del-25"]["relaxations"]
        assert by["Del-25"]["relaxations"] <= by["Bellman-Ford"]["relaxations"]
        # pruning beats Dijkstra (Section III-B headline)
        assert by["Prune-25"]["relaxations"] < by["Dijkstra"]["relaxations"]


# ---------------------------------------------------------------- Fig. 4
def fig04_tables(lab: Lab):
    res = lab.solve("rmat1", lab.scale, 8, "delta", 25)
    return {"Fig. 4 — per-phase relaxations (Del-25, RMAT-1)":
            phase_relaxation_series(res.metrics)}


def fig04_check(tables):
    series = only(tables)
    long_work = sum(r["relaxations"] for r in series if r["kind"] == "long")
    short_work = sum(r["relaxations"] for r in series if r["kind"] == "short")
    assert long_work > short_work
    # the dominance is strong, not marginal
    assert long_work / (long_work + short_work) > 0.6


# ---------------------------------------------------------------- Fig. 6
def fig06_graph():
    """Root -10- 5-clique -10- five pendant vertices (the paper's example)."""
    clique = np.arange(1, 6)
    pend = np.arange(6, 11)
    cu, cv = np.triu_indices(5, k=1)
    tails = np.concatenate([np.zeros(5, dtype=np.int64), clique[cu], clique])
    heads = np.concatenate([clique, clique[cv], pend])
    weights = np.full(tails.size, 10, dtype=np.int64)
    return from_undirected_edges(tails, heads, weights, 11)


def fig06_tables(lab: Lab):
    graph = fig06_graph()
    rows = []
    for seq in (("push", "push", "push"), ("push", "pull", "push")):
        label = "-".join(seq)
        cfg = SolverConfig(delta=5, use_pruning=True,
                           pushpull_mode="sequence", pushpull_sequence=seq)
        res = solve_sssp(graph, 0, algorithm=label, config=cfg,
                         machine=default_machine(2, threads_per_rank=2), validate=True)
        bucket0, bucket2, bucket4 = (
            s["relaxations"] for s in res.metrics.per_bucket_stats)
        rows.append({
            "decisions": label,
            "bucket0": bucket0, "bucket2": bucket2, "bucket4": bucket4,
            "total_relaxations": res.metrics.total_relaxations,
        })
    return {"Fig. 6 — push vs pull on the example graph (Δ=5)": rows}


def fig06_check(tables):
    push, mixed = only(tables)
    # the paper's exact numbers
    assert (push["bucket0"], push["bucket2"], push["bucket4"]) == (5, 30, 5)
    assert push["total_relaxations"] == 40
    assert mixed["bucket2"] == 10  # 5 requests + 5 responses
    assert mixed["total_relaxations"] == 20


# ---------------------------------------------------------------- Fig. 7
FIG07_COLUMNS = [
    "bucket", "members", "self_edges", "backward_edges", "forward_edges",
    "push_relaxations", "pull_requests", "pull_responses", "mode",
]


def fig07_tables(lab: Lab):
    graph = cached_rmat(lab.scale, "rmat1")
    res = solve_sssp(graph, choose_root(graph, seed=0), algorithm="prune-25",
                     config=preset("prune", 25).evolve(collect_census=True),
                     machine=default_machine(8))
    return {"Fig. 7 — per-bucket census (Prune-25, RMAT-1)": [
        {k: r.get(k, "") for k in FIG07_COLUMNS}
        for r in bucket_census_table(res.metrics)
    ]}


def fig07_check(tables):
    rows = only(tables)
    assert rows
    for r in rows:
        assert (
            r["self_edges"] + r["backward_edges"] + r["forward_edges"]
            == r["push_relaxations"]
        )
    # Self and backward arcs — the redundancy pull prunes — exist.
    assert sum(r["self_edges"] + r["backward_edges"] for r in rows) > 0
    # Some bucket must be cheaper under pull than push (the Fig. 7 point):
    assert any(2 * r["pull_requests"] < r["push_relaxations"] for r in rows)


# ---------------------------------------------------------------- Fig. 8
def fig08_tables(lab: Lab):
    rows = []
    for scale in range(lab.scale - 4, lab.scale + 1):
        row = {"scale": scale}
        for family in ("rmat1", "rmat2"):
            stats = degree_stats(cached_rmat(scale, family))
            row[f"{family}_max_deg"] = stats.max_degree
            row[f"{family}_skew"] = round(stats.skew_ratio, 1)
        rows.append(row)
    return {"Fig. 8 — max degree vs scale (both families)": rows}


def fig08_check(tables):
    rows = only(tables)
    # family gap: RMAT-1 max degree exceeds RMAT-2 at every scale
    for row in rows:
        assert row["rmat1_max_deg"] > row["rmat2_max_deg"]
    # growth with scale (allowing seed noise at adjacent scales)
    assert rows[-1]["rmat1_max_deg"] > rows[0]["rmat1_max_deg"]
    assert rows[-1]["rmat2_max_deg"] > rows[0]["rmat2_max_deg"]


# ---------------------------------------------------------------- Fig. 9
FIG09_DELTAS = (1, 5, 10, 25, 40, 100, DELTA_INFINITY)
FIG09_NODES = (4, 16)


def fig09_tables(lab: Lab):
    rows = []
    for nodes in FIG09_NODES:
        scale = lab.weak_scale(nodes)
        graph = cached_rmat(scale, "rmat1")
        for r in delta_sweep(graph, choose_root(graph, seed=0), FIG09_DELTAS,
                             algorithm="delta", num_ranks=nodes, threads_per_rank=16):
            rows.append({
                "nodes": nodes,
                "scale": scale,
                "delta": "inf" if r["delta"] >= DELTA_INFINITY else str(r["delta"]),
                "gteps": r["gteps"],
                "buckets": r["buckets"],
                "relaxations": r["relaxations"],
            })
    return {"Fig. 9 — Δ-stepping GTEPS vs Δ (RMAT-1)": rows}


def fig09_check(tables):
    rows = only(tables)
    for nodes in FIG09_NODES:
        sub = {r["delta"]: r["gteps"] for r in rows if r["nodes"] == nodes}
        best_mid = max(sub[d] for d in ("10", "25", "40"))
        # both extremes lose to the mid-range (the paper's U-shape)
        assert best_mid > sub["1"]
        assert best_mid > sub["inf"]


# ------------------------------------------------------- Figs. 10 and 11
PANEL_ALGORITHMS = [("Del-25", "delta"), ("Prune-25", "prune"), ("OPT-25", "opt")]
PANEL_NODES = (2, 8, 32)


def _panel(lab: Lab, family: str):
    """Del-25 / Prune-25 / OPT-25 over the weak-scaling range on one family:
    (result, the row columns Figs. 10 and 11 share) per run."""
    for nodes in PANEL_NODES:
        for label, name in PANEL_ALGORITHMS:
            res = lab.weak(family, nodes, name, 25)
            yield res, {
                "nodes": nodes,
                "scale": lab.weak_scale(nodes),
                "algorithm": label,
                "gteps": res.gteps,
                "bkt_ms": res.cost.bucket_time * 1e3,
                "other_ms": res.cost.other_time * 1e3,
            }


def _at(rows, nodes, algorithm):
    return next(r for r in rows if r["nodes"] == nodes and r["algorithm"] == algorithm)


def _trio(rows, nodes):
    """The Del-25, Prune-25 and OPT-25 rows at ``nodes``."""
    return (_at(rows, nodes, label) for label, _ in PANEL_ALGORITHMS)


def fig10_tables(lab: Lab):
    panel = list(_panel(lab, "rmat1"))
    return {
        "Fig. 10 — RMAT-1: Del-25 vs Prune-25 vs OPT-25": [
            {**row,
             "relax_per_thread":
                 res.metrics.total_relaxations / res.machine.total_threads,
             "buckets": res.metrics.buckets_processed}
            for res, row in panel
        ],
        # the counter under (c)'s per-thread ratio, so the digest holds it
        "Fig. 10(c) — relaxations": [
            {"nodes": row["nodes"], "algorithm": row["algorithm"],
             "relaxations": res.metrics.total_relaxations}
            for res, row in panel
        ],
    }


def fig10_check(tables):
    rows, _ = tables.values()
    for nodes in PANEL_NODES:
        del_, prune, opt = _trio(rows, nodes)
        # (a) GTEPS
        assert opt["gteps"] > 1.5 * del_["gteps"]
        # (c) relaxations
        assert prune["relax_per_thread"] < del_["relax_per_thread"] / 1.5
    # (b) time breakdown at the largest configuration
    del_, prune, opt = _trio(rows, PANEL_NODES[-1])
    # pruning attacks OtherTime, keeps BktTime roughly unchanged
    assert prune["other_ms"] < del_["other_ms"]
    assert abs(prune["bkt_ms"] - del_["bkt_ms"]) <= 0.35 * del_["bkt_ms"]
    # hybridization attacks BktTime
    assert opt["bkt_ms"] < 0.5 * prune["bkt_ms"]
    # (d) buckets: hybrid converges in a handful, scale-insensitive
    opt_buckets = [_at(rows, n, "OPT-25")["buckets"] for n in PANEL_NODES]
    del_buckets = [_at(rows, n, "Del-25")["buckets"] for n in PANEL_NODES]
    assert max(opt_buckets) <= 6
    assert max(opt_buckets) - min(opt_buckets) <= 3
    assert min(del_buckets) > max(opt_buckets)


def fig11_tables(lab: Lab):
    largest = PANEL_NODES[-1]
    return {
        "Fig. 11 — RMAT-2: Del-25 vs Prune-25 vs OPT-25": [
            {**row,
             "relaxations": res.metrics.total_relaxations,
             "buckets": res.metrics.buckets_processed}
            for res, row in _panel(lab, "rmat2")
        ],
        f"Sec. IV-E — Del-25 buckets at {largest} nodes, by family": [
            {"family": family.upper(),
             "buckets":
                 lab.weak(family, largest, "delta", 25).metrics.buckets_processed}
            for family in ("rmat1", "rmat2")
        ],
    }


def fig11_check(tables):
    rows, by_family = tables.values()
    for nodes in PANEL_NODES:
        del_, prune, opt = _trio(rows, nodes)
        # (c) pruning roughly halves the relaxations
        assert prune["relaxations"] < 0.75 * del_["relaxations"]
        # (d) hybridization slashes the bucket count
        assert opt["buckets"] <= del_["buckets"] / 3
        # (b) the OPT bucket overhead collapses
        assert opt["bkt_ms"] < prune["bkt_ms"]
        # (a) OPT is the fastest of the three
        assert opt["gteps"] >= prune["gteps"] * 0.95
        assert opt["gteps"] > 1.15 * del_["gteps"]
    # the advantage widens with scale (the paper's 3x shows at 2,048 nodes;
    # at reproduction scale the gap is smaller but growing)
    largest = PANEL_NODES[-1]
    assert (_at(rows, largest, "OPT-25")["gteps"]
            > 1.35 * _at(rows, largest, "Del-25")["gteps"])
    # Section IV-E: RMAT-2 distances spread wider -> more buckets for Del-25.
    rmat1, rmat2 = by_family
    assert rmat2["buckets"] > rmat1["buckets"]


# ------------------------------------------------------------ Fig. 10(e)/(f)
def fig10ef_tables(lab: Lab):
    rows = []
    for nodes in PANEL_NODES:
        for delta in (10, 25, 40):
            opt = lab.weak("rmat1", nodes, "opt", delta)
            lb = lab.weak("rmat1", nodes, "lb-opt", delta)
            rows.append({
                "nodes": nodes,
                "scale": lab.weak_scale(nodes),
                "delta": delta,
                "opt_gteps": opt.gteps,
                "lb_opt_gteps": lb.gteps,
                "speedup": lb.gteps / opt.gteps,
            })
    return {"Fig. 10(e)/(f) — OPT vs LB-OPT on RMAT-1": rows}


def fig10ef_check(tables):
    rows = only(tables)
    # LB never hurts, and it visibly helps at the largest configuration.
    # The paper's 2-8x factor requires Blue Gene/Q-scale skew (max degrees
    # in the millions, Fig. 8); at reproduction scale the skew ratio is
    # ~10^2 instead of ~10^5, so the honest expectation is a consistent
    # but modest win that grows with scale (see EXPERIMENTS.md).
    assert all(r["speedup"] >= 0.95 for r in rows)
    largest = [r for r in rows if r["nodes"] == PANEL_NODES[-1]]
    assert any(r["speedup"] > 1.04 for r in largest)
    # the advantage grows with scale
    smallest = [r for r in rows if r["nodes"] == PANEL_NODES[0]]
    assert max(r["speedup"] for r in largest) > min(r["speedup"] for r in smallest)
    # (f) weak-scaling efficiency of LB-OPT-25: GTEPS keeps growing with the
    # node count (the paper reports near-perfect scaling).
    series = [r["lb_opt_gteps"] for r in rows if r["delta"] == 25]
    assert all(b > a for a, b in zip(series, series[1:]))


# --------------------------------------------------------------- Fig. 12
def fig12_tables(lab: Lab):
    # RMAT-1: load-balanced OPT, Δ = 25. The paper adds inter-node vertex
    # splitting beyond scale 35, where single hubs outgrow a node; at
    # reproduction scale the skew never reaches that regime and the proxy
    # traffic would only add overhead (EXPERIMENTS.md), so the thread-level
    # tier suffices, as the paper reports for its own scale <= 35 runs.
    # RMAT-2: no load balancing needed, Δ = 40 (the paper's choice).
    return {"Fig. 12 — weak scaling of the final algorithms": [
        {"nodes": nodes,
         "scale": lab.weak_scale(nodes),
         "rmat1_gteps": lab.weak("rmat1", nodes, "lb-opt", 25).gteps,
         "rmat2_gteps": lab.weak("rmat2", nodes, "opt", 40).gteps}
        for nodes in (8, 16, 32, 64)
    ]}


def fig12_check(tables):
    rows = only(tables)
    # near-linear weak scaling: each doubling of nodes grows GTEPS
    for key in ("rmat1_gteps", "rmat2_gteps"):
        series = [r[key] for r in rows]
        assert all(b > 1.2 * a for a, b in zip(series, series[1:]))
    # family ordering as in the paper: RMAT-1 faster than RMAT-2
    for r in rows:
        assert r["rmat1_gteps"] > r["rmat2_gteps"]


# ----------------------------------------------------------- Section IV-G
ORACLE_ROOTS = 8


def oracle_tables(lab: Lab):
    rows = []
    for family in ("rmat1", "rmat2"):
        # 2^k full runs per root: keep the graph modest
        graph = cached_rmat(lab.scale - 3, family)
        roots = choose_roots(graph, ORACLE_ROOTS, seed=3)
        for estimator in ("exact", "expectation"):
            optimal, worst, buckets = oracle_score(
                graph, roots, pushpull_estimator=estimator)
            rows.append({
                "family": family.upper(),
                "estimator": estimator,
                "roots": len(roots),
                "optimal": optimal,
                "worst_slowdown": worst,
                "avg_buckets": buckets / len(roots),
            })
    return {"Sec. IV-G — push/pull heuristic vs exhaustive oracle": rows}


def oracle_check(tables):
    for row in only(tables):
        if row["estimator"] == "exact":
            # the refined heuristic is optimal on every test case (paper claim)
            assert row["optimal"] == row["roots"]
        else:
            # the volume heuristic occasionally misses, but never badly
            assert row["optimal"] >= int(0.7 * row["roots"])
            assert row["worst_slowdown"] < 1.3


# ----------------------------------------------------------- Section IV-H
REAL_PAPER_GTEPS = {
    "friendster": {"del40": 1.8, "opt40": 4.3},
    "orkut": {"del40": 2.1, "opt40": 4.6},
    "livejournal": {"del40": 1.1, "opt40": 2.2},
}


def real_graphs_tables(lab: Lab):
    # SNAP downloads are not available offline: synthetic stand-ins with
    # matched degree statistics substitute (DESIGN.md §2), at a fixed scale.
    graphs = {
        name: synthetic_social_graph(name, scale=13, seed=7).sorted_by_weight()
        for name in REAL_PAPER_GTEPS
    }

    def pair(graph, nodes):
        root = choose_root(graph, seed=0)
        base, opt = (
            solve_sssp(graph, root, algorithm=name, delta=40,
                       machine=default_machine(nodes))
            for name in ("delta", "lb-opt")
        )
        return {"del40_gteps": base.gteps, "opt40_gteps": opt.gteps,
                "speedup": opt.gteps / base.gteps}

    return {
        "Sec. IV-H — social graphs: Del-40 vs Opt-40 (stand-ins)": [
            {"graph": name,
             "n": graph.num_vertices,
             "m": graph.num_undirected_edges,
             **pair(graph, 8),
             "paper_speedup": (REAL_PAPER_GTEPS[name]["opt40"]
                               / REAL_PAPER_GTEPS[name]["del40"])}
            for name, graph in graphs.items()
        ],
        "Sec. IV-H — Friendster stand-in scaling study": [
            {"nodes": nodes, **pair(graphs["friendster"], nodes)}
            for nodes in (2, 4, 8, 16)
        ],
    }


def real_graphs_check(tables):
    rows, scaling = tables.values()
    # OPT ≈ 2x over the baseline on every social graph (paper's headline);
    # allow the flatter LiveJournal stand-in some slack.
    for row in rows:
        assert row["speedup"] > 1.25
    assert max(row["speedup"] for row in rows) > 1.8
    # OPT stays ahead of the baseline across the whole range
    assert all(r["speedup"] > 1.2 for r in scaling)
    # and scales: GTEPS grows with the node count (strong scaling here:
    # fixed graph, growing machine)
    series = [r["opt40_gteps"] for r in scaling]
    assert series[-1] > series[0]


# ------------------------------------------------- Section I-C: BFS vs SSSP
def bfs_vs_sssp_tables(lab: Lab):
    rows = []
    for nodes in (4, 16, 64):
        scale = lab.weak_scale(nodes)
        graph = cached_rmat(scale, "rmat1")
        root = choose_root(graph, seed=0)
        machine = default_machine(nodes)
        bfs = run_bfs(graph, root, machine=machine)
        bfs_td = run_bfs(graph, root, machine=machine, direction="top-down")
        sssp = lab.weak("rmat1", nodes, "lb-opt", 25)
        rows.append({
            "nodes": nodes,
            "scale": scale,
            "bfs_gteps": bfs.gteps,
            "bfs_topdown_gteps": bfs_td.gteps,
            "sssp_gteps": sssp.gteps,
            "bfs_over_sssp": bfs.gteps / sssp.gteps,
            "diropt_gain": bfs.gteps / bfs_td.gteps,
        })
    return {"Fig. 1 discussion — BFS vs SSSP, same machine": rows}


def bfs_vs_sssp_check(tables):
    for r in only(tables):
        # the paper's observation: SSSP within 2-5x of BFS (we allow a
        # slightly wider band for small-scale noise)
        assert 1.5 < r["bfs_over_sssp"] < 8.0
        # direction optimization matters, as in Beamer et al.
        assert r["diropt_gain"] > 1.5


FIGURES = {
    "fig01": Figure(
        "SSSP at 650 GTEPS on 4,096 nodes and 3,100 on 32,768 (RMAT-1): the "
        "rate keeps growing across the weak-scaling range.",
        fig01_tables, fig01_check,
        "930a4f68a8579d182fafd027d9564166b5776ccc488cefe384c271ca94ab0846"),
    "fig03": Figure(
        "Work orders Dijkstra ≤ Δ-stepping ≤ Bellman-Ford and phases the other "
        "way round; Prune relaxes fewer edges than Dijkstra, Hybrid approaches "
        "Bellman-Ford's phase count.",
        fig03_tables, fig03_check,
        "1c0505e1ea5535ac00767284302dc29100115c1e2014b851df15fcda85716981"),
    "fig04": Figure(
        "With Δ small against w_max = 255 the long-edge phases carry most of a "
        "Δ-stepping run's relaxations.",
        fig04_tables, fig04_check,
        "6adcb29ab351d8640679d50a20f16b04408d2dd3dadce35bc0bff44f48d961ae"),
    "fig06": Figure(
        "On the root–clique–pendants example (Δ = 5) push-only costs 5 + 30 + 5 "
        "= 40 relaxations; pulling in the second bucket costs 10 instead of 30.",
        fig06_tables, fig06_check,
        "e6ba6c1a048bf98e80fa9fe34fd23be72407924f08275ab75a44fef0805f807e"),
    "fig07": Figure(
        "Per bucket, the members' long arcs split into self / backward / forward "
        "classes; hub-laden buckets need far fewer pull requests than push "
        "relaxations, sparse ones the reverse.",
        fig07_tables, fig07_check,
        "05d8bea1488679b6b576c6a8d85b0dff36ead925df9011d4a938d3e89f51765e"),
    "fig08": Figure(
        "RMAT-1 max degree runs to millions (2.4 M at scale 28, 14.4 M at 32) "
        "against RMAT-2's tens of thousands (31 k to 95 k); both grow with scale.",
        fig08_tables, fig08_check,
        "e87630dbf4574077600f8f6cb0aaaaeab8b830f2e57969702992e0cc271e8488"),
    "fig09": Figure(
        "Δ = 1 (Dijkstra) and Δ = ∞ (Bellman-Ford) both perform poorly; Δ "
        "between 10 and 50 is best.",
        fig09_tables, fig09_check,
        "bc289c8c47495ce524a39fe9ee49e80583ba346b97393d199343cfcfc3ae239e"),
    "fig10": Figure(
        "On RMAT-1 pruning buys ~5x GTEPS and cuts relaxations ~6x (OtherTime), "
        "hybridization nearly removes BktTime; OPT-25 converges in ≤ 5 buckets "
        "at every scale where Del-25 needs ~30.",
        fig10_tables, fig10_check,
        "40730e79490f077822fb97a00a1adb3e4ee802c0ec8c0e3eabab263c48db53a0"),
    "fig10ef": Figure(
        "Without load balancing OPT scales poorly on RMAT-1; thread-level "
        "balancing (LB-OPT) restores near-perfect weak scaling, 2–8x depending "
        "on Δ.",
        fig10ef_tables, fig10ef_check,
        "3e3ea1c642deb33ce915a1c4c218c6ecd5190f1c407c85a60dc1c313c9424047"),
    "fig11": Figure(
        "On RMAT-2 pruning only halves the relaxations; the win is "
        "hybridization, a ~20x bucket cut making OPT-25 ~3x the baseline, and "
        "Del-25 needs more buckets than on RMAT-1.",
        fig11_tables, fig11_check,
        "2f395b0cb1ef747e726d37482611292f0dbc6f6847313a918748e661e7747164"),
    "fig12": Figure(
        "LB-OPT-25 on RMAT-1 reaches 173 → 3,107 GTEPS and OPT-40 on RMAT-2 "
        "70 → 1,480 over 1,024 → 32,768 nodes: near-linear weak scaling, RMAT-1 "
        "~2x RMAT-2.",
        fig12_tables, fig12_check,
        "2a543f735b96febf38bed7b2479899dce3259edbc28deb0d17a846ca6f9a7cb1"),
    "oracle": Figure(
        "Against all 2^k per-bucket decision sequences the refined push/pull "
        "heuristic is optimal on every test case; the volume heuristic "
        "occasionally misses by a little.",
        oracle_tables, oracle_check,
        "efcaad5f9f830cd4eae88247ced41a87cc78531b621b3ffbfe6be6224a2a365d"),
    "real-graphs": Figure(
        "OPT-40 is ~2x Del-40 on Friendster, Orkut and LiveJournal, and stays "
        "ahead across the Friendster scaling study.",
        real_graphs_tables, real_graphs_check,
        "ab46766b2fc74060a8381ec35493c3499dcbd5067820883e440eab4a589aafba"),
    "bfs-vs-sssp": Figure(
        "SSSP is only two to five times slower than BFS on the same machine "
        "configuration, graph type and level of optimization.",
        bfs_vs_sssp_tables, bfs_vs_sssp_check,
        "31af0a62afe93861db5a26018f4aa211afe94ddcdb88d9a0d4a9da0c1833786d"),
}
