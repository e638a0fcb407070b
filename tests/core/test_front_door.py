"""The front door: a solve is ``BatchSolver.solve`` whatever the driver.

``solve_sssp(..., faults=plan)`` / ``BatchSolver.solve(root, faults=plan)``
run the *resolved preset* on the rank driver — same distances, counters and
priced cost as entering the rank driver directly with that preset — and the
rank driver accepts what the whole-graph driver accepts: census collection,
the exact and histogram estimators and the pull phase on directed graphs
were rejected at its entry while it ran one view per rank; they now equal
the whole-graph driver's answer and accounting.
"""

import numpy as np
import pytest

import repro.core.solver as solver_module
from repro.core.config import PRESETS, preset
from repro.core.reference import dijkstra_reference
from repro.core.solver import BatchSolver, solve_sssp
from repro.graph.builder import from_edges
from repro.graph.grid import grid_graph
from repro.graph.rmat import rmat_graph
from repro.runtime.costmodel import evaluate_cost
from repro.runtime.machine import MachineConfig
from repro.spmd.engine import spmd_delta_stepping
from repro.spmd.faults import FaultPlan, RankCrash
from tests.core.test_transport_parity import assert_parity

MACHINE = MachineConfig(num_ranks=4, threads_per_rank=2)
LOSSY = FaultPlan(seed=3, loss_rate=0.05, crashes=(RankCrash(1, 4),))
CRASHING = FaultPlan.from_spec("loss=0.05,crash=1@4,seed=3")
NON_SPLITTING = sorted(a for a in PRESETS if not preset(a).inter_split)
GRAPHS = {
    "rmat10": (lambda: rmat_graph(10, seed=3), 3),
    "grid24": (lambda: grid_graph(24, 24, seed=2), 0),
}


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def case(request):
    build, root = GRAPHS[request.param]
    graph = build()
    return graph, root, dijkstra_reference(graph, root)


class TestOnePresetBothWays:
    @pytest.mark.parametrize("algorithm", NON_SPLITTING)
    def test_front_door_equals_rank_entry(self, case, algorithm):
        """An empty plan arms the recovery stack and injects nothing; the
        direct entry gets the same plan (its validity vote is one
        recovery-phase allreduce a plain mailbox run does not make)."""
        graph, root, ref = case
        res = solve_sssp(
            graph, root, algorithm=algorithm, machine=MACHINE, faults=FaultPlan()
        )
        d, ctx = spmd_delta_stepping(
            graph, root, MACHINE, config=preset(algorithm, 25), faults=FaultPlan()
        )
        assert np.array_equal(res.distances, ref)
        assert np.array_equal(res.distances, d)
        assert res.metrics.summary() == ctx.metrics.summary()
        assert res.cost == evaluate_cost(ctx.metrics, MACHINE)
        assert res.algorithm == solve_sssp(
            graph, root, algorithm=algorithm, machine=MACHINE
        ).algorithm

    def test_splitting_preset_maps_proxies_back(self):
        build, root = GRAPHS["rmat10"]  # a grid has no vertex to split
        graph = build()
        res = solve_sssp(
            graph, root, algorithm="lb-opt-split", machine=MACHINE,
            config=preset("lb-opt-split", 25).evolve(split_degree=8),
            faults=LOSSY, validate="structural",
        )
        assert res.num_proxies > 0
        assert np.array_equal(res.distances, dijkstra_reference(graph, root))
        assert res.metrics.recovery.rank_restarts == 1

    def test_one_context_for_many_faulted_solves(self, case, monkeypatch):
        graph, root, ref = case
        built = []
        make_context = solver_module.make_context
        monkeypatch.setattr(
            solver_module, "make_context",
            lambda *a, **k: built.append(1) or make_context(*a, **k),
        )
        solver = BatchSolver(graph, algorithm="opt", machine=MACHINE)
        first = solver.solve(root, faults=LOSSY)
        second = solver.solve(root, faults=LOSSY)
        assert len(built) == 1
        assert np.array_equal(first.distances, ref)
        assert first.metrics.summary() == second.metrics.summary()
        assert first.algorithm == "opt-25+faults"


class TestSameErrors:
    def test_bad_root_validate_mode_and_plan_rank(self, case):
        graph, root, _ = case
        solver = BatchSolver(graph, algorithm="delta", machine=MACHINE)
        with pytest.raises(ValueError, match="out of range"):
            solver.solve(graph.num_vertices, faults=FaultPlan())
        with pytest.raises(ValueError, match="unknown validate mode"):
            solver.solve(root, faults=FaultPlan(), validate="maybe")
        with pytest.raises(ValueError, match="rank 9.*only 4 ranks"):
            solver.solve(root, faults=FaultPlan(crashes=(RankCrash(9, 4),)))

    def test_non_integer_roots_are_refused(self, case):
        """``int(root)`` solved 1.7 from vertex 1; NumPy integers pass."""
        graph, root, ref = case
        solver = BatchSolver(graph, algorithm="delta", machine=MACHINE)
        for bad in (1.7, 3.0, "3", np.float64(2.0)):
            with pytest.raises(ValueError, match="integer vertex id"):
                solve_sssp(graph, bad, algorithm="delta", machine=MACHINE)
            with pytest.raises(ValueError, match="integer vertex id"):
                solver.solve(bad)
        assert np.array_equal(solver.solve(np.int32(root)).distances, ref)

    def test_solve_many_refuses_before_any_solve(self, case, monkeypatch):
        """``solve_many`` ran ``int(r)`` first: ``[1.7, "3"]`` solved
        roots 1 and 3. Every root is now checked before the first solve."""
        graph, root, ref = case
        solver = BatchSolver(graph, algorithm="delta", machine=MACHINE)
        solved = []
        monkeypatch.setattr(solver, "solve", lambda r, **kw: solved.append(r))
        for bad in ([1.7, "3"], [root, 2.5], [root, graph.num_vertices]):
            with pytest.raises(ValueError, match="integer vertex id|out of range"):
                solver.solve_many(bad)
        assert solved == []
        solver.solve_many([np.int64(root)])
        assert solved == [root] and type(solved[0]) is int

    @pytest.mark.parametrize(
        "config",
        [
            preset("delta", 25).evolve(collect_census=True),
            preset("prune", 25).evolve(pushpull_estimator="exact"),
            preset("prune", 25).evolve(pushpull_estimator="histogram"),
        ],
        ids=["census", "exact", "histogram"],
    )
    def test_census_and_estimator_configs_match_on_both_drivers(self, case, config):
        """Both drivers give the reference distances, the same records,
        ``summary()`` and per-bucket stats (census columns and estimates
        included), and the crash plan recovers the same answer."""
        graph, root, ref = case
        d, metrics = assert_parity(graph, root, MACHINE, config)
        assert np.array_equal(d, ref)
        assert metrics.per_bucket_stats
        if config.collect_census:
            assert all("pull_requests" in s for s in metrics.per_bucket_stats)
        else:
            assert any(
                "est_push_cost" in s and s["mode"] in ("push", "pull")
                for s in metrics.per_bucket_stats
            )
        res = solve_sssp(graph, root, config=config, machine=MACHINE,
                         faults=CRASHING, validate="structural")
        assert np.array_equal(res.distances, ref)
        assert res.metrics.recovery.rank_restarts == 1


class TestDirectedGraphs:
    """The pull phase on a directed graph scans the reverse rows. Rank views
    held none and silently read the wrong arcs (wrong distances in 29 of 40
    runs before PR 17 rejected the combination); the one view carries them,
    so every mode is exact on both drivers."""

    @staticmethod
    def directed(seed):
        rng = np.random.default_rng(seed)
        n, m = 400, 4000
        return from_edges(
            rng.integers(0, n, m), rng.integers(0, n, m),
            rng.integers(1, 100, m), n, undirected=False,
        )

    @pytest.mark.parametrize("algorithm", ["prune", "opt"])
    def test_every_pushpull_mode_exact_on_directed_graphs(self, algorithm):
        """All three push/pull modes equal the reference and the
        whole-graph driver's accounting, fault free and under the crash
        plan, on 20 seeded directed graphs."""
        config = preset(algorithm, 25)
        pulled = 0
        for seed in range(20):
            graph = self.directed(seed)
            ref = dijkstra_reference(graph, 0)
            for mode in ("auto", "pull", "push"):
                cfg = config.evolve(pushpull_mode=mode)
                d, metrics = assert_parity(graph, 0, MACHINE, cfg)
                assert np.array_equal(d, ref), (seed, mode)
                pulled += metrics.pull_buckets
                if mode == "pull":
                    assert metrics.pull_buckets == metrics.buckets_processed
            res = solve_sssp(graph, 0, config=config, machine=MACHINE,
                             faults=CRASHING)
            assert np.array_equal(res.distances, ref), seed
        assert pulled  # the reverse rows were really read
