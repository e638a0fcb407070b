"""The front door: a solve is ``BatchSolver.solve`` whatever the driver.

``solve_sssp(..., faults=plan)`` / ``BatchSolver.solve(root, faults=plan)``
run the *resolved preset* on the rank driver — same distances, counters and
priced cost as entering the rank driver directly with that preset — and the
rank driver rejects, at its one entry, what rank views cannot compute.
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

MACHINE = MachineConfig(num_ranks=4, threads_per_rank=2)
LOSSY = FaultPlan(seed=3, loss_rate=0.05, crashes=(RankCrash(1, 4),))
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

    @pytest.mark.parametrize(
        "config, message",
        [
            (preset("delta", 25).evolve(collect_census=True), "census"),
            (preset("prune", 25).evolve(pushpull_estimator="exact"), "expectation"),
        ],
    )
    def test_whole_graph_only_configs_rejected_at_rank_entry(
        self, case, config, message
    ):
        graph, root, _ = case
        with pytest.raises(ValueError, match=message):
            solve_sssp(graph, root, config=config, machine=MACHINE,
                       faults=FaultPlan())
        with pytest.raises(ValueError, match=message):
            spmd_delta_stepping(graph, root, MACHINE, config=config)


class TestDirectedGraphs:
    """Rank views hold no reverse rows, so the pull phase on a directed
    graph silently read the wrong arcs; it is rejected, push mode is exact."""

    @staticmethod
    def directed(seed):
        rng = np.random.default_rng(seed)
        n, m = 400, 4000
        return from_edges(
            rng.integers(0, n, m), rng.integers(0, n, m),
            rng.integers(1, 100, m), n, undirected=False,
        )

    @pytest.mark.parametrize("algorithm", ["prune", "opt"])
    def test_pull_rejected_push_exact(self, algorithm):
        machine, config = MACHINE, preset(algorithm, 25)
        for seed in range(20):
            graph = self.directed(seed)
            ref = dijkstra_reference(graph, 0)
            for mode in ("auto", "pull"):
                with pytest.raises(ValueError, match="directed"):
                    spmd_delta_stepping(
                        graph, 0, machine, config=config.evolve(pushpull_mode=mode)
                    )
            with pytest.raises(ValueError, match="directed"):
                solve_sssp(graph, 0, config=config, machine=machine,
                           faults=FaultPlan())
            push = config.evolve(pushpull_mode="push")
            d, _ = spmd_delta_stepping(graph, 0, machine, config=push)
            assert np.array_equal(d, ref), seed
            # The whole-graph driver holds the reverse rows: any mode is exact.
            assert np.array_equal(
                solve_sssp(graph, 0, config=config, machine=machine).distances, ref
            )
