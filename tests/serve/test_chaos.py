"""ChaosPlan/ChaosSolver: determinism, fault kinds, spec parsing."""

import numpy as np
import pytest

from repro.core.solver import BatchSolver, solve_sssp
from repro.core.validation import validate_sssp_structure
from repro.graph.roots import choose_roots
from repro.runtime.watchdog import SolveTimeout
from repro.serve.chaos import ChaosEvent, ChaosPlan, ChaosSolver, InjectedFault


def make_solver(graph):
    return BatchSolver(graph, algorithm="opt", delta=25,
                       num_ranks=2, threads_per_rank=2)


class TestPlanValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"error_rate": -0.1},
            {"error_rate": 1.5},
            {"error_rate": 0.6, "corrupt_rate": 0.6},  # bands sum > 1
            {"slow_s": -1.0},
            {"corrupt_cells": 0},
            {"max_faulty_attempts": -1},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            ChaosPlan(**kwargs)

    def test_bad_event_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos kind"):
            ChaosEvent(0, 0, "meteor")

    def test_injects_anything(self):
        assert not ChaosPlan().injects_anything
        assert ChaosPlan(error_rate=0.1).injects_anything
        assert ChaosPlan(events=(ChaosEvent(1, 0, "error"),)).injects_anything


class TestDraws:
    def test_draw_is_pure_and_order_independent(self):
        plan = ChaosPlan(seed=7, error_rate=0.2, stall_rate=0.1,
                         corrupt_rate=0.2, slow_rate=0.2)
        forward = [plan.draw(r, a) for r in range(40) for a in range(3)]
        backward = [
            plan.draw(r, a)
            for r in reversed(range(40))
            for a in reversed(range(3))
        ]
        assert forward == list(reversed(backward))
        assert len({k for k in forward if k}) > 1  # several kinds appear

    def test_rates_shape_the_mix(self):
        plan = ChaosPlan(seed=3, error_rate=0.5)
        draws = [plan.draw(r, 0) for r in range(400)]
        frac = sum(1 for d in draws if d == "error") / len(draws)
        assert 0.35 < frac < 0.65
        assert all(d in (None, "error") for d in draws)

    def test_pinned_events_override_rates(self):
        plan = ChaosPlan(seed=0, events=(ChaosEvent(7, 1, "corrupt"),))
        assert plan.draw(7, 1) == "corrupt"
        assert plan.draw(7, 0) is None

    def test_clean_after_caps_faulty_attempts(self):
        plan = ChaosPlan(seed=1, error_rate=1.0, max_faulty_attempts=2)
        assert plan.draw(5, 0) == "error"
        assert plan.draw(5, 1) == "error"
        assert plan.draw(5, 2) is None

    def test_roots_filter_restricts_rate_faults(self):
        plan = ChaosPlan(seed=1, error_rate=1.0, roots=(3,))
        assert plan.draw(3, 0) == "error"
        assert plan.draw(4, 0) is None


class TestCorruption:
    def test_corruption_is_deterministic_and_detectable(self, rmat1_small):
        root = int(choose_roots(rmat1_small, 1, seed=0)[0])
        clean = solve_sssp(rmat1_small, root, algorithm="opt", delta=25,
                           num_ranks=2, threads_per_rank=2).distances
        plan = ChaosPlan(seed=5, corrupt_rate=1.0)
        bad1 = plan.corrupt_distances(clean, root, 0)
        bad2 = plan.corrupt_distances(clean, root, 0)
        assert np.array_equal(bad1, bad2)  # same (seed, root, attempt)
        assert not np.array_equal(bad1, clean)
        report = validate_sssp_structure(rmat1_small, root, bad1)
        assert not report.valid

    def test_root_only_reachable_still_detectable(self, disconnected_graph):
        # vertex 4 is isolated: only the root itself is finite
        clean = solve_sssp(disconnected_graph, 4, algorithm="delta", delta=25,
                           num_ranks=2, threads_per_rank=2).distances
        plan = ChaosPlan(seed=5)
        bad = plan.corrupt_distances(clean, 4, 0)
        assert bad[4] != 0  # root rule violated
        assert not validate_sssp_structure(disconnected_graph, 4, bad).valid


class TestChaosSolver:
    def test_error_and_stall_raise_typed(self, path_graph):
        plain = make_solver(path_graph)
        solver = ChaosSolver(
            ChaosPlan(events=(ChaosEvent(0, 0, "error"),
                              ChaosEvent(0, 1, "stall"))),
        )
        with pytest.raises(InjectedFault) as info:
            solver.solve(0, deadline=None, attempt=0, solver=plain)
        assert (info.value.root, info.value.attempt) == (0, 0)
        with pytest.raises(SolveTimeout) as info:
            solver.solve(0, deadline=None, attempt=1, solver=plain)
        assert info.value.root == 0
        assert solver.log == [(0, 0, "error"), (0, 1, "stall")]

    def test_corrupt_perturbs_solve_output(self, rmat1_small):
        root = int(choose_roots(rmat1_small, 1, seed=0)[0])
        plain = make_solver(rmat1_small)
        clean = plain.solve(root).distances
        solver = ChaosSolver(ChaosPlan(events=(ChaosEvent(root, 0, "corrupt"),)))
        res = solver.solve(root, deadline=None, attempt=0, solver=plain)
        assert not np.array_equal(res.distances, clean)

    def test_clean_attempt_is_bit_identical(self, rmat1_small):
        root = int(choose_roots(rmat1_small, 1, seed=0)[0])
        plain = make_solver(rmat1_small)
        solver = ChaosSolver(ChaosPlan(error_rate=1.0, max_faulty_attempts=1))
        with pytest.raises(InjectedFault):
            solver.solve(root, deadline=None, attempt=0, solver=plain)
        res = solver.solve(root, deadline=None, attempt=1, solver=plain)
        assert np.array_equal(res.distances, plain.solve(root).distances)


class TestFromSpec:
    def test_round_trip(self):
        plan = ChaosPlan.from_spec(
            "error=0.1,stall=0.05,corrupt=0.1,slow=0.2,slow-ms=5,seed=3,"
            "clean-after=2,inject=error@7x0+corrupt@3x1,roots=1+2+3"
        )
        assert plan.error_rate == 0.1
        assert plan.stall_rate == 0.05
        assert plan.corrupt_rate == 0.1
        assert plan.slow_rate == 0.2
        assert plan.slow_s == pytest.approx(0.005)
        assert plan.seed == 3
        assert plan.max_faulty_attempts == 2
        assert plan.events == (ChaosEvent(7, 0, "error"),
                               ChaosEvent(3, 1, "corrupt"))
        assert plan.roots == (1, 2, 3)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos spec key"):
            ChaosPlan.from_spec("meteors=1.0")

    def test_malformed_item_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            ChaosPlan.from_spec("error")
