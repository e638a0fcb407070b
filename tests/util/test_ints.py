"""The integer rule: one helper for every vertex id and count an entry
point takes, refusing floats, strings and bools (NumPy's included)."""

import numpy as np
import pytest

from repro.core.solver import BatchSolver, solve_sssp
from repro.runtime.machine import MachineConfig
from repro.runtime.watchdog import DeadlineConfig
from repro.serve.broker import QueryBroker
from repro.util.ints import check_count, vertex_id

MACHINE = MachineConfig(num_ranks=2, threads_per_rank=2)
#: refused everywhere: ``True`` solved root 1, ``1.7`` root 1, ``"3"`` root 3
NOT_INTEGERS = (True, False, np.True_, 1.7, 2.0, np.float64(1.0), "3", None)


class TestHelpers:
    def test_vertex_id(self):
        assert vertex_id(np.int32(3), 5) == 3 and type(vertex_id(np.int64(0), 5)) is int
        for bad in NOT_INTEGERS:
            with pytest.raises(ValueError, match="root must be an integer vertex id"):
                vertex_id(bad, 5)
        for bad in (-1, 5):
            with pytest.raises(ValueError, match=f"path target {bad} out of range"):
                vertex_id(bad, 5, "path target")

    def test_check_count(self):
        assert check_count("x", np.uint8(3)) == 3
        for bad in NOT_INTEGERS:
            with pytest.raises(ValueError, match="x must be an integer"):
                check_count("x", bad)
        for bad in (0, -2, np.int64(0)):
            with pytest.raises(ValueError, match="x must be >= 1"):
                check_count("x", bad)


class TestRoots:
    """Every root and path target entry point applies the one rule."""

    def test_solver_entry_points(self, path_graph):
        solver = BatchSolver(path_graph, algorithm="delta", machine=MACHINE)
        entries = (
            lambda r: solver.solve(r),
            lambda r: [solver.solve(x) for x in (0, r)],
            lambda r: solve_sssp(path_graph, r, algorithm="delta", machine=MACHINE),
        )
        for entry in entries:
            for bad in NOT_INTEGERS:
                with pytest.raises(ValueError, match="integer vertex id"):
                    entry(bad)
            with pytest.raises(ValueError, match="out of range"):
                entry(path_graph.num_vertices)
        assert solver.solve(np.int16(1)).root == 1

    def test_broker_entry_points(self, path_graph):
        broker = QueryBroker(path_graph, num_workers=0, machine=MACHINE)
        entries = (
            lambda r: broker.submit(r),
            lambda r: broker.query(r),
            lambda r: broker.submit_many([0, r]),
            lambda t: broker.submit(0, targets=[1, t]),
            lambda t: broker.query(0, targets=[t]),
            lambda t: broker.submit_many([0], targets=[t]),
        )
        for entry in entries:
            for bad in NOT_INTEGERS:
                with pytest.raises(ValueError, match="integer vertex id"):
                    entry(bad)
            with pytest.raises(ValueError, match="out of range"):
                entry(-1)
        assert broker.report()["offered"] == 0  # refused before admission
        assert list(broker.query(np.int64(0), targets=[np.uint16(2)]).paths) == [2]
        broker.shutdown()


class TestCounts:
    @pytest.mark.parametrize("field", ["max_supersteps", "stall_patience"])
    def test_deadline_bounds(self, field):
        assert getattr(DeadlineConfig(**{field: np.int64(4)}), field) == 4
        for bad in (1.5, 4.0, True, "4"):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                DeadlineConfig(**{field: bad})
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            DeadlineConfig(**{field: 0})

    def test_solve_degraded_refuses_a_float_bound(self, path_graph):
        solver = BatchSolver(path_graph, algorithm="delta", machine=MACHINE)
        with pytest.raises(ValueError, match="max_supersteps must be an integer"):
            solver.solve_degraded(0, max_supersteps=1.5)
        assert solver.solve_degraded(0, max_supersteps=np.int8(1)).root == 0

    @pytest.mark.parametrize("field", ["num_ranks", "threads_per_rank"])
    def test_machine_shape(self, field):
        shape = {"num_ranks": 2, "threads_per_rank": 2}
        assert getattr(MachineConfig(**{**shape, field: np.int32(3)}), field) == 3
        for bad in (2.0, True, np.True_, "2"):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                MachineConfig(**{**shape, field: bad})
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            MachineConfig(**{**shape, field: 0})
