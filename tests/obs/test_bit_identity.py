"""Tracing must be invisible: distances, counters and simulated cost are
bit-identical with telemetry on and off, on both engines, with and without
fault injection."""

import numpy as np
import pytest

from repro.core.config import preset
from repro.core.solver import solve_sssp
from repro.obs.tracer import TraceConfig
from repro.runtime.costmodel import evaluate_cost
from repro.runtime.machine import MachineConfig
from repro.spmd.engine import spmd_delta_stepping
from repro.spmd.faults import FaultPlan


@pytest.fixture()
def machine():
    return MachineConfig(num_ranks=4, threads_per_rank=4)


def _assert_identical(d0, m0, c0, d1, m1, c1):
    assert np.array_equal(d0, d1)
    assert m0.summary() == m1.summary()
    assert m0.relaxations == m1.relaxations
    assert c0 == c1


class TestOrchestratedEngine:
    @pytest.mark.parametrize("algorithm", ["opt", "bellman-ford"])
    def test_traced_solve_bit_identical(self, rmat1_small, machine, algorithm):
        r0 = solve_sssp(
            rmat1_small, 3, algorithm=algorithm, delta=25, machine=machine
        )
        r1 = solve_sssp(
            rmat1_small, 3, algorithm=algorithm, delta=25, machine=machine,
            trace=TraceConfig(path=None),
        )
        _assert_identical(
            r0.distances, r0.metrics, r0.cost,
            r1.distances, r1.metrics, r1.cost,
        )
        assert r0.trace is None
        assert r1.trace is not None


class TestSpmdEngine:
    def test_delta_stepping_bit_identical(self, rmat1_small, machine):
        d0, c0 = spmd_delta_stepping(rmat1_small, 3, machine, delta=25)
        d1, c1 = spmd_delta_stepping(
            rmat1_small, 3, machine, delta=25, trace=TraceConfig(path=None)
        )
        _assert_identical(
            d0, c0.metrics, evaluate_cost(c0.metrics, machine),
            d1, c1.metrics, evaluate_cost(c1.metrics, machine),
        )
        assert c1.tracer is not None and c1.tracer.num_records > 0

    def test_bellman_ford_bit_identical(self, rmat1_small, machine):
        bf = preset("bellman-ford")
        d0, c0 = spmd_delta_stepping(rmat1_small, 3, machine, config=bf)
        d1, c1 = spmd_delta_stepping(
            rmat1_small, 3, machine, config=bf, trace=TraceConfig(path=None)
        )
        _assert_identical(
            d0, c0.metrics, evaluate_cost(c0.metrics, machine),
            d1, c1.metrics, evaluate_cost(c1.metrics, machine),
        )


class TestFaultedEngine:
    def test_faulted_solve_bit_identical(self, rmat1_small, machine):
        plan = FaultPlan.from_spec("loss=0.05,dup=0.02,seed=3")
        f0 = solve_sssp(
            rmat1_small, 3, faults=plan, algorithm="delta", delta=25,
            machine=machine,
        )
        f1 = solve_sssp(
            rmat1_small, 3, faults=plan, algorithm="delta", delta=25,
            machine=machine, trace=TraceConfig(path=None),
        )
        _assert_identical(
            f0.distances, f0.metrics, f0.cost,
            f1.distances, f1.metrics, f1.cost,
        )
        # The reliable transport's recovery shows up as retransmit instants.
        instants = {
            e["name"] for e in f1.trace.events if e["type"] == "instant"
        }
        assert "retransmit" in instants

    def test_crash_recovery_traced(self, rmat1_small, machine):
        plan = FaultPlan.from_spec("crash=1@2,seed=5")
        f0 = solve_sssp(
            rmat1_small, 3, faults=plan, algorithm="delta", delta=25,
            machine=machine,
        )
        f1 = solve_sssp(
            rmat1_small, 3, faults=plan, algorithm="delta", delta=25,
            machine=machine, trace=TraceConfig(path=None),
        )
        _assert_identical(
            f0.distances, f0.metrics, f0.cost,
            f1.distances, f1.metrics, f1.cost,
        )
        instants = {
            e["name"] for e in f1.trace.events if e["type"] == "instant"
        }
        assert "crash" in instants
