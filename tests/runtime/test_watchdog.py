"""Deadline watchdog, timeout policies, and retry-storm termination."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import preset
from repro.core.solver import solve_sssp
from repro.graph.rmat import RMAT1, rmat_graph
from repro.runtime.machine import MachineConfig
from repro.runtime.watchdog import (
    DeadlineConfig,
    DeadlineExceeded,
    SolveTimeout,
    Watchdog,
)
from repro.spmd.engine import spmd_delta_stepping
from repro.spmd.faults import FaultPlan, RankStall


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(scale=8, edge_factor=4, params=RMAT1, seed=7)


@pytest.fixture(scope="module")
def machine():
    return MachineConfig(num_ranks=4, threads_per_rank=2)


class TestUnit:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            DeadlineConfig(max_supersteps=0)
        with pytest.raises(ValueError):
            DeadlineConfig(stall_patience=0)
        with pytest.raises(ValueError):
            DeadlineConfig(policy="panic")
        assert not DeadlineConfig().enabled
        assert DeadlineConfig(max_supersteps=5).enabled
        assert DeadlineConfig(stall_patience=5).enabled

    def test_budget_trips(self):
        wd = Watchdog(DeadlineConfig(max_supersteps=3))
        for i in range(3):
            wd.note_epoch(settled_total=i, relaxations=i)
        with pytest.raises(DeadlineExceeded, match="budget exhausted"):
            wd.note_epoch(settled_total=10, relaxations=10)

    def test_stall_trips_only_without_progress(self):
        wd = Watchdog(DeadlineConfig(stall_patience=2))
        # progress every step: never trips
        for i in range(10):
            wd.note_epoch(settled_total=i, relaxations=i)
        # two repeats of the same signature: trips
        wd.note_epoch(settled_total=100, relaxations=100)
        wd.note_epoch(settled_total=100, relaxations=100)
        with pytest.raises(DeadlineExceeded, match="no progress"):
            wd.note_epoch(settled_total=100, relaxations=100)

    def test_progress_resets_stall_counter(self):
        wd = Watchdog(DeadlineConfig(stall_patience=2))
        wd.note_epoch(settled_total=1, relaxations=1)
        wd.note_epoch(settled_total=1, relaxations=1)
        wd.note_epoch(settled_total=2, relaxations=3)  # progress
        assert wd.stalled_for == 0

    def test_recovery_rounds_burn_budget(self):
        wd = Watchdog(DeadlineConfig(max_supersteps=5))
        wd.note_epoch(settled_total=1, relaxations=1)
        with pytest.raises(DeadlineExceeded):
            for _ in range(10):
                wd.note_recovery_round()
        assert wd.supersteps == 6

    def test_recovery_rounds_count_as_stalled(self):
        wd = Watchdog(DeadlineConfig(stall_patience=4))
        with pytest.raises(DeadlineExceeded, match="no progress"):
            for _ in range(10):
                wd.note_recovery_round()


class TestSolveIntegration:
    def test_unbounded_deadline_is_noop(self, graph, machine):
        cfg = preset("opt", 25)
        d_ref, ctx_ref = spmd_delta_stepping(graph, 0, machine, config=cfg)
        d, ctx = spmd_delta_stepping(
            graph, 0, machine, config=cfg, deadline=DeadlineConfig(),
        )
        assert np.array_equal(d_ref, d)
        assert ctx_ref.metrics.summary() == ctx.metrics.summary()

    def test_generous_deadline_does_not_trip(self, graph, machine):
        d_ref, _ = spmd_delta_stepping(graph, 0, machine, delta=25)
        d, _ = spmd_delta_stepping(
            graph, 0, machine, delta=25,
            deadline=DeadlineConfig(max_supersteps=100_000),
        )
        assert np.array_equal(d_ref, d)

    def test_raise_policy_carries_partial_state(self, graph, machine, tmp_path):
        cfg = preset("opt", 25)
        with pytest.raises(SolveTimeout) as info:
            spmd_delta_stepping(
                graph, 0, machine, config=cfg, checkpoint_dir=tmp_path,
                deadline=DeadlineConfig(max_supersteps=2, policy="raise"),
            )
        exc = info.value
        assert exc.distances is not None
        assert exc.distances.shape == (graph.num_vertices,)
        assert exc.supersteps > 2
        assert exc.checkpoint_path is not None
        assert "resumable checkpoint" in str(exc)

    def test_raise_then_resume_is_exact(self, graph, machine, tmp_path):
        cfg = preset("opt", 25)
        d_ref, _ = spmd_delta_stepping(graph, 0, machine, config=cfg)
        with pytest.raises(SolveTimeout):
            spmd_delta_stepping(
                graph, 0, machine, config=cfg, checkpoint_dir=tmp_path,
                deadline=DeadlineConfig(max_supersteps=3, policy="raise"),
            )
        d_res, _ = spmd_delta_stepping(
            graph, 0, machine, config=cfg, checkpoint_dir=tmp_path,
            resume=True,
        )
        assert np.array_equal(d_ref, d_res)

    def test_degrade_policy_returns_exact_distances(self, graph, machine):
        cfg = preset("opt", 25)
        d_ref, _ = spmd_delta_stepping(graph, 0, machine, config=cfg)
        d, ctx = spmd_delta_stepping(
            graph, 0, machine, config=cfg,
            deadline=DeadlineConfig(max_supersteps=2, policy="degrade"),
        )
        assert np.array_equal(d_ref, d)
        assert ctx.metrics.degraded_to_bf
        assert ctx.metrics.recovery_bytes > 0  # BF pass charged to recovery

    def test_core_engine_timeout_and_degrade(self, graph, tmp_path):
        with pytest.raises(SolveTimeout):
            solve_sssp(graph, 0, algorithm="opt", num_ranks=4,
                       threads_per_rank=2, checkpoint_dir=tmp_path,
                       deadline=DeadlineConfig(max_supersteps=1))
        ref = solve_sssp(graph, 0, algorithm="opt", num_ranks=4,
                         threads_per_rank=2)
        deg = solve_sssp(
            graph, 0, algorithm="opt", num_ranks=4, threads_per_rank=2,
            deadline=DeadlineConfig(max_supersteps=1, policy="degrade"),
        )
        assert np.array_equal(ref.distances, deg.distances)
        assert deg.metrics.degraded_to_bf


class TestRetryStorm:
    """The adversarial case the watchdog exists for: a fault plan whose
    stall makes the reliable mailbox spin thousands of recovery rounds."""

    STORM = FaultPlan(seed=0, stalls=(RankStall(1, 3, 4000),))

    def test_storm_spins_without_watchdog(self, graph, machine):
        res = solve_sssp(graph, 0, faults=self.STORM, machine=machine,
                         config=preset("opt", 25))
        assert res.metrics.recovery.recovery_supersteps >= 4000

    def test_storm_raises_structured_timeout(self, graph, machine, tmp_path):
        with pytest.raises(SolveTimeout) as info:
            solve_sssp(
                graph, 0, faults=self.STORM, machine=machine,
                config=preset("opt", 25), checkpoint_dir=tmp_path,
                deadline=DeadlineConfig(max_supersteps=60, policy="raise"),
            )
        assert info.value.supersteps <= 70
        assert info.value.checkpoint_path is not None

    def test_storm_timeout_checkpoint_is_resumable(
        self, graph, machine, tmp_path
    ):
        cfg = preset("opt", 25)
        d_ref, _ = spmd_delta_stepping(graph, 0, machine, config=cfg)
        with pytest.raises(SolveTimeout):
            solve_sssp(
                graph, 0, faults=self.STORM, machine=machine, config=cfg,
                checkpoint_dir=tmp_path,
                deadline=DeadlineConfig(max_supersteps=60, policy="raise"),
            )
        # the operator clears the fault and resumes
        res = solve_sssp(
            graph, 0, faults=FaultPlan(), machine=machine, config=cfg,
            checkpoint_dir=tmp_path, resume=True, validate=True,
        )
        assert np.array_equal(d_ref, res.distances)

    def test_storm_degrades_to_exact_distances(self, graph, machine):
        cfg = preset("opt", 25)
        d_ref, _ = spmd_delta_stepping(graph, 0, machine, config=cfg)
        res = solve_sssp(
            graph, 0, faults=self.STORM, machine=machine, config=cfg,
            deadline=DeadlineConfig(max_supersteps=60, policy="degrade"),
        )
        assert np.array_equal(d_ref, res.distances)
        assert res.metrics.degraded_to_bf
        # the degrade pass terminated without burning the full storm
        assert res.metrics.recovery.recovery_supersteps < 4000
