"""Runtime invariant guards: detection power and zero-overhead gating.

Each invariant gets a seeded mutation test: corrupt the solve state (or
the guard's view of it) in exactly the way the invariant forbids and
assert the guard trips with :class:`GuardViolation`. Clean solves under
``paranoid`` must pass every check while leaving distances *and metrics*
bit-identical to an unguarded run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SolverConfig, preset
from repro.core.reference import dijkstra_reference
from repro.core.solver import solve_sssp
from repro.graph.rmat import RMAT1, rmat_graph
from repro.graph.roots import choose_root
from repro.runtime.guards import GuardViolation, InvariantGuards
from repro.runtime.machine import MachineConfig
from repro.runtime.metrics import Metrics
from repro.core import phases
from repro.spmd.engine import spmd_delta_stepping
from repro.spmd.faults import FaultPlan, RankCrash


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(scale=8, edge_factor=4, params=RMAT1, seed=7)


@pytest.fixture(scope="module")
def machine():
    return MachineConfig(num_ranks=4, threads_per_rank=2)


# ----------------------------------------------------------------------
# Unit-level: every invariant trips on a minimal synthetic violation.
# ----------------------------------------------------------------------
class TestUnitViolations:
    def test_bucket_monotonicity(self):
        g = InvariantGuards(8, 25)
        g.on_bucket_start(0)
        g.on_bucket_start(3)
        with pytest.raises(GuardViolation, match="bucket monotonicity"):
            g.on_bucket_start(3)
        g2 = InvariantGuards(8, 25)
        g2.on_bucket_start(5)
        with pytest.raises(GuardViolation, match="bucket monotonicity"):
            g2.on_bucket_start(2)

    def test_distance_monotonicity(self):
        g = InvariantGuards(4, 25)
        d = np.array([0, 10, 20, 30], dtype=np.int64)
        g.after_relaxations(d)
        d2 = d.copy()
        d2[2] = 25  # a tentative distance rose
        with pytest.raises(GuardViolation, match="distance monotonicity"):
            g.after_relaxations(d2)

    def test_rollback_permits_one_raise(self):
        g = InvariantGuards(4, 25)
        d = np.array([0, 10, 20, 30], dtype=np.int64)
        g.after_relaxations(d)
        g.on_rollback()
        d2 = d.copy()
        d2[2] = 99  # lawful: rank restarted from a checkpoint
        g.after_relaxations(d2)  # no raise
        with pytest.raises(GuardViolation):
            d3 = d2.copy()
            d3[1] = 50
            g.after_relaxations(d3)

    def test_changed_set_equivalence(self):
        g = InvariantGuards(5, 25)
        d = np.array([0, 10, 20, 30, 40], dtype=np.int64)
        g.after_relaxations(d)
        d = np.array([0, 5, 20, 12, 40], dtype=np.int64)  # 1 and 3 fell
        g.after_relaxations(d.copy(), np.array([1, 3]))
        g.after_relaxations(d.copy(), np.empty(0, np.int64))  # nothing fell
        d[[1, 3]] = [4, 11]
        g.after_relaxations(d.copy(), np.array([3]), (10, 20))  # 1 is below
        d[[1, 3]] = [3, 10]
        with pytest.raises(GuardViolation, match="changed-set equivalence"):
            g.after_relaxations(d.copy(), np.array([1]))  # dropped 3
        g.on_rollback()
        g.after_relaxations(d, np.array([4]))  # skipped after a rollback
        assert g.checks == 6

    def test_settled_flag_finality(self):
        g = InvariantGuards(4, 25)
        d = np.array([0, 10, 20, 30], dtype=np.int64)
        settled = np.array([True, True, False, False])
        g.check_settled(d, settled)
        with pytest.raises(GuardViolation, match="settled finality"):
            g.check_settled(d, np.array([True, False, False, False]))

    def test_settled_distance_finality(self):
        g = InvariantGuards(4, 25)
        d = np.array([0, 10, 20, 30], dtype=np.int64)
        settled = np.array([True, True, False, False])
        g.check_settled(d, settled)
        d2 = d.copy()
        d2[1] = 8  # settled vertex got a new (even better) distance
        with pytest.raises(GuardViolation, match="settled finality"):
            g.check_settled(d2, settled)

    def test_ios_partition(self):
        g = InvariantGuards(4, 25)
        proposed = np.array([10, 40, 20, 60], dtype=np.int64)
        good_inner = proposed < 50
        g.check_ios_partition(proposed, 50, good_inner)  # no raise
        with pytest.raises(GuardViolation, match="IOS partition"):
            g.check_ios_partition(proposed, 50, proposed < 30)  # 40 -> outer
        with pytest.raises(GuardViolation, match="IOS partition"):
            g.check_ios_partition(proposed, 50, proposed < 70)  # 60 -> inner

    def test_ios_coverage(self):
        g = InvariantGuards(4, 25)
        g.check_ios_coverage(7, 7)  # no raise
        with pytest.raises(GuardViolation, match="edge conservation"):
            g.check_ios_coverage(7, 6)

    def test_recovery_separation(self):
        g = InvariantGuards(4, 25)
        clean = Metrics(num_ranks=4, threads_per_rank=2)
        g.check_recovery_separation(clean, allowed=False)  # no raise
        dirty = Metrics(num_ranks=4, threads_per_rank=2)
        dirty.recovery.recovery_supersteps = 3
        with pytest.raises(GuardViolation, match="recovery-traffic"):
            g.check_recovery_separation(dirty, allowed=False)
        g.check_recovery_separation(dirty, allowed=True)  # faults ran: fine

    def test_final_sanity(self):
        g = InvariantGuards(4, 25)
        d = np.array([0, 10, 20, 30], dtype=np.int64)
        g.check_final(d, 0)  # no raise
        with pytest.raises(GuardViolation, match="d\\[root\\]"):
            g.check_final(d, 1)


# ----------------------------------------------------------------------
# Engine-level seeded mutations: corrupt a live solve, guard catches it.
# ----------------------------------------------------------------------
class TestEngineMutations:
    def test_distance_raise_mid_solve_caught(self, graph, machine, monkeypatch):
        """Seeded mutation: the solve silently *raises* the root's settled
        zero distance mid-epoch. Only the paranoid run notices."""
        original = phases.decide_mode
        fired = {"done": False}
        INF = 2**62

        def corrupting(ctx, view, members, k, bucket_ordinal):
            # Runs between the settle step and the long phase.
            if not fired["done"]:
                view.d[0] = INF - 1  # root's distance rises from 0
                fired["done"] = True
            return original(ctx, view, members, k, bucket_ordinal)

        monkeypatch.setattr(phases, "decide_mode", corrupting)
        cfg = preset("delta", 25).evolve(paranoid=True)
        with pytest.raises(GuardViolation, match="monotonicity|finality"):
            spmd_delta_stepping(graph, 0, machine, config=cfg)
        assert fired["done"]

    def test_settled_lowering_mid_solve_caught(self, graph, machine, monkeypatch):
        """Seeded mutation: a settled vertex's distance is *lowered* after
        settling (never a monotonicity breach, only a finality one)."""
        original = phases.decide_mode
        fired = {"done": False}

        def corrupting(ctx, view, members, k, bucket_ordinal):
            # Runs right after the settle step of each epoch.
            if not fired["done"]:
                hit = np.nonzero(view.settled & (view.d > 0))[0]
                if hit.size:
                    view.d[hit[0]] -= 1
                    fired["done"] = True
            return original(ctx, view, members, k, bucket_ordinal)

        monkeypatch.setattr(phases, "decide_mode", corrupting)
        cfg = preset("delta", 25).evolve(paranoid=True)
        with pytest.raises(GuardViolation, match="finality"):
            spmd_delta_stepping(graph, 0, machine, config=cfg)
        assert fired["done"]

    def test_repeated_bucket_caught(self, graph, machine, monkeypatch):
        """Seeded mutation: the next-bucket allreduce repeats an index."""
        from repro.spmd.mailbox import Mailbox

        original = Mailbox.allreduce_min
        state = {"first": None}

        def stuck(self, values):
            k = original(self, values)
            if state["first"] is None and k < 2**60:
                state["first"] = k
            return state["first"] if state["first"] is not None else k

        monkeypatch.setattr(Mailbox, "allreduce_min", stuck)
        cfg = preset("delta", 25).evolve(paranoid=True)
        with pytest.raises(GuardViolation, match="bucket monotonicity"):
            spmd_delta_stepping(graph, 0, machine, config=cfg)

    def test_recovery_leak_caught(self, graph, machine):
        """Seeded mutation: recovery-phase traffic charged in a fault-free
        paranoid solve must trip the separation guard at solve end."""
        from repro.core.context import make_context

        cfg = preset("delta", 25).evolve(paranoid=True)
        ctx = make_context(graph, machine, cfg)
        assert ctx.guards is not None
        ctx.metrics.recovery.recovery_supersteps = 1
        with pytest.raises(GuardViolation, match="recovery-traffic"):
            ctx.guards.check_recovery_separation(ctx.metrics, allowed=False)


# ----------------------------------------------------------------------
# Clean solves: guards pass, and disabling them changes nothing.
# ----------------------------------------------------------------------
class TestCleanSolves:
    @pytest.mark.parametrize("algorithm", ["delta", "opt", "lb-opt", "bellman-ford"])
    def test_paranoid_identical_distances_and_metrics(
        self, graph, machine, algorithm
    ):
        cfg = preset(algorithm, 25)
        d0, ctx0 = spmd_delta_stepping(graph, 0, machine, config=cfg)
        d1, ctx1 = spmd_delta_stepping(
            graph, 0, machine, config=cfg.evolve(paranoid=True)
        )
        assert np.array_equal(d0, d1)
        assert ctx0.metrics.summary() == ctx1.metrics.summary()
        assert ctx0.guards is None
        assert ctx1.guards is not None
        assert ctx1.guards.checks > 0
        assert ctx1.guards.violations == 0

    def test_paranoid_core_engine(self, graph):
        ref = solve_sssp(graph, 0, algorithm="opt", num_ranks=4,
                         threads_per_rank=2)
        par = solve_sssp(graph, 0, algorithm="opt", num_ranks=4,
                         threads_per_rank=2, paranoid=True, validate=True)
        assert np.array_equal(ref.distances, par.distances)
        assert ref.metrics.summary() == par.metrics.summary()

    def test_paranoid_with_ios(self, graph, machine):
        cfg = SolverConfig(delta=25, use_ios=True)
        d0, _ = spmd_delta_stepping(graph, 0, machine, config=cfg)
        d1, ctx1 = spmd_delta_stepping(
            graph, 0, machine, config=cfg.evolve(paranoid=True)
        )
        assert np.array_equal(d0, d1)
        assert ctx1.guards.violations == 0

    def test_paranoid_spmd_bf(self, graph, machine):
        cfg = preset("bellman-ford")
        d0, _ = spmd_delta_stepping(graph, 0, machine, config=cfg)
        d1, ctx1 = spmd_delta_stepping(
            graph, 0, machine, config=cfg.evolve(paranoid=True)
        )
        assert np.array_equal(d0, d1)
        assert ctx1.guards.violations == 0

    def test_paranoid_under_faults_and_recovery(self, graph, machine):
        """A rank restart lawfully raises distances; on_rollback keeps the
        guards from flagging it, and recovery traffic is allowed."""
        plan = FaultPlan(seed=3, loss_rate=0.05, crashes=(RankCrash(1, 4),))
        ref = solve_sssp(graph, 0, faults=FaultPlan(), machine=machine)
        res = solve_sssp(graph, 0, faults=plan, machine=machine,
                         paranoid=True, validate=True)
        assert np.array_equal(ref.distances, res.distances)

    def test_degrade_pass_is_allowed_recovery_traffic(self, graph, machine):
        from repro.runtime.watchdog import DeadlineConfig

        cfg = preset("opt", 25).evolve(paranoid=True)
        d_ref, _ = spmd_delta_stepping(graph, 0, machine, delta=25,
                                       config=preset("opt", 25))
        d, ctx = spmd_delta_stepping(
            graph, 0, machine, config=cfg,
            deadline=DeadlineConfig(max_supersteps=2, policy="degrade"),
        )
        assert np.array_equal(d_ref, d)
        assert ctx.guards.violations == 0

    # guards.checks of a fault-free paranoid solve at 5edab80, before
    # on_rollback learnt to suspend two of the checks: nothing rolled back,
    # so every check still runs, the two suspendable ones included. Radius
    # and rho count one more per epoch since the unsettled-set check runs
    # for every strategy (46 and 20 while it checked Δ's bucket index).
    CHECKS = {
        "dijkstra": 692, "bellman-ford": 10, "delta": 95, "prune": 179,
        "opt": 82, "lb-opt": 82, "lb-opt-split": 82, "radius": 58, "rho": 24,
    }

    @pytest.mark.parametrize("algorithm", sorted(CHECKS))
    def test_every_check_armed_without_rollback(self, graph, machine, algorithm):
        res = solve_sssp(graph, 0, algorithm=algorithm, machine=machine,
                         paranoid=True)
        assert res.guards.checks == self.CHECKS[algorithm]


class TestCrashSweep:
    """A crash at any superstep of any member of the family recovers the
    reference distances with the guards on: the restarted rank re-opens the
    bucket it lost and vertices settled over the cut path are lowered
    later, neither of which the guards may flag after a rollback."""

    @pytest.fixture(scope="class")
    def case(self):
        g = rmat_graph(scale=12, seed=0)
        root = choose_root(g, seed=0)
        return g, root, dijkstra_reference(g, root)

    @pytest.mark.parametrize("algorithm", ["delta", "opt", "lb-opt-split"])
    def test_paranoid_crash_at_every_superstep(self, case, algorithm):
        g, root, ref = case
        machine = MachineConfig(num_ranks=8, threads_per_rank=4)
        for s in range(1, 12):
            plan = FaultPlan.from_spec(f"loss=0.05,crash=1@{s},seed=3")
            res = solve_sssp(g, root, algorithm=algorithm, machine=machine,
                             faults=plan, paranoid=True)
            assert np.array_equal(res.distances, ref), s
            assert res.metrics.recovery.rank_restarts == 1, s
            assert res.guards.violations == 0
