"""Fault injection and self-healing recovery (DESIGN.md §7).

The contract under test: for every fault class the recovered distances are
*bit-identical* to the fault-free run (and to the Dijkstra reference), the
structural validator accepts them, and all recovery overhead is charged to
the separable ``recovery`` phase — which reports exactly zero traffic when
no fault is injected.
"""

import numpy as np
import pytest

from repro.core.config import preset
from repro.core.reference import dijkstra_reference
from repro.core.solver import solve_sssp
from repro.core.validation import validate_sssp_structure
from repro.graph.partition import BlockPartition
from repro.runtime.comm import Communicator
from repro.runtime.machine import MachineConfig
from repro.runtime.metrics import Metrics
from repro.spmd import (
    FaultPlan,
    FaultyMailbox,
    Mailbox,
    RankCrash,
    RankStall,
    spmd_delta_stepping,
)
from tests.spmd.ranks import deliver, perfect_wire, post


def make_comm(p=3, n=12):
    machine = MachineConfig(num_ranks=p, threads_per_rank=1)
    metrics = Metrics(num_ranks=p, threads_per_rank=1)
    return Communicator(machine, BlockPartition(n, p), metrics), metrics


# ----------------------------------------------------------------------
# Mailbox edge cases (empty batches, pre-charge column check)
# ----------------------------------------------------------------------
class TestMailboxValidation:
    def test_post_empty_batch_is_noop(self):
        comm, metrics = make_comm()
        mailbox = Mailbox(3, comm)
        post(mailbox, 0, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        inboxes = deliver(mailbox, 16)
        assert all(box[0].size == 0 for box in inboxes)

    def test_column_mismatch_detected_before_any_charge(self):
        comm, metrics = make_comm()
        mailbox = Mailbox(3, comm)
        post(mailbox, 0, np.array([1]), np.array([5]), np.array([50]))
        with pytest.raises(ValueError, match="columns"):
            deliver(mailbox, 16, num_columns=3)
        # The failed exchange must not have half-updated the metrics.
        assert metrics.total_bytes == 0
        assert len(metrics.records) == 0

    def test_empty_superstep_delivers_empty_inboxes(self):
        comm, metrics = make_comm()
        mailbox = Mailbox(3, comm)
        inboxes = deliver(mailbox, 16)
        assert len(inboxes) == 3
        assert all(box[0].size == 0 for box in inboxes)
        assert metrics.total_bytes == 0


# ----------------------------------------------------------------------
# Reliable transport over a faulty wire
# ----------------------------------------------------------------------
def run_exchange(mailbox):
    """Post a fixed cross-rank workload and deliver it."""
    post(mailbox, 0, np.array([1, 2, 1]), np.array([5, 9, 6]),
         np.array([50, 90, 60]))
    post(mailbox, 1, np.array([0, 2]), np.array([1, 10]), np.array([11, 101]))
    post(mailbox, 2, np.array([2, 0]), np.array([8, 0]), np.array([80, 1]))
    return deliver(mailbox, 16)


def inbox_sets(inboxes):
    return [sorted(zip(box[0].tolist(), box[1].tolist())) for box in inboxes]


class TestReliableMailbox:
    def test_perfect_wire_matches_plain_mailbox_exactly(self):
        comm_a, metrics_a = make_comm()
        comm_b, metrics_b = make_comm()
        plain = run_exchange(Mailbox(3, comm_a))
        reliable = run_exchange(perfect_wire(3, comm_b))
        for a, b in zip(plain, reliable):
            for col_a, col_b in zip(a, b):
                assert np.array_equal(col_a, col_b)
        # Identical accounting, record by record.
        assert [vars(r) for r in metrics_a.records] == [
            vars(r) for r in metrics_b.records
        ]
        assert metrics_b.recovery_bytes == 0
        assert metrics_b.recovery.recovery_supersteps == 0

    def test_loss_recovered_exactly_once(self):
        comm, metrics = make_comm()
        mailbox = FaultyMailbox(3, comm, FaultPlan(seed=5, loss_rate=0.6))
        inboxes = run_exchange(mailbox)
        comm_ref, _ = make_comm()
        expected = inbox_sets(run_exchange(Mailbox(3, comm_ref)))
        assert inbox_sets(inboxes) == expected
        assert metrics.recovery.retries > 0
        assert metrics.recovery_bytes > 0

    def test_duplication_deduped(self):
        comm, metrics = make_comm()
        mailbox = FaultyMailbox(3, comm, FaultPlan(seed=5, dup_rate=1.0))
        inboxes = run_exchange(mailbox)
        comm_ref, _ = make_comm()
        expected = inbox_sets(run_exchange(Mailbox(3, comm_ref)))
        # Every record was duplicated on the wire, none arrives twice.
        assert inbox_sets(inboxes) == expected
        assert metrics.recovery.faults_injected["duplicate"] > 0

    def test_reordering_preserves_record_set(self):
        comm, metrics = make_comm()
        mailbox = FaultyMailbox(3, comm, FaultPlan(seed=5, reorder_rate=1.0))
        inboxes = run_exchange(mailbox)
        comm_ref, _ = make_comm()
        expected = inbox_sets(run_exchange(Mailbox(3, comm_ref)))
        assert inbox_sets(inboxes) == expected

    def test_delay_eventually_delivers(self):
        comm, metrics = make_comm()
        mailbox = FaultyMailbox(3, comm, FaultPlan(seed=5, delay_rate=0.8))
        inboxes = run_exchange(mailbox)
        comm_ref, _ = make_comm()
        expected = inbox_sets(run_exchange(Mailbox(3, comm_ref)))
        assert inbox_sets(inboxes) == expected

    def test_adversarial_total_loss_still_terminates(self):
        # 100% loss on every attempt: the out-of-band heal after
        # max_attempts must still deliver everything.
        comm, metrics = make_comm()
        plan = FaultPlan(seed=5, loss_rate=1.0, faults_on_retry=True,
                         max_attempts=3)
        mailbox = FaultyMailbox(3, comm, plan)
        inboxes = run_exchange(mailbox)
        comm_ref, _ = make_comm()
        expected = inbox_sets(run_exchange(Mailbox(3, comm_ref)))
        assert inbox_sets(inboxes) == expected
        assert metrics.recovery.retries >= 3


# ----------------------------------------------------------------------
# Fault plan (validation, parsing, determinism)
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError, match="loss_rate"):
            FaultPlan(loss_rate=1.5)
        with pytest.raises(ValueError, match="max_delay"):
            FaultPlan(max_delay=0)
        with pytest.raises(ValueError, match="crash"):
            FaultPlan(crashes=(RankCrash(-1, 0),))
        with pytest.raises(ValueError, match="stall"):
            FaultPlan(stalls=(RankStall(0, 0, 0),))

    def test_retry_settings_validated(self):
        """Retry settings that can never run are rejected where a spec
        arrives, not by the mailbox a solve builds after its context."""
        with pytest.raises(ValueError, match="max_attempts"):
            FaultPlan.from_spec("attempts=0")
        with pytest.raises(ValueError, match="backoff_cap"):
            FaultPlan.from_spec("backoff=0")
        with pytest.raises(ValueError, match="max_attempts"):
            FaultPlan(max_attempts=-1)

    def test_from_spec_round_trip(self):
        plan = FaultPlan.from_spec(
            "loss=0.05,dup=0.02,seed=3,crash=1@4+0@9,stall=2@5x3,ckpt=2"
        )
        assert plan.loss_rate == 0.05
        assert plan.dup_rate == 0.02
        assert plan.seed == 3
        assert plan.crashes == (RankCrash(1, 4), RankCrash(0, 9))
        assert plan.stalls == (RankStall(2, 5, 3),)
        assert plan.checkpoint_interval == 2

    def test_from_spec_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown fault spec key"):
            FaultPlan.from_spec("gamma=1")
        with pytest.raises(ValueError, match="malformed"):
            FaultPlan.from_spec("loss")

    def test_injects_anything(self):
        assert not FaultPlan().injects_anything
        assert FaultPlan(loss_rate=0.1).injects_anything
        assert FaultPlan(crashes=(RankCrash(0, 0),)).injects_anything

    def test_rank_out_of_machine_range_rejected(self, rmat1_small, machine4):
        plan = FaultPlan(crashes=(RankCrash(9, 4),))
        with pytest.raises(ValueError, match="rank 9.*only 4 ranks"):
            spmd_delta_stepping(rmat1_small, 0, machine4, delta=25,
                                faults=plan)
        with pytest.raises(ValueError, match="rank 7"):
            solve_sssp(rmat1_small, 0, algorithm="bellman-ford",
                       machine=machine4,
                       faults=FaultPlan(stalls=(RankStall(7, 2),)))

    def test_superstep_window(self):
        plan = FaultPlan(loss_rate=0.1, first_superstep=2, last_superstep=5)
        assert not plan.active_at(1)
        assert plan.active_at(2)
        assert plan.active_at(5)
        assert not plan.active_at(6)

    def test_same_seed_identical_schedule(self, rmat1_small, machine4):
        plan = FaultPlan(seed=9, loss_rate=0.08, dup_rate=0.03,
                         delay_rate=0.03, reorder_rate=0.1)
        d1, ctx1 = spmd_delta_stepping(rmat1_small, 0, machine4, delta=25,
                                       faults=plan)
        d2, ctx2 = spmd_delta_stepping(rmat1_small, 0, machine4, delta=25,
                                       faults=plan)
        assert np.array_equal(d1, d2)
        assert ctx1.metrics.recovery.events == ctx2.metrics.recovery.events
        assert ctx1.metrics.summary() == ctx2.metrics.summary()

    def test_different_seed_different_schedule(self, rmat1_small, machine4):
        d1, ctx1 = spmd_delta_stepping(
            rmat1_small, 0, machine4, delta=25,
            faults=FaultPlan(seed=1, loss_rate=0.08),
        )
        d2, ctx2 = spmd_delta_stepping(
            rmat1_small, 0, machine4, delta=25,
            faults=FaultPlan(seed=2, loss_rate=0.08),
        )
        assert np.array_equal(d1, d2)  # answers agree...
        # ...but the injected fault schedules differ.
        assert ctx1.metrics.recovery.events != ctx2.metrics.recovery.events


# ----------------------------------------------------------------------
# End-to-end: every fault class recovers the exact fault-free answer
# ----------------------------------------------------------------------
FAULT_CLASSES = [
    pytest.param(FaultPlan(seed=3, loss_rate=0.1), id="loss"),
    pytest.param(FaultPlan(seed=3, dup_rate=0.1), id="duplication"),
    pytest.param(FaultPlan(seed=3, reorder_rate=0.5), id="reordering"),
    pytest.param(FaultPlan(seed=3, delay_rate=0.1), id="delay"),
    pytest.param(FaultPlan(seed=3, crashes=(RankCrash(1, 4),)), id="crash"),
    pytest.param(FaultPlan(seed=3, stalls=(RankStall(2, 3, 3),)), id="stall"),
    pytest.param(
        FaultPlan(seed=3, loss_rate=0.05, dup_rate=0.03, reorder_rate=0.2,
                  delay_rate=0.03, crashes=(RankCrash(0, 6), RankCrash(2, 11)),
                  stalls=(RankStall(1, 8),)),
        id="combined",
    ),
]


class TestRecoveryEquivalence:
    @pytest.mark.parametrize("plan", FAULT_CLASSES)
    def test_delta_stepping_distances_bit_identical(
        self, rmat1_small, machine4, plan
    ):
        ref = dijkstra_reference(rmat1_small, 0)
        clean, _ = spmd_delta_stepping(rmat1_small, 0, machine4, delta=25)
        faulty, ctx = spmd_delta_stepping(rmat1_small, 0, machine4, delta=25,
                                          faults=plan)
        assert np.array_equal(clean, ref)
        assert np.array_equal(faulty, ref)
        assert validate_sssp_structure(rmat1_small, 0, faulty).valid
        if plan.crashes:
            assert ctx.metrics.recovery.rank_restarts >= 1

    @pytest.mark.parametrize("plan", FAULT_CLASSES)
    def test_bellman_ford_distances_bit_identical(
        self, rmat1_small, machine4, plan
    ):
        ref = dijkstra_reference(rmat1_small, 0)
        faulty, _ = spmd_delta_stepping(
            rmat1_small, 0, machine4, config=preset("bellman-ford"), faults=plan
        )
        assert np.array_equal(faulty, ref)

    def test_full_composition_under_faults(self, rmat1_small, machine4):
        from repro.core.config import SolverConfig

        cfg = SolverConfig(delta=25, use_ios=True, use_pruning=True,
                           use_hybrid=True, pushpull_estimator="expectation")
        ref = dijkstra_reference(rmat1_small, 0)
        plan = FaultPlan(seed=3, loss_rate=0.05, dup_rate=0.03,
                         crashes=(RankCrash(1, 5),))
        faulty, ctx = spmd_delta_stepping(rmat1_small, 0, machine4,
                                          config=cfg, faults=plan)
        assert np.array_equal(faulty, ref)
        assert ctx.metrics.recovery.checkpoints_taken >= 1


# ----------------------------------------------------------------------
# Fault-free transparency: no faults => no overhead, bit-exact metrics
# ----------------------------------------------------------------------
class TestFaultFreeTransparency:
    def test_faults_none_is_bitexact_including_metrics(
        self, rmat1_small, machine4
    ):
        d_none, ctx_none = spmd_delta_stepping(rmat1_small, 0, machine4,
                                               delta=25, faults=None)
        d_base, ctx_base = spmd_delta_stepping(rmat1_small, 0, machine4,
                                               delta=25)
        assert np.array_equal(d_none, d_base)
        assert ctx_none.metrics.summary() == ctx_base.metrics.summary()
        assert ctx_none.metrics.recovery_bytes == 0

    def test_empty_plan_recovery_traffic_is_zero(self, rmat1_small, machine4):
        d_base, ctx_base = spmd_delta_stepping(rmat1_small, 0, machine4,
                                               delta=25)
        d_empty, ctx_empty = spmd_delta_stepping(rmat1_small, 0, machine4,
                                                 delta=25, faults=FaultPlan())
        assert np.array_equal(d_empty, d_base)
        rec = ctx_empty.metrics.recovery
        assert ctx_empty.metrics.recovery_bytes == 0
        assert rec.recovery_supersteps == 0
        assert rec.retries == 0
        assert rec.rank_restarts == 0
        assert rec.healing_sweeps == 0
        assert rec.checkpoints_taken >= 1
        # Algorithm-phase accounting is untouched by the recovery machinery:
        # only recovery-kind records may differ from the plain run.
        algo = lambda m: [  # noqa: E731
            vars(r) for r in m.records if r.phase_kind != "recovery"
        ]
        assert algo(ctx_empty.metrics) == algo(ctx_base.metrics)


# ----------------------------------------------------------------------
# High-level entry point
# ----------------------------------------------------------------------
class TestSolveWithFaults:
    def test_solve_with_faults_result(self, rmat1_small):
        plan = FaultPlan(seed=2, loss_rate=0.05)
        res = solve_sssp(rmat1_small, 0, faults=plan, algorithm="delta",
                         num_ranks=4, threads_per_rank=4,
                         validate="structural")
        ref = dijkstra_reference(rmat1_small, 0)
        assert np.array_equal(res.distances, ref)
        # The preset's own label, "+faults" iff the plan injects anything.
        assert res.algorithm == "delta-25+faults"
        clean = solve_sssp(rmat1_small, 0, faults=FaultPlan(),
                           algorithm="delta", num_ranks=4, threads_per_rank=4)
        assert clean.algorithm == "delta-25"
        assert res.metrics.summary()["resent_bytes"] > 0

    def test_bellman_ford_entry(self, rmat1_small):
        plan = FaultPlan(seed=2, loss_rate=0.05)
        res = solve_sssp(rmat1_small, 0, faults=plan, algorithm="bellman-ford",
                         num_ranks=4, threads_per_rank=4)
        assert np.array_equal(res.distances,
                              dijkstra_reference(rmat1_small, 0))
        assert res.algorithm == "bellman-ford+faults"
        assert res.metrics.buckets_processed == 0 and res.metrics.bf_phases > 0
