"""Unit tests for the analytic cost model."""

import numpy as np
import pytest

from repro.runtime.costmodel import evaluate_cost, simulated_gteps
from repro.runtime.machine import MachineConfig
from repro.runtime.metrics import ComputeKind, Metrics


def machine():
    return MachineConfig(
        num_ranks=4,
        threads_per_rank=2,
        t_relax=1e-6,
        t_request=2e-6,
        t_scan=1e-7,
        alpha=1e-5,
        beta=1e-9,
        t_allreduce_base=1e-5,
        t_allreduce_log=1e-6,
    )


def metrics():
    return Metrics(num_ranks=4, threads_per_rank=2)


class TestEvaluateCost:
    def test_empty_run_is_free(self):
        cost = evaluate_cost(metrics(), machine())
        assert cost.total_time == 0.0

    def test_compute_record_priced_by_kind(self):
        m = metrics()
        tw = np.zeros(8)
        tw[0] = 10
        m.add_compute(ComputeKind.SHORT_RELAX, tw, phase_kind="short")
        cost = evaluate_cost(m, machine())
        assert cost.compute_time == pytest.approx(10 * 1e-6)
        assert cost.other_time == pytest.approx(10 * 1e-6)
        assert cost.bucket_time == 0.0

    def test_request_kind_uses_t_request(self):
        m = metrics()
        tw = np.zeros(8)
        tw[0] = 10
        m.add_compute(ComputeKind.PULL_REQUEST, tw, phase_kind="long")
        assert evaluate_cost(m, machine()).compute_time == pytest.approx(10 * 2e-6)

    def test_scan_goes_to_bucket_time(self):
        m = metrics()
        tw = np.ones(8)
        m.add_compute(ComputeKind.BUCKET_SCAN, tw, phase_kind="bucket")
        cost = evaluate_cost(m, machine())
        assert cost.bucket_time > 0
        assert cost.other_time == 0.0

    def test_exchange_alpha_beta(self):
        m = metrics()
        m.add_exchange(np.array([2, 0, 0, 0]), np.array([1000, 0, 0, 0]), phase_kind="long")
        cost = evaluate_cost(m, machine())
        assert cost.comm_time == pytest.approx(2 * 1e-5 + 1000 * 1e-9)

    def test_allreduce_priced_with_log_term(self):
        m = metrics()
        m.add_allreduce(3)
        cost = evaluate_cost(m, machine())
        assert cost.sync_time == pytest.approx(3 * machine().allreduce_time())
        assert cost.bucket_time == cost.sync_time

    def test_total_is_bucket_plus_other(self):
        m = metrics()
        m.add_compute(ComputeKind.BF_RELAX, np.ones(8), phase_kind="bf")
        m.add_allreduce(1)
        cost = evaluate_cost(m, machine())
        assert cost.total_time == pytest.approx(cost.bucket_time + cost.other_time)
        assert cost.total_time == pytest.approx(
            cost.compute_time + cost.comm_time + cost.sync_time
        )

    def test_monotone_in_bytes(self):
        m1, m2 = metrics(), metrics()
        m1.add_exchange(np.array([1, 0, 0, 0]), np.array([100, 0, 0, 0]))
        m2.add_exchange(np.array([1, 0, 0, 0]), np.array([200, 0, 0, 0]))
        assert (
            evaluate_cost(m2, machine()).total_time
            > evaluate_cost(m1, machine()).total_time
        )

    def test_unknown_kind_rejected(self):
        from types import SimpleNamespace

        from repro.runtime.costmodel import price_record
        from repro.runtime.metrics import StepRecord

        # The ledger takes whatever kind a compute fact names; pricing is
        # where an unclassified one is refused, per record and per ledger.
        m = metrics()
        m.queue_compute(SimpleNamespace(value="mystery"), np.array([0]), None)
        assert m.records[-1].kind == "mystery"
        with pytest.raises(ValueError, match="mystery"):
            evaluate_cost(m, machine())
        with pytest.raises(ValueError, match="mystery"):
            price_record(StepRecord(kind="mystery", comp_max=1), machine())

    def test_as_row(self):
        cost = evaluate_cost(metrics(), machine())
        assert {"total_s", "bkt_s", "other_s"} <= set(cost.as_row())


class TestSimulatedGteps:
    def test_graph500_convention(self):
        m = metrics()
        tw = np.zeros(8)
        tw[0] = 1000
        m.add_compute(ComputeKind.BF_RELAX, tw)
        t = evaluate_cost(m, machine()).total_time
        assert simulated_gteps(10_000, m, machine()) == pytest.approx(
            10_000 / t / 1e9
        )

    def test_zero_time_edge_case(self):
        assert simulated_gteps(10, metrics(), machine()) == float("inf")
        assert simulated_gteps(0, metrics(), machine()) == 0.0

    def test_pruning_raises_gteps(self):
        # same edge count, fewer relaxations -> higher TEPS
        m_full, m_pruned = metrics(), metrics()
        tw = np.zeros(8)
        tw[0] = 1000
        m_full.add_compute(ComputeKind.BF_RELAX, tw)
        tw2 = np.zeros(8)
        tw2[0] = 100
        m_pruned.add_compute(ComputeKind.BF_RELAX, tw2)
        assert simulated_gteps(10_000, m_pruned, machine()) > simulated_gteps(
            10_000, m_full, machine()
        )
