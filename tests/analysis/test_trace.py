"""The priced execution timeline: one record event per step record.

The tracer (:mod:`repro.obs.tracer`) emits every
:class:`~repro.runtime.metrics.StepRecord` as a ``record`` event priced by
:func:`~repro.runtime.costmodel.price_record` — the rule
:func:`~repro.runtime.costmodel.evaluate_cost` folds with — so the
timeline's totals must land on the cost model's for every preset.
"""

import pytest

from repro.core.solver import solve_sssp
from repro.obs.tracer import TraceConfig, Tracer
from repro.runtime.costmodel import evaluate_cost
from repro.runtime.machine import MachineConfig


def timeline(result) -> list[dict]:
    return [e for e in result.trace.events if e["type"] == "record"]


def time_by_phase_kind(result) -> dict[str, float]:
    out: dict[str, float] = {}
    for row in timeline(result):
        out[row["phase"]] = out.get(row["phase"], 0.0) + row["sim_dt"]
    return out


@pytest.fixture(scope="module")
def run(rmat1_small):
    machine = MachineConfig(num_ranks=4, threads_per_rank=4)
    res = solve_sssp(
        rmat1_small, 3, algorithm="opt", delta=25, machine=machine,
        trace=TraceConfig(),
    )
    return res, machine


class TestTimeline:
    def test_one_row_per_record(self, run):
        res, _ = run
        rows = timeline(res)
        assert len(rows) == len(res.metrics.records)
        assert [r["step"] for r in rows] == list(range(len(rows)))

    def test_cumulative_time_matches_cost_model(self, run):
        res, machine = run
        last = timeline(res)[-1]
        total = evaluate_cost(res.metrics, machine).total_time
        assert last["sim_ts"] + last["sim_dt"] == pytest.approx(total)

    def test_costs_nonnegative_and_monotone(self, run):
        res, _ = run
        rows = timeline(res)
        assert all(r["sim_dt"] >= 0 for r in rows)
        ts = [r["sim_ts"] for r in rows]
        assert all(b >= a for a, b in zip(ts, ts[1:]))

    def test_empty_metrics(self):
        machine = MachineConfig(num_ranks=1, threads_per_rank=1)
        tracer = Tracer(machine, TraceConfig())
        assert tracer.events == [] and tracer.sim_t == 0.0


class TestAggregation:
    def test_phase_kinds_partition_total(self, run):
        res, machine = run
        total = evaluate_cost(res.metrics, machine).total_time
        assert sum(time_by_phase_kind(res).values()) == pytest.approx(total)

    def test_bucket_share_matches_cost_breakdown(self, run):
        res, machine = run
        cost = evaluate_cost(res.metrics, machine)
        assert time_by_phase_kind(res).get("bucket", 0.0) == pytest.approx(
            cost.bucket_time
        )


class TestPriceRecordConsistency:
    """The tracer and the cost model share price_record — the simulated
    clock must land exactly on the cost model's total for every preset."""

    @pytest.mark.parametrize(
        "algorithm", ["dijkstra", "bellman-ford", "delta", "prune", "opt",
                      "lb-opt"]
    )
    def test_timeline_total_matches_cost_model(self, rmat1_small, algorithm):
        machine = MachineConfig(num_ranks=4, threads_per_rank=4)
        res = solve_sssp(
            rmat1_small, 3, algorithm=algorithm, delta=25, machine=machine,
            trace=TraceConfig(),
        )
        total = evaluate_cost(res.metrics, machine).total_time
        assert res.trace.sim_t == pytest.approx(total, rel=1e-12)
