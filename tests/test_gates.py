"""benchmarks/gates.py: the paired runner and the verdict rules, no timing.

Stub shapes stand in for brokers and a canned stack result document for a
benchmark run, so every case here is a function of its literals.
"""

import dataclasses
import json

import pytest

from benchmarks import gates
from benchmarks.gates import (
    GATES,
    NotBitIdentical,
    judge_paired,
    paired_overhead,
    read_document,
)


def shape(log, side, throughput=100.0, answers="same"):
    def trial():
        log.append(side)
        return throughput, answers

    return trial


def record(workload, metric, value, *, samples=8, not_executed=(), traced=True):
    return {
        "workload": workload,
        "traced": traced,
        "samples": {metric: samples} if samples is not None else {},
        "not_executed": list(not_executed),
        "result": {"metrics": {metric: {"value": value, "unit": "x"}}},
    }


def stack_document(*records):
    return {"schema": "stack-bench/1", "fingerprint": {"host": "canned"},
            "runs": list(records)}


class TestPairedOverhead:
    def test_order_alternates_after_one_warm_up(self):
        log = []
        off, on, ratios = paired_overhead(
            shape(log, "off", 100.0), shape(log, "on", 90.0),
            expected="same", rounds=10,
        )
        assert log[0] == "off"  # untimed: not among the samples
        rounds = [tuple(log[i : i + 2]) for i in range(1, len(log), 2)]
        assert rounds == [("off", "on"), ("on", "off")] * 5
        assert (len(off), len(on)) == (10, 10)
        assert ratios == [0.9] * 10

    def test_fewer_than_ten_rounds_rejected(self):
        log = []
        with pytest.raises(ValueError, match=">= 10 rounds"):
            paired_overhead(shape(log, "off"), shape(log, "on"),
                            expected="same", rounds=9)
        assert log == []

    def test_armed_round_not_bit_identical_fails_whatever_the_timing(self):
        log = []
        with pytest.raises(NotBitIdentical, match="on shape"):
            paired_overhead(
                shape(log, "off", 100.0),
                shape(log, "on", 1e9, answers="different"),
                expected="same", rounds=10,
            )

    def test_default_rounds_at_least_the_minimum(self):
        assert gates.ROUNDS >= gates.MIN_ROUNDS == 10


class TestJudgePaired:
    GATE = GATES["resilience-armed"]

    def judge(self, ratios, gate=None):
        off = [100.0] * len(ratios)
        return judge_paired(gate or self.GATE, off, [r * 100.0 for r in ratios], ratios)

    def test_even_count_takes_the_mean_of_the_two_middles(self):
        ratios = [0.90, 0.92, 0.94, 0.96, 0.98, 1.00, 1.02, 1.04, 1.06, 1.08]
        assert self.judge(ratios)["value"] == pytest.approx(0.99)

    def test_quiet_rounds_within_the_ceiling(self):
        result = self.judge([0.990, 0.991, 0.992, 0.993, 0.994] * 2)
        assert result["verdict"] == "within-bound"
        assert result["comparison"]["change"] == pytest.approx(0.008)

    def test_median_past_the_ceiling_is_a_regression(self):
        assert self.judge([0.97] * 10)["verdict"] == "regression"

    def test_spread_wider_than_the_ceiling_is_unresolved(self):
        result = self.judge([0.90, 0.95, 0.99, 1.0, 1.0, 1.0, 1.0, 1.01, 1.05, 1.1])
        assert result["verdict"] == "unresolved"

    def test_speed_up_gate_is_held_to_its_multiple(self):
        gate = GATES["batching-cache"]
        assert self.judge([4.0] * 10, gate)["verdict"] in ("within-bound", "gain")
        assert self.judge([1.05] * 10, gate)["verdict"] == "regression"

    def test_no_ceiling_is_recorded_not_judged(self):
        result = self.judge([0.5] * 10, GATES["paranoid-guards"])
        assert result["verdict"] == "recorded" and result["value"] == 0.5

    def test_raw_samples_of_both_sides_are_kept(self):
        result = self.judge([0.99] * 10)
        assert set(result["samples"]) == {"off_qps", "on_qps", "ratios"}
        assert all(len(v) == 10 for v in result["samples"].values())


class TestReadDocument:
    TRACE = GATES["trace-overhead"]
    REPAIR = GATES["repair-vs-fresh"]

    def test_value_under_the_ceiling(self):
        doc = stack_document(record("cold_rmat", self.TRACE.metric, 2.17))
        result = read_document(self.TRACE, doc)
        assert (result["value"], result["verdict"]) == (2.17, "within-bound")
        assert result["samples"] == {"cold_rmat": [2.17]}

    def test_value_over_the_ceiling(self):
        doc = stack_document(record("cold_rmat", self.TRACE.metric, 3.2))
        assert read_document(self.TRACE, doc)["verdict"] == "regression"

    def test_strict_ceiling_is_not_reached(self):
        at = stack_document(record("serve_churn", self.REPAIR.metric, 0.15))
        under = stack_document(record("serve_churn", self.REPAIR.metric, 0.14))
        assert read_document(self.REPAIR, at)["verdict"] == "regression"
        assert read_document(self.REPAIR, under)["verdict"] == "within-bound"

    @pytest.mark.parametrize("broken", [
        {"not_executed": ["obs.trace_solve_overhead_ratio"]},
        {"samples": 0},
        {"samples": None},
        {"traced": False},
    ])
    def test_unmeasured_metric_is_missing_not_zero(self, broken):
        doc = stack_document(record("cold_rmat", self.TRACE.metric, 0.0, **broken))
        result = read_document(self.TRACE, doc)
        assert (result["value"], result["verdict"]) == (None, "missing")

    def test_absent_workload_is_missing(self):
        doc = stack_document(record("cold_grid", self.TRACE.metric, 1.0))
        assert read_document(self.TRACE, doc)["verdict"] == "missing"

    def test_ratio_of_two_workloads_medians_over_repeats(self):
        gate = GATES["hit-vs-cold"]
        doc = stack_document(
            record("serve_hot", gate.metric, 0.04),
            record("serve_hot", gate.metric, 0.06),
            record("serve_cold", gate.metric, 10.0),
        )
        result = read_document(gate, doc)
        assert result["value"] == pytest.approx(0.005)
        assert result["verdict"] == "within-bound"
        assert result["samples"] == {"serve_hot": [0.04, 0.06], "serve_cold": [10.0]}

    def test_ratio_of_two_metrics_of_one_run_is_recorded(self):
        """...and, since the PR 20 re-anchor gave it a ceiling, judged."""
        gate = GATES["update-vs-fresh"]
        assert gate.source == "dynamic.update_ms_p50@serve_churn / serve.engine_ms_p50@serve_churn"
        assert gate.workloads == ("serve_churn",)
        run = record("serve_churn", gate.metric, 12.0)
        run["samples"][gate.over_metric] = 8
        run["result"]["metrics"][gate.over_metric] = {"value": 3.0, "unit": "ms"}
        result = read_document(gate, stack_document(run))
        assert (result["value"], result["verdict"]) == (4.0, "within-bound")
        assert result["samples"] == {"serve_churn": [12.0], gate.over_metric: [3.0]}
        unjudged = dataclasses.replace(gate, ceiling=None)
        assert read_document(unjudged, stack_document(run))["verdict"] == "recorded"
        run["result"]["metrics"][gate.metric]["value"] = 13.8  # 4.6 fresh solves
        assert read_document(gate, stack_document(run))["verdict"] == "regression"
        run["result"]["metrics"][gate.metric]["value"] = 12.0
        run["samples"][gate.over_metric] = 0  # a denominator nobody sampled
        result = read_document(gate, stack_document(run))
        assert (result["value"], result["verdict"]) == (None, "missing")
        assert gate.over_metric in result["why"]

    def test_churn_miss_cost_is_recorded_in_fresh_solves(self):
        gate = GATES["churn-miss-vs-fresh"]
        assert gate.source == "bench.op_ms_p50@serve_churn / serve.engine_ms_p50@serve_churn"
        assert (gate.workloads, gate.ci_job) == (("serve_churn",), "dynamic-smoke")
        run = record("serve_churn", gate.metric, 6.0)
        run["samples"][gate.over_metric] = 8
        run["result"]["metrics"][gate.over_metric] = {"value": 12.0, "unit": "ms"}
        result = read_document(gate, stack_document(run))
        assert (result["value"], result["verdict"]) == (0.5, "within-bound")
        assert result["samples"] == {"serve_churn": [6.0], gate.over_metric: [12.0]}
        unjudged = dataclasses.replace(gate, ceiling=None)
        assert read_document(unjudged, stack_document(run))["verdict"] == "recorded"
        # held to 1.30 fresh solves: 1.25 passes, a solve and a third fails
        run["result"]["metrics"][gate.metric]["value"] = 15.0
        assert read_document(gate, stack_document(run))["verdict"] == "within-bound"
        run["result"]["metrics"][gate.metric]["value"] = 16.0
        assert read_document(gate, stack_document(run))["verdict"] == "regression"
        run["result"]["metrics"][gate.metric]["value"] = 6.0
        run["samples"][gate.over_metric] = 0  # every miss repaired: no fresh solve
        assert read_document(gate, stack_document(run))["verdict"] == "missing"

    def test_no_ceiling_is_recorded(self):
        gate = GATES["checkpoint-overhead"]
        doc = stack_document(record("cold_spmd", gate.metric, 4.3))
        assert read_document(gate, doc)["verdict"] == "recorded"

    def test_rank_driver_ratio_is_recorded_beside_it(self):
        """...and held to the ceiling the one-key mailbox earned: its smoke
        readings (1.23–1.33) pass, every reading of the drain-and-route
        mailbox before it (1.35–1.64) is a regression now."""
        gate = GATES["spmd-vs-orchestrated"]
        assert gate.source == "spmd.vs_orchestrated_ratio@cold_spmd"
        assert gate.ci_job == GATES["checkpoint-overhead"].ci_job == "obs-smoke"
        for value, verdict in [(1.23, "within-bound"), (1.34, "within-bound"),
                               (1.35, "regression"), (2.5, "regression")]:
            doc = stack_document(record("cold_spmd", gate.metric, value))
            result = read_document(gate, doc)
            assert (result["value"], result["verdict"]) == (value, verdict)

    def test_grid_epoch_cost_is_recorded_in_scipy_solves(self):
        gate = GATES["grid-epoch-cost"]
        assert gate.source == "core.ms_per_bucket@cold_grid / bench.scipy_ms_p50@cold_grid"
        assert (gate.workloads, gate.ci_job) == (("cold_grid",), "obs-smoke")
        # The benchmark publishes ms_per_bucket without a sample count (a
        # quotient of exact counts); the SciPy time it is divided by has one.
        run = record("cold_grid", gate.metric, 0.45, samples=None)
        run["samples"][gate.over_metric] = 13
        run["result"]["metrics"][gate.over_metric] = {"value": 0.9, "unit": "ms"}
        result = read_document(gate, stack_document(run))
        assert (result["value"], result["verdict"]) == (0.5, "within-bound")
        assert result["samples"] == {"cold_grid": [0.45], gate.over_metric: [0.9]}
        unjudged = dataclasses.replace(gate, ceiling=None)
        assert read_document(unjudged, stack_document(run))["verdict"] == "recorded"
        run["result"]["metrics"][gate.metric]["value"] = 1.89  # 2.1 SciPy solves
        assert read_document(gate, stack_document(run))["verdict"] == "regression"
        run["result"]["metrics"][gate.metric]["value"] = 1.17  # 1.3 SciPy solves
        assert read_document(gate, stack_document(run))["verdict"] == "regression"
        run["result"]["metrics"][gate.metric]["value"] = 0.45
        run["samples"][gate.over_metric] = 0
        assert read_document(gate, stack_document(run))["verdict"] == "missing"
        run["samples"][gate.over_metric] = 13
        run["not_executed"] = [gate.metric]
        assert read_document(gate, stack_document(run))["verdict"] == "missing"


class TestGateTable:
    def test_each_ceiling_stated_once_and_unchanged(self):
        held_to = {
            name: (getattr(g, "against", None), g.ceiling) for name, g in GATES.items()
        }
        assert held_to == {
            "trace-overhead": (None, 3.0),
            "checkpoint-overhead": (None, None),
            "spmd-vs-orchestrated": (None, 1.34),
            "grid-epoch-cost": (None, 1.20),
            "hit-vs-cold": (None, 0.5),
            "repair-vs-fresh": (None, 0.15),
            "update-vs-fresh": (None, 4.5),
            "churn-miss-vs-fresh": (None, 1.30),
            "batching-cache": (1.10, 0.0),
            "resilience-armed": (1.0, 0.02),
            "paranoid-guards": (1.0, None),
            "events-armed": (1.0, 0.02),
        }
        assert GATES["repair-vs-fresh"].strict
        assert {g.kind for g in GATES.values()} == {"from_document", "paired"}


class TestExitCodes:
    """``main`` with the paired trials replaced by canned ratios."""

    @pytest.fixture()
    def run(self, monkeypatch, tmp_path, capsys):
        def run(names, ratios=None, doc=None):
            monkeypatch.setattr(
                gates, "run_paired",
                lambda gate: judge_paired(
                    gate, [1.0] * len(ratios), list(ratios), list(ratios)),
            )
            argv = list(names) + ["--out", str(tmp_path / "gates.json")]
            if doc is not None:
                (tmp_path / "doc.json").write_text(json.dumps(doc))
                argv += ["--doc", str(tmp_path / "doc.json")]
            code = gates.main(argv)
            written = json.loads((tmp_path / "gates.json").read_text())
            return code, capsys.readouterr().out, written

        return run

    def test_regression_exits_1(self, run):
        code, out, written = run(["events-armed"], [0.95] * 10)
        assert code == 1 and "regression" in out
        assert written["gates"]["events-armed"]["verdict"] == "regression"

    def test_unresolved_exits_0_and_is_printed(self, run):
        code, out, written = run(
            ["events-armed"], [0.90, 0.95, 0.99, 1.0, 1.0, 1.0, 1.0, 1.01, 1.05, 1.1])
        assert code == 0 and "unresolved" in out and "OK" not in out
        assert written["gates"]["events-armed"]["verdict"] == "unresolved"

    def test_within_bound_exits_0(self, run):
        code, out, _ = run(["events-armed"], [0.995] * 10)
        assert code == 0 and "within-bound" in out

    def test_missing_metric_exits_1(self, run):
        metric = GATES["repair-vs-fresh"].metric
        doc = stack_document(record("serve_churn", metric, 0.0, not_executed=[metric]))
        code, out, written = run(["repair-vs-fresh"], doc=doc)
        assert code == 1 and "missing" in out
        assert written["gates"]["repair-vs-fresh"]["value"] is None

    def test_document_carries_fingerprint_kind_source_ceiling(self, run):
        metric = GATES["trace-overhead"].metric
        doc = stack_document(record("cold_rmat", metric, 1.4))
        code, _, written = run(["trace-overhead", "resilience-armed"], [1.0] * 10, doc)
        assert code == 0
        assert {"host", "commit", "cpus"} <= set(written["fingerprint"])
        assert written["document_fingerprint"] == {"host": "canned"}
        gate = written["gates"]["trace-overhead"]
        assert (gate["kind"], gate["ceiling"], gate["ci_job"]) == (
            "from_document", 3.0, "obs-smoke")
        assert gate["source"] == "obs.trace_solve_overhead_ratio@cold_rmat"
        assert written["gates"]["resilience-armed"]["kind"] == "paired"

    def test_unknown_gate_is_a_usage_error(self, run):
        with pytest.raises(SystemExit) as exc:
            run(["no-such-gate"], [1.0] * 10)
        assert exc.value.code == 2
