"""Unit tests for the span tracer: nesting, clocks, record attribution."""

import pytest

from repro.core.solver import solve_sssp
from repro.obs.tracer import Tracer, TraceConfig
from repro.runtime.costmodel import evaluate_cost
from repro.runtime.machine import MachineConfig


@pytest.fixture()
def machine():
    return MachineConfig(num_ranks=4, threads_per_rank=4)


@pytest.fixture()
def traced_run(rmat1_small, machine):
    res = solve_sssp(
        rmat1_small, 3, algorithm="opt", delta=25, machine=machine,
        trace=TraceConfig(path=None),
    )
    assert res.trace is not None and res.trace.finished
    return res


class TestConfig:
    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            TraceConfig(format="xml")

    def test_disabled_config_means_no_tracer(self, rmat1_small, machine):
        res = solve_sssp(
            rmat1_small, 3, algorithm="opt", delta=25, machine=machine,
            trace=None,
        )
        assert res.trace is None


class TestSpans:
    def test_parent_contains_children(self, traced_run):
        spans = [e for e in traced_run.trace.events if e["type"] == "span"]
        stack = []
        for span in spans:
            while stack and span["depth"] <= stack[-1]["depth"]:
                stack.pop()
            if stack:
                parent = stack[-1]
                assert span["ts"] >= parent["ts"]
                assert (
                    span["ts"] + span["dur"]
                    <= parent["ts"] + parent["dur"] + 1e-9
                )
            stack.append(span)

    def test_every_span_closed(self, traced_run):
        for span in traced_run.trace.events:
            if span["type"] == "span":
                assert span["dur"] is not None and span["dur"] >= 0
                assert span["sim_dur"] is not None and span["sim_dur"] >= 0

    def test_solve_span_is_root(self, traced_run):
        spans = [e for e in traced_run.trace.events if e["type"] == "span"]
        assert spans[0]["name"] == "solve"
        assert spans[0]["depth"] == 0
        assert spans[0]["args"]["engine"] == "core-delta"

    def test_end_closes_orphaned_children(self, machine):
        tr = Tracer(machine, TraceConfig())
        outer = tr.begin("outer")
        inner = tr.begin("inner")
        tr.end(outer)  # inner never explicitly ended
        assert inner["dur"] is not None
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-9

    def test_end_is_idempotent(self, machine):
        tr = Tracer(machine, TraceConfig())
        span = tr.begin("s")
        tr.end(span, marker=1)
        dur = span["dur"]
        tr.end(span, marker=2)
        assert span["dur"] == dur
        assert span["args"]["marker"] == 1

    def test_span_context_manager(self, machine):
        tr = Tracer(machine, TraceConfig())
        with tr.span("cm") as ev:
            pass
        assert ev["dur"] is not None


class TestClocks:
    def test_record_timestamps_monotone(self, traced_run):
        records = [e for e in traced_run.trace.events if e["type"] == "record"]
        assert records, "traced solve produced no records"
        for a, b in zip(records, records[1:]):
            assert b["ts"] >= a["ts"]
            assert b["sim_ts"] >= a["sim_ts"]
        for rec in records:
            assert rec["sim_dt"] >= 0
            assert rec["wall_dt"] >= 0

    def test_sim_clock_matches_cost_model(self, traced_run, machine):
        total = evaluate_cost(traced_run.metrics, machine).total_time
        assert traced_run.trace.sim_t == pytest.approx(total, rel=1e-12)

    def test_one_record_event_per_step_record(self, traced_run):
        records = [e for e in traced_run.trace.events if e["type"] == "record"]
        assert len(records) == len(traced_run.metrics.records)

    def test_rank_sim_has_one_entry_per_rank(self, traced_run, machine):
        for rec in traced_run.trace.events:
            if rec["type"] == "record":
                assert len(rec["rank_sim"]) == machine.num_ranks


class TestRegistryAndDrift:
    def test_counters_match_metrics(self, traced_run):
        snap = traced_run.trace.registry.snapshot()
        per_kind = [
            v for k, v in snap.items() if k.startswith("sssp_records_total{")
        ]
        assert sum(per_kind) == len(traced_run.metrics.records)
        assert snap["sssp_bytes_total"] == traced_run.metrics.total_bytes

    def test_summary_gauges_present(self, traced_run):
        snap = traced_run.trace.registry.snapshot()
        assert snap["sssp_relaxations"] == traced_run.metrics.total_relaxations
        assert snap["sssp_simulated_seconds"] == pytest.approx(
            traced_run.trace.sim_t
        )

    def test_per_kind_counters_cover_every_kind(self, traced_run):
        kinds = {
            e["kind"]
            for e in traced_run.trace.events
            if e["type"] == "record"
        }
        cut = traced_run.trace.registry.read(
            "sssp_records_total", "sssp_wall_seconds_total",
            "sssp_sim_seconds_total")
        for series in cut.values():
            assert {dict(key)["kind"] for key in series} == kinds
