"""Trace exporters: JSONL round-trip, Perfetto validity, Prometheus file."""

import json

import pytest

from repro.cli import main
from repro.core.solver import solve_sssp
from repro.obs.export import (
    perfetto_trace,
    validate_jsonl,
    validate_perfetto,
    validate_trace_file,
)
from repro.obs.report import load_trace, render_report
from repro.obs.tracer import TraceConfig
from repro.runtime.machine import MachineConfig


@pytest.fixture()
def machine():
    return MachineConfig(num_ranks=4, threads_per_rank=4)


def _traced_solve(graph, machine, **cfg_kwargs):
    return solve_sssp(
        graph, 3, algorithm="opt", delta=25, machine=machine,
        trace=TraceConfig(**cfg_kwargs),
    )


class TestJsonl:
    def test_round_trip_through_report(self, rmat1_small, machine, tmp_path):
        path = tmp_path / "run.jsonl"
        res = _traced_solve(rmat1_small, machine, path=str(path))
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        assert validate_jsonl(lines) == []
        assert lines[0]["type"] == "meta"
        assert lines[-1]["type"] == "summary"

        trace = load_trace(str(path))
        assert trace.format == "jsonl"
        assert len(trace.records) == len(res.metrics.records)
        report = render_report(trace)
        assert "trace report:" in report
        assert "time by phase:" in report  # wall vs. simulated, per phase

    def test_trace_report_cli(self, rmat1_small, machine, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        _traced_solve(rmat1_small, machine, path=str(path))
        assert main(["trace-report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "trace report:" in out
        assert "per-rank simulated busy time" in out

    def test_trace_report_validate_cli(self, rmat1_small, machine, tmp_path,
                                       capsys):
        path = tmp_path / "run.jsonl"
        _traced_solve(rmat1_small, machine, path=str(path))
        assert main(["trace-report", str(path), "--validate"]) == 0
        assert "OK (jsonl)" in capsys.readouterr().out

    def test_validate_rejects_garbage(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("not json\n")
        assert main(["trace-report", str(path), "--validate"]) == 1
        assert "INVALID" in capsys.readouterr().out


class TestPerfetto:
    def test_file_is_valid_trace_events_json(self, rmat1_small, machine,
                                             tmp_path):
        path = tmp_path / "run.perfetto.json"
        res = _traced_solve(
            rmat1_small, machine, path=str(path), format="perfetto"
        )
        data = json.loads(path.read_text())
        assert validate_perfetto(data) == []
        assert data["otherData"]["num_ranks"] == machine.num_ranks

        events = data["traceEvents"]
        for ev in events:
            assert ev["ph"] in ("X", "M", "i")
            if ev["ph"] == "X":
                assert ev["dur"] >= 0
                assert {"name", "pid", "tid", "ts"} <= set(ev)

        # One metadata track per simulated rank on the ranks process.
        rank_threads = [
            ev for ev in events
            if ev["ph"] == "M" and ev.get("name") == "thread_name"
            and ev["pid"] == 2
        ]
        assert len(rank_threads) == machine.num_ranks

        process_names = {
            ev["args"]["name"]
            for ev in events
            if ev["ph"] == "M" and ev.get("name") == "process_name"
        }
        assert process_names == {
            "wall clock (measured)",
            "cost model (simulated)",
            "simulated ranks",
        }

        # Per-rank slices cover every record with positive per-rank time.
        rank_slices = [
            ev for ev in events if ev["ph"] == "X" and ev["pid"] == 2
        ]
        expected = sum(
            sum(1 for x in e["rank_sim"] if x > 0)
            for e in res.trace.events
            if e["type"] == "record"
        )
        assert len(rank_slices) == expected

    def test_load_trace_reads_perfetto_back(self, rmat1_small, machine,
                                            tmp_path):
        path = tmp_path / "run.perfetto.json"
        _traced_solve(rmat1_small, machine, path=str(path), format="perfetto")
        trace = load_trace(str(path))
        assert trace.format == "perfetto"
        assert trace.spans and trace.records
        assert "trace report:" in render_report(trace)

    def test_validate_trace_file_detects_format(self, rmat1_small, machine,
                                                tmp_path):
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.json"
        _traced_solve(rmat1_small, machine, path=str(p1))
        _traced_solve(rmat1_small, machine, path=str(p2), format="perfetto")
        assert validate_trace_file(str(p1)) == ("jsonl", [])
        assert validate_trace_file(str(p2)) == ("perfetto", [])

    def test_in_memory_perfetto_export(self, rmat1_small, machine):
        res = _traced_solve(rmat1_small, machine)
        data = perfetto_trace(res.trace)
        assert validate_perfetto(data) == []


class TestMetricsOut:
    def test_prometheus_file_written(self, rmat1_small, machine, tmp_path):
        path = tmp_path / "metrics.prom"
        res = _traced_solve(rmat1_small, machine, metrics_path=str(path))
        text = path.read_text()
        assert "# TYPE sssp_records_total counter" in text
        assert "# TYPE sssp_wall_seconds gauge" in text
        assert "sssp_epoch_wall_seconds_bucket" in text
        assert res.trace.artifacts["metrics"] == str(path)

    def test_solve_cli_writes_artifacts(self, tmp_path, capsys):
        trace = tmp_path / "cli.jsonl"
        prom = tmp_path / "cli.prom"
        rc = main([
            "solve", "--scale", "9", "--ranks", "2", "--threads", "2",
            "--trace", str(trace), "--metrics-out", str(prom),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"trace written to {trace}" in out
        assert f"metrics written to {prom}" in out
        assert trace.exists() and prom.exists()


def _refuse(constant: str):
    raise ValueError(f"non-standard JSON constant {constant}")


class TestStrictJson:
    """Every artifact parses under a strict parser (as Node's
    ``JSON.parse`` and ui.perfetto.dev do): no ``Infinity`` or ``NaN``."""

    def test_one_rank_traced_solve_writes_strict_json(self, tmp_path, capsys):
        # one rank: every exchange is priced at zero simulated seconds
        # the format follows the path: '*.json' is Perfetto, any other JSONL
        files = {"jsonl": tmp_path / "run.jsonl", "perfetto": tmp_path / "run.json"}
        for fmt, trace in files.items():
            report = tmp_path / f"report.{fmt}.json"
            assert main([
                "solve", "--scale", "8", "--ranks", "1", "--threads", "2",
                "--trace", str(trace), "--json", str(report),
            ]) == 0
            parsed = json.loads(report.read_text(), parse_constant=_refuse)
            assert set(parsed["trace"]) == {
                "artifacts", "wall_total_s", "sim_total_s"}
        assert "trace written to" in capsys.readouterr().out
        for line in files["jsonl"].read_text().splitlines():
            json.loads(line, parse_constant=_refuse)
        json.loads(files["perfetto"].read_text(), parse_constant=_refuse)
