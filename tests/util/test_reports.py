"""Unit tests for JSON result reports."""

import json

import pytest

from repro.bfs import run_bfs
from repro.core.solver import solve_sssp
from repro.util.reports import bfs_report, dump_json, sssp_report


@pytest.fixture(scope="module")
def sssp_result(rmat1_small):
    return solve_sssp(rmat1_small, 3, algorithm="opt", delta=25,
                      num_ranks=4, threads_per_rank=2)


class TestSsspReport:
    def test_round_trips_through_json(self, sssp_result):
        report = sssp_report(sssp_result)
        parsed = json.loads(dump_json(report))
        assert parsed == report

    def test_key_content(self, sssp_result):
        report = sssp_report(sssp_result)
        assert report["kind"] == "sssp"
        assert report["gteps"] == pytest.approx(sssp_result.gteps)
        assert report["metrics"]["relaxations"] == (
            sssp_result.metrics.total_relaxations
        )
        assert report["config"]["delta"] == 25
        assert report["machine"]["num_ranks"] == 4

    def test_no_distance_payload(self, sssp_result):
        report = sssp_report(sssp_result)
        text = dump_json(report)
        # reports stay small: no per-vertex arrays
        assert len(text) < 10_000

    def test_undefined_numbers_are_null(self):
        # strict JSON: an empty window's percentile (NaN) or an unpriced
        # ratio (inf) is written as null, never NaN/Infinity
        text = dump_json({"p50_s": float("nan"), "rows": [{"rel": float("inf")}]})
        assert json.loads(text, parse_constant=pytest.fail) == {
            "p50_s": None, "rows": [{"rel": None}]}

    def test_write_to_file(self, tmp_path, sssp_result):
        path = tmp_path / "report.json"
        dump_json(sssp_report(sssp_result), path)
        parsed = json.loads(path.read_text())
        assert parsed["kind"] == "sssp"


class TestBfsReport:
    def test_content(self, rmat1_small):
        res = run_bfs(rmat1_small, 3, num_ranks=2, threads_per_rank=2)
        report = bfs_report(res)
        json.loads(dump_json(report))
        assert report["kind"] == "bfs"
        assert report["levels"] == res.num_levels
        assert len(report["directions"]) == res.num_levels


class TestCliJson:
    def test_solve_json_stdout(self, capsys):
        from repro.cli import main

        rc = main(["solve", "--scale", "8", "--ranks", "2", "--threads", "2",
                   "--json", "-"])
        assert rc == 0
        out = capsys.readouterr().out
        start = out.index("{")
        parsed = json.loads(out[start:])
        assert parsed["kind"] == "sssp"

    def test_solve_json_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "r.json"
        rc = main(["solve", "--scale", "8", "--ranks", "2", "--threads", "2",
                   "--json", str(path)])
        assert rc == 0
        assert json.loads(path.read_text())["kind"] == "sssp"
