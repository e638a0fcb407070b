"""What ``serve-bench`` shows of a served run: its report tables.

A run's traffic, per-source latency, cache, resilience and live-graph
rows are printed once, after the workload drains, from the same report
the ``--json`` document holds; the SLO verdict decides the exit status.
Each run below is made once per module through ``main([...])``.
"""

import contextlib
import io
import json

import pytest

from repro.cli import main

BASE = ["serve-bench", "--scale", "9", "--ranks", "2", "--threads", "2",
        "--requests", "20", "--workers", "0", "--root-universe", "4",
        "--concurrency", "1"]

RUNS = {
    "plain": [],
    "resilient": ["--chaos", "error=0.3,clean-after=2,seed=3",
                  "--retries", "3", "--retry-backoff-ms", "0"],
    "no-cache": ["--cache-mb", "0"],
    "slo": ["--slo-min-hit-rate", "1.5"],
}

TABLES = ("traffic", "latency (ms)", "distance cache")


def _refuse(constant: str):
    raise ValueError(f"non-standard JSON constant {constant}")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``{name: (exit status, stdout, stderr, strict-parsed report)}``."""
    out = {}
    for name, extra in RUNS.items():
        path = tmp_path_factory.mktemp(name) / "report.json"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(BASE + extra + ["--json", str(path)])
        report = json.loads(path.read_text(), parse_constant=_refuse)
        out[name] = rc, stdout.getvalue(), stderr.getvalue(), report
    return out


def _table(stdout: str, title: str) -> dict[str, str]:
    """The one-row table ``title`` as ``{column: cell}``."""
    lines = stdout.splitlines()
    at = lines.index(title)
    return dict(zip(lines[at + 1].split(), lines[at + 3].split()))


class TestSnapshot:
    def test_rates_from_report_when_no_prev(self, runs):
        _, stdout, _, report = runs["plain"]
        row = _table(stdout, "traffic")
        assert row["offered"] == row["completed"] == "20"
        assert row["shed"] == "0"
        assert (report["offered"], report["completed"], report["shed"]) == (
            20, 20, 0)

    def test_instantaneous_qps_from_prev_delta(self, runs):
        report = runs["plain"][3]
        assert report["throughput_qps"] == pytest.approx(
            report["completed"] / report["wall_s"])

    def test_latency_by_source(self, runs):
        _, stdout, _, report = runs["plain"]
        row = _table(stdout, "latency (ms)")
        for source in ("cache", "solve"):
            key = f"p50_{source}_s"
            assert row[key] == f"{report[key] * 1e3:.3f}"
        assert "p50_degraded_s" not in row

    def test_optional_sections_default_empty(self, runs):
        stdout = runs["plain"][1]
        assert "resilience" not in stdout.splitlines()
        assert "live graph" not in stdout.splitlines()

    def test_full_sections(self, runs):
        rc, stdout, _, report = runs["resilient"]
        assert rc == 0
        row = _table(stdout, "resilience")
        assert int(row["retries"]) == report["retries"] > 0
        outcomes = {k for k in report if k.startswith("outcome_")}
        assert outcomes and outcomes <= set(row)


class TestRender:
    def test_render_contains_all_sections(self, runs):
        lines = runs["plain"][1].splitlines()
        assert lines[0].startswith("graph: ")
        at = [lines.index(title) for title in TABLES]
        assert at == sorted(at)

    def test_render_empty_broker(self, runs):
        # no cache: no request is served from it, and no cache column
        _, stdout, _, report = runs["no-cache"]
        assert "p50_cache_s" not in _table(stdout, "latency (ms)")
        assert "outcome_cache" not in report
        assert report["cache_hit_rate"] == 0.0

    def test_nan_burn_renders_as_na(self, capsys, runs):
        # '--json -' prints the report after the tables as strict JSON
        # (a non-finite value would be null): the file form's counters
        assert main(BASE + ["--json", "-"]) == 0
        stdout = capsys.readouterr().out
        text = stdout[stdout.index("\n{") + 1:]
        report = json.loads(text, parse_constant=_refuse)
        plain = runs["plain"][3]
        for key in ("offered", "completed", "shed", "batches", "solves",
                    "outcome_cache", "outcome_solve", "cache_hit_rate"):
            assert report[key] == plain[key], key

    def test_alert_line_rendered(self, runs):
        rc, _, stderr, report = runs["slo"]
        assert rc == 1
        assert stderr == (
            f"SLO VIOLATION: cache_hit_rate {report['cache_hit_rate']:.3f} "
            "< SLO 1.500\n")


class TestRun:
    def test_fixed_frames_without_clear(self, runs):
        stdout = runs["plain"][1]
        for title in TABLES:
            assert stdout.splitlines().count(title) == 1

    def test_clear_mode_prefixes_ansi(self, runs):
        for _, stdout, stderr, _ in runs.values():
            assert stdout.startswith("graph: ")
            assert "\x1b" not in stdout + stderr

    def test_should_stop_ends_loop(self, runs):
        # serve-bench returns once the workload has drained
        for name, (_, _, _, report) in runs.items():
            assert report["queue_depth"] == 0, name
            assert report["completed"] == report["offered"], name
