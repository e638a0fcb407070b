"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.command == "solve"
        assert args.algorithm == "opt"
        assert args.scale == 12

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--algorithm", "magic"])

    def test_family_choices(self):
        args = build_parser().parse_args(["solve", "--family", "rmat2"])
        assert args.family == "rmat2"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--family", "rmat3"])


class TestCommands:
    def test_solve_runs(self, capsys):
        rc = main(["solve", "--scale", "9", "--ranks", "2", "--threads", "2",
                   "--validate"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gteps" in out
        assert "simulated time breakdown" in out

    def test_solve_explicit_root(self, capsys):
        rc = main(["solve", "--scale", "9", "--root", "5",
                   "--ranks", "2", "--threads", "2"])
        assert rc == 0
        assert "root:  5" in capsys.readouterr().out

    def test_solve_structural_validation(self, capsys):
        rc = main(["solve", "--scale", "9", "--ranks", "2", "--threads", "2",
                   "--validate-structural"])
        assert rc == 0
        assert "gteps" in capsys.readouterr().out

    def test_solve_with_faults(self, capsys):
        rc = main(["solve", "--scale", "9", "--ranks", "4", "--threads", "2",
                   "--faults", "loss=0.05,seed=3,crash=1@4",
                   "--validate-structural"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recovery overhead" in out
        assert "resent_bytes" in out

    def _faulted_report(self, tmp_path, algorithm):
        import json

        path = tmp_path / f"{algorithm}.json"
        rc = main(["solve", "--scale", "10", "--ranks", "4", "--threads", "4",
                   "--algorithm", algorithm, "--faults", "seed=3",
                   "--validate", "--json", str(path)])
        assert rc == 0
        return json.loads(path.read_text())

    def test_faults_run_the_algorithm_asked_for(self, capsys, tmp_path):
        """--faults used to map every preset but bellman-ford to Del-Δ."""
        opt = self._faulted_report(tmp_path, "opt")
        assert opt["algorithm"].startswith("opt-25")
        assert opt["metrics"]["pull_buckets"] > 0
        assert opt["metrics"]["hybrid_switch_bucket"] >= 0
        rho = self._faulted_report(tmp_path, "rho")
        assert rho["algorithm"] == "rho"
        assert rho["metrics"]["long_phases"] == 0

    def test_compare_runs(self, capsys):
        rc = main(["compare", "--scale", "9", "--ranks", "2", "--threads", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("Dijkstra", "Del-25", "Prune-25", "OPT-25", "Bellman-Ford"):
            assert name in out

    def test_graph500_runs(self, capsys):
        rc = main(["graph500", "--scale", "9", "--roots", "3",
                   "--ranks", "2", "--threads", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hmean_gteps" in out

    def test_sweep_runs(self, capsys):
        rc = main(["sweep", "--scale", "9", "--deltas", "1,25",
                   "--ranks", "2", "--threads", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "delta" in out

    def test_bfs_runs(self, capsys):
        rc = main(["bfs", "--scale", "9", "--ranks", "2", "--threads", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "direction per level" in out
        assert "edges_examined" in out

    def test_bfs_forced_direction(self, capsys):
        rc = main(["bfs", "--scale", "9", "--direction", "top-down",
                   "--ranks", "2", "--threads", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bottom-up" not in out

    def test_rmat2_family(self, capsys):
        rc = main(["solve", "--scale", "9", "--family", "rmat2",
                   "--ranks", "2", "--threads", "2"])
        assert rc == 0

    def test_serve_bench_runs(self, capsys, tmp_path):
        metrics = tmp_path / "serve.prom"
        rc = main(["serve-bench", "--scale", "9", "--ranks", "2",
                   "--threads", "2", "--requests", "20", "--workers", "0",
                   "--root-universe", "4",
                   "--concurrency", "1", "--metrics-out", str(metrics),
                   "--json", "-"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "traffic" in out
        assert "latency (ms)" in out
        assert "distance cache" in out
        assert '"throughput_qps"' in out
        text = metrics.read_text()
        assert "serve_requests_total" in text
        assert "serve_cache_hits_total" in text

    def test_serve_bench_slo_violation_fails(self, capsys):
        # a hit rate above 1.0 is unreachable: the SLO gate must trip
        rc = main(["serve-bench", "--scale", "9", "--ranks", "2",
                   "--threads", "2", "--requests", "10", "--workers", "0",
                   "--root-universe", "4",
                   "--concurrency", "1", "--slo-min-hit-rate", "1.5"])
        assert rc == 1
        assert "SLO VIOLATION" in capsys.readouterr().err

    def test_serve_bench_parser_defaults(self):
        args = build_parser().parse_args(["serve-bench"])
        assert args.arrival == "closed"
        assert args.cache_mb == 64.0
        assert args.events is None
        # burn monitoring is opt-in for serve-bench
        assert args.burn_objective is None
        assert args.burn_fast_s == 60.0
        assert args.burn_slow_s == 300.0

    def test_serve_bench_events_and_burn(self, capsys, tmp_path):
        events = tmp_path / "events.jsonl"
        rc = main(["serve-bench", "--scale", "9", "--ranks", "2",
                   "--threads", "2", "--requests", "20", "--workers", "0",
                   "--root-universe", "4",
                   "--concurrency", "1", "--events", str(events),
                   "--burn-objective", "0.99", "--burn-min-samples", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "SLO burn rate" in out
        assert "wide events written" in out
        from repro.serve.events import read_events

        stream = read_events(str(events))
        assert len(stream) == 20
        assert all(e["schema"] == 1 for e in stream)

    def test_serve_bench_events_replay_identical(self, capsys, tmp_path):
        from repro.serve.events import canonical_text, read_events

        streams = []
        for run in ("a", "b"):
            events = tmp_path / f"events-{run}.jsonl"
            rc = main(["serve-bench", "--scale", "9", "--ranks", "2",
                       "--threads", "2", "--requests", "15", "--workers", "0",
                       "--root-universe", "4",
                       "--concurrency", "1", "--retries", "3",
                       "--retry-backoff-ms", "0",
                       "--chaos", "error=0.2,clean-after=2,seed=3",
                       "--events", str(events)])
            assert rc == 0
            capsys.readouterr()
            streams.append(canonical_text(read_events(str(events))))
        assert streams[0] and streams[0] == streams[1]

    def test_serve_top_fixed_frames(self, capsys, tmp_path):
        events = tmp_path / "events.jsonl"
        rc = main(["serve-top", "--scale", "9", "--ranks", "2",
                   "--threads", "2", "--requests", "20", "--workers", "1",
                   "--root-universe", "4", "--concurrency", "1",
                   "--refresh-ms", "10", "--frames", "2", "--no-clear",
                   "--events", str(events)])
        assert rc == 0
        out = capsys.readouterr().out
        # two live frames plus the final post-drain frame
        assert out.count("serve-top — SSSP serving plane") >= 3
        assert "latency by source" in out
        assert "burn rate" in out
        assert events.exists()

    def test_serve_top_requires_workers(self, capsys):
        rc = main(["serve-top", "--scale", "9", "--workers", "0",
                   "--frames", "1"])
        assert rc == 2
        assert "worker" in capsys.readouterr().err

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "solve", "--scale", "8",
             "--ranks", "2", "--threads", "2"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "gteps" in proc.stdout
