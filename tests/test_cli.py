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
                   "--validate", "structural"])
        assert rc == 0
        assert "gteps" in capsys.readouterr().out

    def test_solve_with_faults(self, capsys):
        rc = main(["solve", "--scale", "9", "--ranks", "4", "--threads", "2",
                   "--faults", "loss=0.05,seed=3,crash=1@4",
                   "--validate", "structural"])
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

    def test_serve_bench_slo_nan_bound_fails(self, capsys):
        # a NaN bound compares false both ways: it must not pass the run
        for bound in ("nan", "-0.5"):
            rc = main(["serve-bench", "--scale", "9", "--ranks", "2",
                       "--threads", "2", "--requests", "10", "--workers", "0",
                       "--slo-min-hit-rate", bound])
            assert rc != 0
            err = capsys.readouterr().err
            assert "min_hit_rate must be a finite number >= 0" in err

    def test_serve_bench_parser_defaults(self):
        args = build_parser().parse_args(["serve-bench"])
        assert args.arrival == "closed"
        assert args.cache_mb == 64.0
        assert args.events is None
        assert args.slo_min_hit_rate is None
        # no burn-rate flags: the SLO verdict is the end-of-run policy
        assert not any(k.startswith("burn") for k in vars(args))

    def test_serve_bench_events_and_burn(self, capsys, tmp_path):
        events = tmp_path / "events.jsonl"
        rc = main(["serve-bench", "--scale", "9", "--ranks", "2",
                   "--threads", "2", "--requests", "20", "--workers", "0",
                   "--root-universe", "4",
                   "--concurrency", "1", "--events", str(events)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "p50_cache_s" in out and "p50_solve_s" in out
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
        # a worker thread under load: the report's per-source latency
        # table, once, after the drain
        events = tmp_path / "events.jsonl"
        rc = main(["serve-bench", "--scale", "9", "--ranks", "2",
                   "--threads", "2", "--requests", "20", "--workers", "1",
                   "--root-universe", "4", "--concurrency", "1",
                   "--events", str(events)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("latency (ms)") == 1
        header = out[out.index("latency (ms)"):].splitlines()[1]
        assert "p50_cache_s" in header and "p50_solve_s" in header
        assert events.exists()

    def test_serve_top_requires_workers(self, capsys):
        # one serving subcommand, and it serves inline with no worker
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        assert set(sub.choices) == {"solve", "compare", "sweep", "bfs",
                                    "serve-bench", "trace-report"}
        assert main(["serve-bench", "--scale", "9", "--ranks", "2",
                     "--threads", "2", "--requests", "5",
                     "--workers", "0"]) == 0
        assert "latency (ms)" in capsys.readouterr().out

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
