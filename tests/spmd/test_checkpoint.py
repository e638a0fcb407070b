"""Durable checkpoint format and kill/resume round trips (DESIGN.md §8)."""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro.core.config import SolverConfig, preset
from repro.core.solver import solve_sssp
from repro.graph.rmat import RMAT1, rmat_graph
from repro.runtime.machine import MachineConfig
from repro.spmd.checkpoint import (
    CheckpointError,
    CheckpointManager,
    SolveCheckpoint,
    ensure_checkpoint_dir,
    fingerprint_graph,
    latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.spmd.engine import spmd_delta_stepping
from repro.spmd.faults import FaultPlan, RankCrash, RankStall


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(scale=8, edge_factor=4, params=RMAT1, seed=7)


@pytest.fixture(scope="module")
def machine():
    return MachineConfig(num_ranks=4, threads_per_rank=2)


def _make_ckpt(n=16, epoch=3, **overrides):
    kwargs = dict(
        epoch=epoch,
        stage="bucket",
        bucket_ordinal=2,
        superstep=11,
        root=0,
        d=np.arange(n, dtype=np.int64),
        settled=np.zeros(n, dtype=bool),
        active=np.array([1, 5], dtype=np.int64),
        graph_digest="g" * 64,
        run_digest="r" * 64,
    )
    kwargs.update(overrides)
    return SolveCheckpoint(**kwargs)


class TestFormat:
    def test_round_trip(self, tmp_path):
        ckpt = _make_ckpt()
        path = save_checkpoint(tmp_path, ckpt)
        loaded = load_checkpoint(path)
        assert loaded.epoch == ckpt.epoch
        assert loaded.stage == ckpt.stage
        assert loaded.bucket_ordinal == ckpt.bucket_ordinal
        assert loaded.superstep == ckpt.superstep
        assert np.array_equal(loaded.d, ckpt.d)
        assert np.array_equal(loaded.settled, ckpt.settled)
        assert np.array_equal(loaded.active, ckpt.active)
        assert loaded.graph_digest == ckpt.graph_digest
        assert loaded.run_digest == ckpt.run_digest

    def test_corrupt_file_detected(self, tmp_path):
        path = save_checkpoint(tmp_path, _make_ckpt())
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_file_detected(self, tmp_path):
        path = save_checkpoint(tmp_path, _make_ckpt())
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_garbage_file_detected(self, tmp_path):
        path = tmp_path / "ckpt-00000009.npz"
        path.write_bytes(b"this is not an npz archive")
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(path)

    def test_latest_skips_corrupt_and_falls_back(self, tmp_path):
        save_checkpoint(tmp_path, _make_ckpt(epoch=1))
        newest = save_checkpoint(tmp_path, _make_ckpt(epoch=2))
        newest.write_bytes(b"garbage written over the newest checkpoint")
        found = latest_checkpoint(tmp_path)
        assert found is not None
        path, ckpt = found
        assert ckpt.epoch == 1

    def test_latest_none_on_empty_or_missing_dir(self, tmp_path):
        assert latest_checkpoint(tmp_path) is None
        assert latest_checkpoint(tmp_path / "nope") is None

    def test_no_tmp_files_left_behind(self, tmp_path):
        save_checkpoint(tmp_path, _make_ckpt())
        leftovers = [p for p in os.listdir(tmp_path) if "tmp" in p]
        assert leftovers == []

    def test_ensure_checkpoint_dir_rejects_unwritable(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.mkdir()
        blocked.chmod(0o500)
        try:
            if os.access(blocked, os.W_OK):  # running as root: cannot test
                pytest.skip("permissions are not enforced for this user")
            with pytest.raises(ValueError, match="not writable"):
                ensure_checkpoint_dir(blocked)
        finally:
            blocked.chmod(0o700)

    def test_ensure_checkpoint_dir_rejects_file_path(self, tmp_path):
        target = tmp_path / "afile"
        target.write_text("x")
        with pytest.raises(ValueError):
            ensure_checkpoint_dir(target)


class TestManager:
    def test_retention_prunes_old_files(self, tmp_path, graph, machine):
        mgr = CheckpointManager(
            tmp_path, graph=graph, config=SolverConfig(), machine=machine,
            root=0, engine="t", keep=2,
        )
        for epoch in range(5):
            mgr.save(epoch=epoch, stage="bucket", bucket_ordinal=epoch,
                     superstep=epoch, d=np.zeros(4, np.int64),
                     settled=np.zeros(4, bool),
                     active=np.empty(0, np.int64))
        files = sorted(glob.glob(str(tmp_path / "*.npz")))
        assert len(files) == 2
        assert files[-1].endswith("ckpt-00000004.npz")

    def test_resume_rejects_different_graph(self, tmp_path, graph, machine):
        mgr = CheckpointManager(
            tmp_path, graph=graph, config=SolverConfig(), machine=machine,
            root=0, engine="t",
        )
        mgr.save(epoch=0, stage="bucket", bucket_ordinal=0, superstep=0,
                 d=np.zeros(graph.num_vertices, np.int64),
                 settled=np.zeros(graph.num_vertices, bool),
                 active=np.empty(0, np.int64))
        other = rmat_graph(scale=7, edge_factor=4, params=RMAT1, seed=99)
        mgr2 = CheckpointManager(
            tmp_path, graph=other, config=SolverConfig(), machine=machine,
            root=0, engine="t",
        )
        with pytest.raises(CheckpointError, match="different graph"):
            mgr2.load_resume()

    def test_resume_rejects_different_config_or_engine(
        self, tmp_path, graph, machine
    ):
        mgr = CheckpointManager(
            tmp_path, graph=graph, config=SolverConfig(delta=25),
            machine=machine, root=0, engine="spmd-delta",
        )
        mgr.save(epoch=0, stage="bucket", bucket_ordinal=0, superstep=0,
                 d=np.zeros(graph.num_vertices, np.int64),
                 settled=np.zeros(graph.num_vertices, bool),
                 active=np.empty(0, np.int64))
        for config, engine in [
            (SolverConfig(delta=50), "spmd-delta"),  # different Δ
            (SolverConfig(delta=25), "core-delta"),  # different engine
        ]:
            bad = CheckpointManager(
                tmp_path, graph=graph, config=config, machine=machine,
                root=0, engine=engine,
            )
            with pytest.raises(CheckpointError, match="different run"):
                bad.load_resume()

    def test_fingerprint_tracks_graph_content(self, graph):
        other = rmat_graph(scale=8, edge_factor=4, params=RMAT1, seed=8)
        assert fingerprint_graph(graph) == fingerprint_graph(graph)
        assert fingerprint_graph(graph) != fingerprint_graph(other)


class TestKillResume:
    """Kill-at-arbitrary-epoch + resume is bit-identical (the tentpole
    acceptance criterion)."""

    def _kill_after(self, tmp_path, keep_epochs):
        """Simulate a kill: drop every checkpoint newer than the first
        ``keep_epochs`` (as if the process died before writing them)."""
        files = sorted(glob.glob(str(tmp_path / "*.npz")))
        for stale in files[keep_epochs:]:
            os.unlink(stale)
        return len(files)

    def test_spmd_delta_resume_every_epoch(self, tmp_path, graph, machine):
        cfg = preset("opt", 25)
        d_ref, _ = spmd_delta_stepping(graph, 0, machine, config=cfg)
        full = tmp_path / "full"
        d_ck, _ = spmd_delta_stepping(
            graph, 0, machine, config=cfg,
            checkpoint_dir=full, checkpoint_keep=100,
        )
        assert np.array_equal(d_ref, d_ck)
        total = len(glob.glob(str(full / "*.npz")))
        assert total >= 2
        for kill_at in range(1, total):
            trial = tmp_path / f"kill{kill_at}"
            trial.mkdir()
            for f in sorted(glob.glob(str(full / "*.npz")))[:kill_at]:
                (trial / os.path.basename(f)).write_bytes(
                    open(f, "rb").read()
                )
            d_res, _ = spmd_delta_stepping(
                graph, 0, machine, config=cfg,
                checkpoint_dir=trial, resume=True,
            )
            assert np.array_equal(d_ref, d_res), (
                f"resume from epoch-{kill_at} checkpoint diverged"
            )

    def test_spmd_bf_kill_resume(self, tmp_path, graph, machine):
        bf = preset("bellman-ford")
        d_ref, _ = spmd_delta_stepping(graph, 0, machine, config=bf)
        d_ck, _ = spmd_delta_stepping(
            graph, 0, machine, config=bf,
            checkpoint_dir=tmp_path, checkpoint_keep=100,
        )
        assert np.array_equal(d_ref, d_ck)
        self._kill_after(tmp_path, 1)
        d_res, _ = spmd_delta_stepping(
            graph, 0, machine, config=bf, checkpoint_dir=tmp_path, resume=True,
        )
        assert np.array_equal(d_ref, d_res)

    def test_core_engine_kill_resume(self, tmp_path, graph):
        r_ref = solve_sssp(graph, 0, algorithm="opt", num_ranks=4,
                           threads_per_rank=2)
        ckdir = tmp_path / "core"
        solve_sssp(graph, 0, algorithm="opt", num_ranks=4,
                   threads_per_rank=2, checkpoint_dir=ckdir)
        files = sorted(glob.glob(str(ckdir / "*.npz")))
        for stale in files[1:]:
            os.unlink(stale)
        r_res = solve_sssp(graph, 0, algorithm="opt", num_ranks=4,
                           threads_per_rank=2, checkpoint_dir=ckdir,
                           resume=True)
        assert np.array_equal(r_ref.distances, r_res.distances)

    def test_resume_under_fault_plan_bit_identical(
        self, tmp_path, graph, machine
    ):
        """Crash-during-recovery is itself recoverable: kill+resume under
        an active fault plan still lands on the exact distances."""
        cfg = preset("opt", 25)
        d_ref, _ = spmd_delta_stepping(graph, 0, machine, config=cfg)
        plan = FaultPlan(seed=5, loss_rate=0.05, dup_rate=0.03,
                         crashes=(RankCrash(1, 4),),
                         stalls=(RankStall(2, 6, 2),))
        res = solve_sssp(
            graph, 0, faults=plan, config=cfg, machine=machine,
            checkpoint_dir=tmp_path, validate=True,
        )
        assert np.array_equal(d_ref, res.distances)
        files = sorted(glob.glob(str(tmp_path / "*.npz")))
        for stale in files[1:]:
            os.unlink(stale)
        resumed = solve_sssp(
            graph, 0, faults=plan, config=cfg, machine=machine,
            checkpoint_dir=tmp_path, resume=True, validate=True,
        )
        assert np.array_equal(d_ref, resumed.distances)

    def test_resume_with_empty_dir_starts_fresh(self, tmp_path, graph, machine):
        d_ref, _ = spmd_delta_stepping(graph, 0, machine, delta=25)
        d_res, _ = spmd_delta_stepping(
            graph, 0, machine, delta=25,
            checkpoint_dir=tmp_path, resume=True,
        )
        assert np.array_equal(d_ref, d_res)

    def test_checkpointing_does_not_change_metrics(self, graph, machine, tmp_path):
        cfg = preset("opt", 25)
        _, ctx_plain = spmd_delta_stepping(graph, 0, machine, config=cfg)
        _, ctx_ck = spmd_delta_stepping(
            graph, 0, machine, config=cfg, checkpoint_dir=tmp_path,
        )
        assert ctx_plain.metrics.summary() == ctx_ck.metrics.summary()
