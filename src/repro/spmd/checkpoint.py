"""Durable on-disk checkpoint/resume for SSSP solves (DESIGN.md §8).

The crash snapshots of :class:`~repro.core.defence.Defence` live in memory:
they survive an injected rank crash but not a killed process. This module
makes solve state *durable*: at every epoch boundary the defence
serialises everything needed to restart the solve — the global
tentative-distance array, settled flags, the active frontier, the loop
stage (bucket loop vs Bellman-Ford tail) and the reliable mailbox's
superstep counter — into a versioned ``.npz`` file.

The format is defensive end to end:

- **Atomic**: the payload is written to a temporary file in the same
  directory, fsync'd, then ``os.replace``'d into place, so a kill during a
  write can never leave a truncated checkpoint under a valid name.
- **Self-verifying**: a SHA-256 digest over every entry (key, dtype, shape
  and bytes, in sorted key order) is stored alongside the payload;
  :func:`load_checkpoint` recomputes it and rejects any mismatch.
- **Corruption-tolerant**: :func:`latest_checkpoint` scans newest-first and
  silently skips unreadable or digest-failing files, so a solve resumed
  after a crash-during-checkpoint falls back to the previous good epoch.
- **Identity-checked**: each checkpoint carries fingerprints of the graph
  and of the run configuration (engine, algorithm flags, machine shape,
  root); resuming against a different graph or config raises
  :class:`CheckpointError` instead of silently computing wrong distances.

Restoring a checkpoint is sound for the same reason a crash restore is:
tentative distances in a checkpoint are lengths of real paths, so re-running
the monotone min-apply relaxation from them converges to the exact
shortest-distance array.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "SolveCheckpoint",
    "CheckpointManager",
    "ensure_checkpoint_dir",
    "fingerprint_graph",
    "fingerprint_run",
    "save_checkpoint",
    "load_checkpoint",
    "latest_checkpoint",
]

CHECKPOINT_VERSION = 1
"""Format version; bumped on any incompatible layout change."""

_CKPT_PREFIX = "ckpt-"
_CKPT_SUFFIX = ".npz"

#: Scalar entries of the serialised payload (all stored as int64).
_SCALAR_KEYS = ("version", "epoch", "bucket_ordinal", "superstep", "root",
                "hybrid_switch_bucket")
#: String entries.
_STRING_KEYS = ("stage", "graph_digest", "run_digest")
#: Array entries.
_ARRAY_KEYS = ("d", "settled", "active")


class CheckpointError(RuntimeError):
    """A checkpoint is unreadable, corrupt, or belongs to a different run."""


@dataclass
class SolveCheckpoint:
    """One resumable snapshot of a solve at an epoch boundary.

    ``stage`` is ``"bucket"`` while the Δ-stepping bucket loop runs and
    ``"bf"`` once the solve is inside a Bellman-Ford stage (the Δ = ∞
    baseline, the hybridization tail, or a watchdog degradation pass);
    resume re-enters the solve at the matching loop. ``active`` holds
    *global* vertex ids (the SPMD engine re-slices them per rank).
    ``superstep`` is the reliable mailbox's counter, fast-forwarded on
    resume so fault-plan events pinned to completed supersteps never fire
    twice.
    """

    epoch: int
    stage: str
    bucket_ordinal: int
    superstep: int
    root: int
    d: np.ndarray
    settled: np.ndarray
    active: np.ndarray
    graph_digest: str
    run_digest: str
    hybrid_switch_bucket: int = -1
    version: int = CHECKPOINT_VERSION


def ensure_checkpoint_dir(path: str | Path) -> Path:
    """Create ``path`` if needed and verify it is writable *up front*.

    Raises ``ValueError`` (not a late ``OSError`` mid-solve) when the
    directory cannot be created or written.
    """
    directory = Path(path)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        probe = directory / f".probe-{os.getpid()}"
        probe.write_bytes(b"ok")
        probe.unlink()
    except OSError as exc:
        raise ValueError(
            f"checkpoint directory {directory} is not writable: {exc}"
        ) from exc
    return directory


def fingerprint_graph(graph) -> str:
    """SHA-256 over the CSR arrays — the identity of the solved graph."""
    h = hashlib.sha256()
    h.update(np.int64(graph.num_vertices).tobytes())
    h.update(np.ascontiguousarray(graph.indptr).tobytes())
    h.update(np.ascontiguousarray(graph.adj).tobytes())
    h.update(np.ascontiguousarray(graph.weights).tobytes())
    h.update(b"undirected" if graph.undirected else b"directed")
    return h.hexdigest()


def fingerprint_run(config, machine, root: int, engine: str) -> str:
    """SHA-256 over everything that must match for a resume to be valid.

    ``engine`` distinguishes the orchestrated and SPMD engines (their loop
    state is compatible in format but not in schedule, so cross-engine
    resume is rejected). ``config``'s frozen-dataclass repr covers every
    algorithm knob; the ``trace`` telemetry config is excluded so traced
    and untraced runs of the same solve share checkpoints.
    """
    if getattr(config, "trace", None) is not None:
        config = config.evolve(trace=None)
    desc = (
        f"engine={engine}|root={root}|ranks={machine.num_ranks}"
        f"|threads={machine.threads_per_rank}|{config!r}"
    )
    return hashlib.sha256(desc.encode()).hexdigest()


# ----------------------------------------------------------------------
# Serialisation
# ----------------------------------------------------------------------
def _payload_digest(payload: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for key in sorted(payload):
        arr = np.ascontiguousarray(payload[key])
        h.update(key.encode())
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _checkpoint_payload(ckpt: SolveCheckpoint) -> dict[str, np.ndarray]:
    payload: dict[str, np.ndarray] = {
        "version": np.int64(ckpt.version),
        "epoch": np.int64(ckpt.epoch),
        "bucket_ordinal": np.int64(ckpt.bucket_ordinal),
        "superstep": np.int64(ckpt.superstep),
        "root": np.int64(ckpt.root),
        "hybrid_switch_bucket": np.int64(ckpt.hybrid_switch_bucket),
        "stage": np.array(ckpt.stage),
        "graph_digest": np.array(ckpt.graph_digest),
        "run_digest": np.array(ckpt.run_digest),
        "d": np.ascontiguousarray(ckpt.d, dtype=np.int64),
        "settled": np.ascontiguousarray(ckpt.settled, dtype=bool),
        "active": np.ascontiguousarray(ckpt.active, dtype=np.int64),
    }
    return payload


def checkpoint_path(directory: str | Path, epoch: int) -> Path:
    """Canonical file name of the epoch-``epoch`` checkpoint."""
    return Path(directory) / f"{_CKPT_PREFIX}{epoch:08d}{_CKPT_SUFFIX}"


def save_checkpoint(directory: str | Path, ckpt: SolveCheckpoint) -> Path:
    """Durably write ``ckpt`` under ``directory`` (atomic write-rename)."""
    directory = Path(directory)
    payload = _checkpoint_payload(ckpt)
    digest = _payload_digest(payload)
    final = checkpoint_path(directory, ckpt.epoch)
    tmp = directory / f".{final.name}.tmp-{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, digest=np.array(digest), **payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise
    try:  # make the rename itself durable (best effort on odd FSes)
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:  # pragma: no cover - platform dependent
        pass
    return final


def load_checkpoint(path: str | Path) -> SolveCheckpoint:
    """Read and verify one checkpoint file.

    Raises :class:`CheckpointError` on an unreadable file, a missing key,
    an unknown version, or a digest mismatch.
    """
    path = Path(path)
    try:
        data = np.load(path, allow_pickle=False)
    except Exception as exc:  # zipfile/OS errors vary; normalise them all
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    with data:
        keys = set(data.files)
        missing = (
            {"digest", *(_SCALAR_KEYS + _STRING_KEYS + _ARRAY_KEYS)} - keys
        )
        if missing:
            raise CheckpointError(
                f"checkpoint {path} is missing entries: {sorted(missing)}"
            )
        try:
            payload = {k: data[k] for k in data.files if k != "digest"}
            stored = str(data["digest"][()])
        except Exception as exc:
            raise CheckpointError(
                f"corrupt checkpoint {path}: {exc}"
            ) from exc
        if _payload_digest(payload) != stored:
            raise CheckpointError(
                f"checkpoint {path} failed integrity verification "
                "(digest mismatch — file is corrupt or was tampered with)"
            )
        version = int(payload["version"])
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint {path} has format version {version}, "
                f"this build reads version {CHECKPOINT_VERSION}"
            )
        return SolveCheckpoint(
            epoch=int(payload["epoch"]),
            stage=str(payload["stage"][()]),
            bucket_ordinal=int(payload["bucket_ordinal"]),
            superstep=int(payload["superstep"]),
            root=int(payload["root"]),
            d=np.asarray(payload["d"], dtype=np.int64),
            settled=np.asarray(payload["settled"], dtype=bool),
            active=np.asarray(payload["active"], dtype=np.int64),
            graph_digest=str(payload["graph_digest"][()]),
            run_digest=str(payload["run_digest"][()]),
            hybrid_switch_bucket=int(payload["hybrid_switch_bucket"]),
            version=version,
        )


def latest_checkpoint(
    directory: str | Path,
) -> tuple[Path, SolveCheckpoint] | None:
    """Newest *valid* checkpoint in ``directory`` (or None).

    Corrupt or unreadable files — e.g. from a kill during an earlier epoch's
    write on a filesystem without atomic rename — are skipped, falling back
    to the next-newest valid one.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    candidates = sorted(
        directory.glob(f"{_CKPT_PREFIX}*{_CKPT_SUFFIX}"), reverse=True
    )
    for path in candidates:
        try:
            return path, load_checkpoint(path)
        except CheckpointError:
            continue
    return None


# ----------------------------------------------------------------------
# Engine-side manager
# ----------------------------------------------------------------------
class CheckpointManager:
    """Durable-checkpoint policy for one solve.

    Owns the directory (validated writable at construction, *before* any
    solve work), the run fingerprints and retention (newest ``keep``
    files). The solve's :class:`~repro.core.defence.Defence` calls
    :meth:`save` at every epoch boundary and for the final checkpoint a
    :class:`~repro.runtime.watchdog.SolveTimeout` carries.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        graph,
        config,
        machine,
        root: int,
        engine: str,
        keep: int = 3,
    ) -> None:
        if keep < 1:
            raise ValueError("checkpoint retention must keep >= 1 file")
        self.directory = ensure_checkpoint_dir(directory)
        self.keep = keep
        self.root = root
        self.graph_digest = fingerprint_graph(graph)
        self.run_digest = fingerprint_run(config, machine, root, engine)

    # ------------------------------------------------------------------
    def load_resume(self) -> SolveCheckpoint | None:
        """Newest valid checkpoint of *this* run, or None to start fresh.

        Raises :class:`CheckpointError` when the directory holds a valid
        checkpoint of a *different* graph or run configuration — resuming
        it would silently produce wrong distances.
        """
        found = latest_checkpoint(self.directory)
        if found is None:
            return None
        path, ckpt = found
        if ckpt.graph_digest != self.graph_digest:
            raise CheckpointError(
                f"checkpoint {path} was taken on a different graph "
                "(graph fingerprint mismatch)"
            )
        if ckpt.run_digest != self.run_digest:
            raise CheckpointError(
                f"checkpoint {path} belongs to a different run configuration "
                "(engine/algorithm/machine/root fingerprint mismatch)"
            )
        return ckpt

    # ------------------------------------------------------------------
    def save(
        self,
        *,
        epoch: int,
        stage: str,
        bucket_ordinal: int,
        superstep: int,
        d: np.ndarray,
        settled: np.ndarray,
        active: np.ndarray,
        hybrid_switch_bucket: int = -1,
    ) -> Path:
        """Write one checkpoint now (atomic; prunes old files after)."""
        ckpt = SolveCheckpoint(
            epoch=epoch,
            stage=stage,
            bucket_ordinal=bucket_ordinal,
            superstep=superstep,
            root=self.root,
            d=d,
            settled=settled,
            active=active,
            graph_digest=self.graph_digest,
            run_digest=self.run_digest,
            hybrid_switch_bucket=hybrid_switch_bucket,
        )
        path = save_checkpoint(self.directory, ckpt)
        self._prune()
        return path

    def _prune(self) -> None:
        """Drop all but the newest ``keep`` checkpoints (best effort)."""
        files = sorted(
            self.directory.glob(f"{_CKPT_PREFIX}*{_CKPT_SUFFIX}"), reverse=True
        )
        for stale in files[self.keep:]:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - racing cleanup is fine
                pass
