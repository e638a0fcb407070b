"""What the benchmark declares and what one run carries.

``BENCHMARK.json`` at the repo root is the single list of workload names,
metric names, units, directions and bounds; this module reads it and holds
the sizes of the inputs, which it does not.
"""

from __future__ import annotations

import contextlib
import json
import math
import resource
import statistics
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from benchmarks.stack.spans import Recorder
from benchmarks.stack.stats import (
    harmonic_mean,
    highest_supported_percentile,
    percentile,
)

__all__ = [
    "ROOT",
    "OUT_DIR",
    "SIZES",
    "TIMING_DEPENDENT_COUNTS",
    "Block",
    "Run",
    "load_contract",
    "put_end_to_end",
    "timed_setup",
]

ROOT = Path(__file__).resolve().parents[2]
#: everything a run writes (span files, result documents, checkpoints)
OUT_DIR = ROOT / ".bench_out"

#: Every solver runs the `opt` preset at Δ=25 on an 8×8 simulated machine.
ALGORITHM, DELTA, RANKS, THREADS = "opt", 25, 8, 8

#: how many times a run sets up, to report the median set-up time
SETUP_REPEATS = 3

#: per-layer counts that depend on how the broker's worker thread and the
#: load generator interleave; every other count is a function of the seed
TIMING_DEPENDENT_COUNTS = frozenset(
    {"serve.batches", "serve.solves", "serve.batch_size_mean"}
)

#: Input sizes. Operation counts are for a run of ``run_seconds`` and
#: scale with ``--seconds``; ``smoke`` shrinks graphs to scale 10 and runs
#: a tenth of the operations (the test suite's size).
SIZES = {
    "full": {"ops_share": 1.0, "cold_scale": 15, "grid_side": 64, "serve_scale": 14},
    "smoke": {"ops_share": 0.1, "cold_scale": 10, "grid_side": 24, "serve_scale": 10},
}


def load_contract(path: Path | None = None) -> dict:
    with open(path or ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Run:
    """One workload run: its inputs' seeds, its clock-free bookkeeping and
    the metrics it has produced so far."""

    workload: str
    seed: int
    seconds: float
    scale: str = "full"
    recorder: Recorder | None = None
    run_seconds: float = 12.0
    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def traced(self) -> bool:
        return self.recorder is not None

    @property
    def size(self) -> dict:
        return SIZES[self.scale]

    # -- seeded inputs --------------------------------------------------
    def int_seed(self, label: str) -> int:
        """A 31-bit seed for ``label``, a pure function of ``--seed``."""
        seq = np.random.SeedSequence([self.seed, zlib.crc32(label.encode())])
        return int(seq.generate_state(1)[0] >> 1)

    def rng(self, label: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(label.encode())])

    def ops(self, count_at_run_seconds: int, *, at_least: int = 1) -> int:
        """Operation count for this run's ``--seconds`` and scale."""
        share = self.size["ops_share"] * self.seconds / self.run_seconds
        return max(at_least, round(count_at_run_seconds * share))

    # -- recording ------------------------------------------------------
    def span(self, name: str, layer: str, op_id=None):
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span(name, layer, op_id)

    def put(self, name: str, value: float, samples: int | None = None) -> None:
        self.metrics[name] = float(value)
        if samples is not None:
            self.samples[name] = int(samples)

    def count_ops(self, attempted: int, failed: int = 0, why: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{failed} failed: {why}")

    def span_ms(self, layer: str, name: str, since: int = 0, *, scale=1e3) -> float:
        """Median duration (ms by default) of the named spans; 0 if none."""
        durations = self.recorder.durations(layer, name, since)
        return statistics.median(durations) * scale if durations else 0.0


def timed_setup(run: Run, build, close=None):
    """Set up :data:`SETUP_REPEATS` times, report the median as ``setup_s``
    and hand back the last state; earlier states go through ``close``."""
    times = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None and close is not None:
            close(state)
        t0 = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - t0)
    run.put("setup_s", statistics.median(times), len(times))
    return state


@dataclass
class Block:
    """A stretch of a workload's loop together with the SciPy Dijkstra
    calls made right around it.

    The machine this runs on has minutes in which everything is up to 2.6
    times slower, so a time means little without what the same machine did
    to a fixed piece of work at the same moment. Every block is therefore
    normalised by its own SciPy calls and a run reports the median block.
    """

    op_s: list[float] = field(default_factory=list)
    """latencies of the primary operation (empty: not a latency block)"""
    scipy_s: list[float] = field(default_factory=list)
    ops: int = 0
    """operations completed in ``busy_s`` (0: not a throughput block)"""
    busy_s: float = 0.0

    def add_op(self, seconds: float) -> None:
        """One primary operation of a one-caller closed loop: it is both a
        latency sample and a unit of throughput."""
        self.op_s.append(seconds)
        self.ops += 1
        self.busy_s += seconds

    def verify(self, oracle, root: int, distances) -> bool:
        """Check one answer and keep the oracle's timing with this block."""
        ok, seconds = oracle.check(root, distances)
        if seconds is not None:
            self.scipy_s.append(seconds)
        return ok


def put_end_to_end(run: Run, blocks: list[Block], gteps) -> None:
    """The end-to-end metrics every workload reports, and the raw times
    behind them as ``bench.*``."""
    latency = [b for b in blocks if b.op_s and b.scipy_s]
    throughput = [b for b in blocks if b.ops and b.scipy_s]
    run.put(
        "vs_scipy_ratio",
        statistics.median(
            statistics.median(b.op_s) / statistics.median(b.scipy_s) for b in latency
        ),
        len(latency),
    )
    run.put(
        "throughput_vs_scipy",
        statistics.median(
            b.ops / b.busy_s * statistics.median(b.scipy_s) for b in throughput
        ),
        len(throughput),
    )
    run.put("sim_gteps", harmonic_mean(gteps), len(gteps))
    run.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    ms = [t * 1e3 for b in latency for t in b.op_s]
    run.put("bench.op_ms_p50", percentile(ms, 50), len(ms))
    run.put("bench.op_ms_p90", percentile(ms, 90), len(ms))
    if highest_supported_percentile(len(ms)) < 90:
        run.notes.append(f"{len(ms)} latency samples: fewer than ten lie beyond p90")
    run.put("bench.ops_per_s",
            statistics.median(b.ops / b.busy_s for b in throughput), len(throughput))
    scipy_ms = [t * 1e3 for b in blocks for t in b.scipy_s]
    run.put("bench.scipy_ms_p50", statistics.median(scipy_ms), len(scipy_ms))


def finite(value: float) -> float:
    """JSON has no infinity; a tail made of failed requests reads as the
    largest float instead (the run is already marked incorrect)."""
    return value if math.isfinite(value) else 1e300
