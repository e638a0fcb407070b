"""JSON-serialisable result reports.

Benchmark pipelines want machine-readable output next to the plain-text
tables; these helpers flatten the result objects (``SsspResult``,
``BfsResult``, cost breakdowns, metrics) into plain dicts of JSON-safe
scalars and dump them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

__all__ = ["sssp_report", "bfs_report", "dump_json"]


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars and containers to JSON-safe types; a float that
    is not finite (an undefined percentile or ratio) becomes ``None``."""
    import numpy as np

    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value) if math.isfinite(value) else None
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def sssp_report(result) -> dict[str, Any]:
    """Flatten an :class:`~repro.core.solver.SsspResult` (no distance array —
    reports are about the run, not the n-sized payload).

    When the solve ran with telemetry (``result.trace``), the report gains a
    ``trace`` section with the artifact paths and total wall/simulated time.
    """
    trace = getattr(result, "trace", None)
    extra: dict[str, Any] = {}
    if trace is not None:
        extra["trace"] = {
            "artifacts": dict(trace.artifacts),
            "wall_total_s": trace.wall_total,
            "sim_total_s": trace.sim_t,
        }
    return _jsonable(
        {
            **extra,
            "kind": "sssp",
            "algorithm": result.algorithm,
            "root": result.root,
            "n": result.num_vertices,
            "m": result.num_edges,
            "reached": result.num_reached,
            "gteps": result.gteps,
            "wall_time_s": result.wall_time_s,
            "num_proxies": result.num_proxies,
            "machine": {
                "num_ranks": result.machine.num_ranks,
                "threads_per_rank": result.machine.threads_per_rank,
            },
            "config": {
                "delta": min(result.config.delta, 2**60),
                "use_ios": result.config.use_ios,
                "use_pruning": result.config.use_pruning,
                "use_hybrid": result.config.use_hybrid,
                "tau": result.config.tau,
                "intra_lb": result.config.intra_lb,
                "inter_split": result.config.inter_split,
                "pushpull_estimator": result.config.pushpull_estimator,
                "partition": result.config.partition,
            },
            "cost": result.cost.as_row(),
            "metrics": result.metrics.summary(),
            "relaxations_by_kind": result.metrics.relaxations_by_kind(),
        }
    )


def bfs_report(result) -> dict[str, Any]:
    """Flatten a :class:`~repro.bfs.engine.BfsResult`."""
    return _jsonable(
        {
            "kind": "bfs",
            "root": result.root,
            "reached": result.num_reached,
            "levels": result.num_levels,
            "directions": list(result.direction_per_level),
            "gteps": result.gteps,
            "cost": result.cost.as_row(),
            "metrics": result.metrics.summary(),
        }
    )


def dump_json(report: dict[str, Any], path: str | Path | None = None) -> str:
    """Serialise a report as strict JSON (no ``NaN``/``Infinity``, which
    strict parsers reject); optionally also write it to ``path``."""
    text = json.dumps(_jsonable(report), indent=2, sort_keys=True, allow_nan=False)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text
