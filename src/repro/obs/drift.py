"""Wall-clock vs. cost-model drift rows.

The cost model prices every step record in simulated seconds; the tracer
also measures how long the simulator actually spent producing each record.
Those two clocks run at wildly different speeds (Python is not the paper's
BlueGene/Q), but their *relative* per-kind weighting should agree: if
``bucket_scan`` records take 10× more wall time per simulated second than
everything else, the cost model's ``t_scan`` underprices scanning relative
to reality — exactly what :mod:`repro.runtime.calibration` fits offline.
:func:`drift_rows` turns the per-kind sums of one trace into that check: it
flags kinds whose normalized ratio leaves a fixed band.
"""

from __future__ import annotations

from typing import Any

__all__ = ["DRIFT_THRESHOLD", "MIN_WALL_S", "drift_rows"]

DRIFT_THRESHOLD = 3.0
"""Flag a kind when its wall/simulated ratio diverges from the run-wide
ratio by more than this factor (either direction)."""

MIN_WALL_S = 5e-3
"""Kinds with less aggregate wall time are never flagged: sub-millisecond
aggregates are timer noise, not model drift."""


def drift_rows(kinds: dict[str, tuple[int, float, float]]) -> list[dict[str, Any]]:
    """One row per kind, sorted by kind: record count, wall/sim totals,
    ratio, normalized ratio, flag.

    ``kinds`` maps each record kind, in order of its first record, to
    ``(records, wall_s, sim_s)``. ``ratio`` is wall seconds per simulated
    second for the kind; ``rel`` divides that by the run-wide ratio, so
    ``rel == 1`` means the cost model weights this kind exactly as reality
    does and ``rel == 4`` means the kind is 4× more expensive in wall time
    than the model's relative pricing predicts. A kind with no simulated
    seconds (every ``exchange`` of a 1-rank machine) has no ratio: both
    read ``None`` and it is never flagged.
    """
    total_wall = sum(wall for _, wall, _ in kinds.values())
    total_sim = sum(sim for _, _, sim in kinds.values())
    overall = total_wall / total_sim if total_sim > 0 else 0.0
    rows: list[dict[str, Any]] = []
    for kind in sorted(kinds):
        records, wall, sim = kinds[kind]
        ratio = rel = None
        if sim > 0:
            ratio = wall / sim
            rel = ratio / overall if overall > 0 else 0.0
        flagged = (
            wall >= MIN_WALL_S and rel is not None and overall > 0
            and (rel > DRIFT_THRESHOLD or rel < 1.0 / DRIFT_THRESHOLD)
        )
        rows.append({"kind": kind, "records": records, "wall_s": wall,
                     "sim_s": sim, "ratio": ratio, "rel": rel, "flagged": flagged})
    return rows
