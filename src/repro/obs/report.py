"""Trace loading and the ``trace-report`` text renderer.

:func:`load_trace` reads either artifact format produced by
:mod:`repro.obs.export` — the lossless JSONL event log or the
Chrome/Perfetto JSON — into one normalized :class:`LoadedTrace`.
:func:`render_report` turns that into the aligned-text summary the
``python -m repro trace-report`` subcommand prints: run totals, wall vs.
simulated time per phase, per-rank busy time and the top spans by wall
duration. All tables go through
:func:`repro.util.tables.format_table`, the same helper the analysis
timeline renderer uses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.util.tables import format_table

__all__ = ["LoadedTrace", "load_trace", "render_report"]


@dataclass
class LoadedTrace:
    """Normalized view of a trace file (either format).

    ``spans``/``instants``/``records`` follow the JSONL event schema; a
    Perfetto file reconstructs them from its tracks (wall-clock deltas of
    individual records are not stored there and come back as ``None``).
    """

    format: str
    path: str
    meta: dict[str, Any] = field(default_factory=dict)
    summary: dict[str, Any] | None = None
    spans: list[dict[str, Any]] = field(default_factory=list)
    instants: list[dict[str, Any]] = field(default_factory=list)
    records: list[dict[str, Any]] = field(default_factory=list)
    lines: list[dict[str, Any]] = field(default_factory=list)
    """Raw JSONL events (empty for a Perfetto file)."""
    raw: dict[str, Any] | None = None
    """Raw ``trace_events`` object (``None`` for a JSONL file)."""


def _load_jsonl(path: str, lines: list[dict[str, Any]]) -> LoadedTrace:
    trace = LoadedTrace(format="jsonl", path=path, lines=lines)
    for ev in lines:
        typ = ev.get("type")
        if typ == "meta":
            trace.meta = ev
        elif typ == "span":
            trace.spans.append(ev)
        elif typ == "instant":
            trace.instants.append(ev)
        elif typ == "record":
            trace.records.append(ev)
        elif typ == "summary":
            trace.summary = ev.get("summary")
            trace.meta.setdefault("wall_total", ev.get("wall_total"))
            trace.meta.setdefault("sim_total", ev.get("sim_total"))
    return trace


def _load_perfetto(path: str, data: dict[str, Any]) -> LoadedTrace:
    trace = LoadedTrace(format="perfetto", path=path, raw=data)
    other = data.get("otherData") or {}
    trace.meta = {"type": "meta", **other}
    trace.summary = other.get("summary")
    by_step: dict[int, dict[str, Any]] = {}
    for ev in data.get("traceEvents", []):
        ph = ev.get("ph")
        if ph == "X" and ev.get("pid") == 0:
            trace.spans.append(
                {
                    "type": "span",
                    "name": ev.get("name"),
                    "cat": ev.get("cat"),
                    "ts": (ev.get("ts") or 0) / 1e6,
                    "dur": (ev.get("dur") or 0) / 1e6,
                    "sim_ts": None,
                    "sim_dur": (ev.get("args") or {}).get("sim_dur_s"),
                    "args": ev.get("args") or {},
                }
            )
        elif ph == "i":
            trace.instants.append(
                {
                    "type": "instant",
                    "name": ev.get("name"),
                    "ts": (ev.get("ts") or 0) / 1e6,
                    "sim_ts": None,
                    "args": ev.get("args") or {},
                }
            )
        elif ph == "X" and ev.get("pid") == 2:
            args = ev.get("args") or {}
            step = args.get("step")
            if step is None:
                continue
            rec = by_step.setdefault(
                step,
                {
                    "type": "record",
                    "step": step,
                    "kind": ev.get("name"),
                    "phase": ev.get("cat"),
                    "ts": None,
                    "wall_dt": None,
                    "sim_ts": (ev.get("ts") or 0) / 1e6,
                    "sim_dt": 0.0,
                    "rank_sim": {},
                },
            )
            sim = (ev.get("dur") or 0) / 1e6
            rec["rank_sim"][ev.get("tid")] = sim
            # The busiest rank bounds the step — a faithful proxy for the
            # priced duration when wall data isn't in the file.
            rec["sim_dt"] = max(rec["sim_dt"], sim)
    num_ranks = trace.meta.get("num_ranks") or (
        max((max(r["rank_sim"], default=-1) for r in by_step.values()), default=-1)
        + 1
    )
    for step in sorted(by_step):
        rec = by_step[step]
        rec["rank_sim"] = [
            rec["rank_sim"].get(r, 0.0) for r in range(num_ranks)
        ]
        trace.records.append(rec)
    return trace


def load_trace(path: str) -> LoadedTrace:
    """Load a trace file, auto-detecting JSONL vs. Perfetto JSON."""
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if not stripped:
        raise ValueError(f"{path}: empty trace file")
    try:
        first_obj = json.loads(stripped.splitlines()[0])
    except json.JSONDecodeError:
        first_obj = None  # multi-line JSON (e.g. pretty-printed Perfetto)
    if isinstance(first_obj, dict) and "type" in first_obj:
        lines = [
            json.loads(line) for line in text.splitlines() if line.strip()
        ]
        return _load_jsonl(path, lines)
    data = json.loads(text)
    if isinstance(data, dict) and "traceEvents" in data:
        return _load_perfetto(path, data)
    raise ValueError(f"{path}: neither a JSONL event log nor a trace_events file")


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _phase_table(records: list[dict[str, Any]]) -> str:
    phases: dict[str, dict[str, float]] = {}
    for rec in records:
        agg = phases.setdefault(
            rec["phase"], {"records": 0, "wall": 0.0, "sim": 0.0}
        )
        agg["records"] += 1
        agg["wall"] += rec.get("wall_dt") or 0.0
        agg["sim"] += rec.get("sim_dt") or 0.0
    have_wall = any(rec.get("wall_dt") is not None for rec in records)
    rows = []
    for phase in sorted(phases):
        agg = phases[phase]
        row = {"phase": phase, "records": int(agg["records"])}
        if have_wall:
            row["wall_ms"] = agg["wall"] * 1e3
        row["sim_us"] = agg["sim"] * 1e6
        rows.append(row)
    return format_table(rows, title="time by phase:")


def _rank_table(records: list[dict[str, Any]], sim_total: float | None) -> str:
    busy: list[float] = []
    for rec in records:
        for r, sim in enumerate(rec.get("rank_sim") or []):
            while len(busy) <= r:
                busy.append(0.0)
            busy[r] += sim
    rows = []
    for r, sim in enumerate(busy):
        row = {"rank": r, "busy_us": sim * 1e6}
        if sim_total:
            row["busy_frac"] = sim / sim_total
        rows.append(row)
    return format_table(rows, title="per-rank simulated busy time:")


def _span_table(spans: list[dict[str, Any]], top: int) -> str:
    ranked = sorted(spans, key=lambda s: s.get("dur") or 0.0, reverse=True)
    rows = []
    for ev in ranked[:top]:
        sim_dur = ev.get("sim_dur")
        rows.append(
            {
                "span": ev["name"],
                "cat": ev["cat"],
                "wall_ms": (ev.get("dur") or 0.0) * 1e3,
                "sim_us": "" if sim_dur is None else sim_dur * 1e6,
                "records": (ev.get("args") or {}).get("records", ""),
            }
        )
    return format_table(rows, title=f"top {min(top, len(ranked))} spans by wall time:")


def render_report(trace: LoadedTrace, *, top: int = 15) -> str:
    """Render the full text report for a loaded trace."""
    meta = trace.meta
    head = [f"trace report: {trace.path} ({trace.format})"]
    wall = meta.get("wall_total")
    sim = meta.get("sim_total")
    if wall is not None:
        head.append(f"wall time: {wall * 1e3:.2f} ms")
    if sim is not None:
        head.append(f"simulated time: {sim * 1e3:.4f} ms")
    head.append(
        f"ranks: {meta.get('num_ranks', '?')}  "
        f"spans: {len(trace.spans)}  records: {len(trace.records)}  "
        f"instants: {len(trace.instants)}"
    )
    parts = ["\n".join(head)]
    if trace.summary:
        keys = (
            "relaxations", "buckets", "phases",
            "short_phases", "long_phases", "bf_phases",
            "hybrid_switch_bucket", "degraded",
        )
        row = {k: trace.summary[k] for k in keys if k in trace.summary}
        if row:
            parts.append(format_table([row], title="run summary:"))
    if trace.records:
        parts.append(_phase_table(trace.records))
        parts.append(_rank_table(trace.records, sim))
    if trace.spans:
        parts.append(_span_table(trace.spans, top))
    return "\n\n".join(parts)
