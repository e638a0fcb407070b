"""Trace exporters: JSONL event log, Chrome/Perfetto JSON, Prometheus text.

Three on-disk artifacts, all derived from one :class:`~repro.obs.tracer.Tracer`:

- **JSONL** (:func:`write_jsonl`) — one JSON object per line: a ``meta``
  header, then every span/instant/record event in emission order, then a
  ``summary`` trailer. Lossless; ``python -m repro trace-report`` renders it.
- **Perfetto** (:func:`write_perfetto`) — Chrome ``trace_events`` JSON
  loadable in ``ui.perfetto.dev`` or ``chrome://tracing``. Three process
  tracks: the measured wall-clock timeline, the cost-model timeline (the
  same spans at simulated timestamps) and one thread per simulated rank
  carrying per-record per-rank slices — real and simulated time render
  side by side.
- **Prometheus** (:func:`write_prometheus`) — the registry's text
  exposition, scrapable as a node-exporter-style file.

The ``validate_*`` functions are the schema checks CI's ``obs-smoke`` job
runs over the produced artifacts (via ``trace-report --validate``).
:func:`finalize_trace` is the one entry point the solver front-ends call:
it seals the tracer and writes whatever the :class:`TraceConfig` asks for.
"""

from __future__ import annotations

import json
from typing import Any

from repro.obs.tracer import Tracer

__all__ = [
    "write_jsonl",
    "perfetto_trace",
    "write_perfetto",
    "write_prometheus",
    "validate_jsonl",
    "validate_perfetto",
    "validate_trace_file",
    "finalize_trace",
]

JSONL_SCHEMA = 1
"""Version stamp of the JSONL event-log schema."""

_EVENT_TYPES = ("meta", "span", "instant", "record", "summary")

# Perfetto process ids (one "process" per timeline).
_PID_WALL = 0
_PID_COST = 1
_PID_RANKS = 2


def _meta_header(tracer: Tracer) -> dict[str, Any]:
    m = tracer.machine
    return {
        "type": "meta",
        "schema": JSONL_SCHEMA,
        "num_ranks": m.num_ranks,
        "threads_per_rank": m.threads_per_rank,
        "wall_total": tracer.wall_total,
        "sim_total": tracer.sim_t,
    }


def _summary_trailer(tracer: Tracer) -> dict[str, Any]:
    return {
        "type": "summary",
        "wall_total": tracer.wall_total,
        "sim_total": tracer.sim_t,
        "summary": tracer.summary,
    }


def write_jsonl(tracer: Tracer, path: str) -> None:
    """Write the full event stream as newline-delimited JSON."""
    with open(path, "w") as fh:
        for ev in (_meta_header(tracer), *tracer.events, _summary_trailer(tracer)):
            fh.write(json.dumps(ev, allow_nan=False) + "\n")


def perfetto_trace(tracer: Tracer) -> dict[str, Any]:
    """Build the Chrome ``trace_events`` JSON object (see module docstring).

    Timestamps and durations are microseconds as the format requires;
    ``otherData`` carries the run summary so a Perfetto
    file remains renderable by ``trace-report``.
    """
    us = 1e6
    events: list[dict[str, Any]] = []

    def meta(pid: int, name: str, tid: int | None = None) -> None:
        ev: dict[str, Any] = {
            "ph": "M",
            "pid": pid,
            "tid": 0 if tid is None else tid,
            "name": "process_name" if tid is None else "thread_name",
            "args": {"name": name},
        }
        events.append(ev)

    meta(_PID_WALL, "wall clock (measured)")
    meta(_PID_COST, "cost model (simulated)")
    meta(_PID_RANKS, "simulated ranks")
    num_ranks = tracer.machine.num_ranks
    for r in range(num_ranks):
        meta(_PID_RANKS, f"rank {r}", tid=r)

    for ev in tracer.events:
        if ev["type"] == "span":
            dur = ev["dur"] if ev["dur"] is not None else 0.0
            sim_dur = ev["sim_dur"] if ev["sim_dur"] is not None else 0.0
            args = {"sim_dur_s": sim_dur, **ev["args"]}
            events.append(
                {
                    "name": ev["name"],
                    "cat": ev["cat"],
                    "ph": "X",
                    "pid": _PID_WALL,
                    "tid": 0,
                    "ts": ev["ts"] * us,
                    "dur": dur * us,
                    "args": args,
                }
            )
            events.append(
                {
                    "name": ev["name"],
                    "cat": ev["cat"],
                    "ph": "X",
                    "pid": _PID_COST,
                    "tid": 0,
                    "ts": ev["sim_ts"] * us,
                    "dur": sim_dur * us,
                    "args": {"wall_dur_s": dur, **ev["args"]},
                }
            )
        elif ev["type"] == "instant":
            events.append(
                {
                    "name": ev["name"],
                    "cat": "instant",
                    "ph": "i",
                    "s": "p",
                    "pid": _PID_WALL,
                    "tid": 0,
                    "ts": ev["ts"] * us,
                    "args": ev["args"],
                }
            )
        elif ev["type"] == "record":
            for r, sim in enumerate(ev["rank_sim"]):
                if sim <= 0.0:
                    continue
                events.append(
                    {
                        "name": ev["kind"],
                        "cat": ev["phase"],
                        "ph": "X",
                        "pid": _PID_RANKS,
                        "tid": r,
                        "ts": ev["sim_ts"] * us,
                        "dur": sim * us,
                        "args": {"step": ev["step"], "phase": ev["phase"]},
                    }
                )

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": JSONL_SCHEMA,
            "num_ranks": num_ranks,
            "threads_per_rank": tracer.machine.threads_per_rank,
            "wall_total": tracer.wall_total,
            "sim_total": tracer.sim_t,
            "summary": tracer.summary,
        },
    }


def write_perfetto(tracer: Tracer, path: str) -> None:
    """Write the Chrome/Perfetto ``trace_events`` JSON file."""
    with open(path, "w") as fh:
        json.dump(perfetto_trace(tracer), fh, allow_nan=False)


def write_prometheus(tracer: Tracer, path: str) -> None:
    """Write the registry's Prometheus text exposition."""
    with open(path, "w") as fh:
        fh.write(tracer.registry.prometheus_text())


# ----------------------------------------------------------------------
# Validation (used by ``trace-report --validate`` and CI's obs-smoke job)
# ----------------------------------------------------------------------
def validate_jsonl(lines: list[dict[str, Any]]) -> list[str]:
    """Schema-check parsed JSONL events; returns a list of problems."""
    problems: list[str] = []
    if not lines:
        return ["empty trace"]
    if lines[0].get("type") != "meta":
        problems.append("first line is not a meta header")
    elif lines[0].get("schema") != JSONL_SCHEMA:
        problems.append(f"unknown schema {lines[0].get('schema')!r}")
    if lines[-1].get("type") != "summary":
        problems.append("last line is not a summary trailer")
    last_sim = -1.0
    for i, ev in enumerate(lines):
        typ = ev.get("type")
        if typ not in _EVENT_TYPES:
            problems.append(f"line {i}: unknown event type {typ!r}")
            continue
        if typ == "span":
            for field in ("name", "cat", "ts", "dur", "sim_ts", "sim_dur"):
                if ev.get(field) is None:
                    problems.append(f"line {i}: span missing {field!r}")
            if (ev.get("dur") or 0) < 0:
                problems.append(f"line {i}: negative span duration")
        elif typ == "record":
            for field in ("kind", "phase", "ts", "wall_dt", "sim_ts", "sim_dt"):
                if ev.get(field) is None:
                    problems.append(f"line {i}: record missing {field!r}")
            sim_ts = ev.get("sim_ts")
            if sim_ts is not None:
                if sim_ts < last_sim:
                    problems.append(
                        f"line {i}: simulated timestamps not monotone"
                    )
                last_sim = sim_ts
    return problems


def validate_perfetto(data: dict[str, Any]) -> list[str]:
    """Schema-check a ``trace_events`` JSON object; returns problems."""
    problems: list[str] = []
    if not isinstance(data, dict):
        return ["trace is not a JSON object"]
    events = data.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["traceEvents missing or empty"]
    processes: set[str] = set()
    rank_threads: set[int] = set()
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph not in ("X", "M", "i"):
            problems.append(f"event {i}: unknown phase {ph!r}")
            continue
        for field in ("name", "pid", "tid"):
            if field not in ev:
                problems.append(f"event {i}: missing {field!r}")
        if ph == "X":
            for field in ("ts", "dur"):
                if not isinstance(ev.get(field), (int, float)):
                    problems.append(f"event {i}: X event missing {field!r}")
                elif field == "dur" and ev[field] < 0:
                    problems.append(f"event {i}: negative duration")
        elif ph == "i":
            if not isinstance(ev.get("ts"), (int, float)):
                problems.append(f"event {i}: instant missing ts")
        elif ph == "M":
            name = (ev.get("args") or {}).get("name")
            if ev.get("name") == "process_name":
                processes.add(name)
            elif ev.get("name") == "thread_name" and ev.get("pid") == _PID_RANKS:
                rank_threads.add(ev.get("tid"))
    for expected in (
        "wall clock (measured)",
        "cost model (simulated)",
        "simulated ranks",
    ):
        if expected not in processes:
            problems.append(f"missing process track {expected!r}")
    other = data.get("otherData") or {}
    num_ranks = other.get("num_ranks")
    if num_ranks is not None and len(rank_threads) != num_ranks:
        problems.append(
            f"expected {num_ranks} rank threads, found {len(rank_threads)}"
        )
    return problems


def validate_trace_file(path: str) -> tuple[str, list[str]]:
    """Detect a trace file's format and schema-check it.

    Returns ``(format, problems)`` where format is ``"jsonl"`` or
    ``"perfetto"``; an unparsable file reports format ``"unknown"``.
    """
    from repro.obs.report import load_trace

    try:
        trace = load_trace(path)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        return "unknown", [f"cannot load trace: {exc}"]
    if trace.format == "perfetto":
        return "perfetto", validate_perfetto(trace.raw)
    return "jsonl", validate_jsonl(trace.lines)


# ----------------------------------------------------------------------
def finalize_trace(tracer: Tracer, metrics=None) -> dict[str, str]:
    """Seal the tracer and write the artifacts its config asks for.

    Called by the solver front-ends after the engine returns. Idempotent:
    a tracer that was already finalized keeps its recorded artifacts.
    Returns ``{"trace": path, "metrics": path}`` (keys only for artifacts
    actually written); the same mapping is stored as ``tracer.artifacts``.
    """
    already = tracer.finished
    tracer.finish(metrics=metrics)
    if already and tracer.artifacts:
        return tracer.artifacts
    cfg = tracer.config
    artifacts: dict[str, str] = {}
    if cfg.path is not None:
        if cfg.format == "perfetto":
            write_perfetto(tracer, cfg.path)
        else:
            write_jsonl(tracer, cfg.path)
        artifacts["trace"] = cfg.path
    if cfg.metrics_path is not None:
        write_prometheus(tracer, cfg.metrics_path)
        artifacts["metrics"] = cfg.metrics_path
    tracer.artifacts = artifacts
    return artifacts
