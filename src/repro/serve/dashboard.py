"""serve-top: a live terminal dashboard over the serving plane (§14).

Renders the broker's registry counters, latency window, breaker states,
burn rate and recent wide events as a refreshing ``top``-style text
frame. Split pure-function style for testability: :func:`snapshot` reads
everything once into a plain dict (computing instantaneous rates against
the previous snapshot), :func:`render` turns a snapshot into the frame
text, and :func:`run` loops the two with ANSI clear-and-home between
frames. The CLI's ``serve-top`` subcommand drives :func:`run` while a
background workload exercises the broker.

Read-side only: a dashboard never mutates broker state, so watching a
service cannot perturb it.
"""

from __future__ import annotations

import sys
import time

from repro.obs.burnrate import OK_SOURCES
from repro.serve.slo import percentile

__all__ = ["snapshot", "render", "run"]

#: ANSI clear screen + cursor home (the classic ``top`` refresh).
CLEAR = "\x1b[2J\x1b[H"

_LADDER_GLYPH = {"closed": "·", "half-open": "◐", "open": "●"}


def snapshot(broker, *, monitor=None, prev=None) -> dict:
    """One consistent read of everything the dashboard shows.

    ``prev`` (the previous snapshot) turns cumulative counters into
    instantaneous rates over the refresh interval; with ``None`` the
    rate fields fall back to run-lifetime averages.
    """
    report = broker.report()
    now = report["wall_s"]  # seconds on the broker's clock since it started
    snap: dict = {"t": now, "report": report}

    completed = report.get("completed", 0)
    offered = report.get("offered", 0)
    retries = report.get("retries", 0)
    shed = report.get("shed", 0)
    if prev is not None and now > prev["t"]:
        dt = now - prev["t"]
        prev_report = prev["report"]
        snap["qps"] = (completed - prev_report.get("completed", 0)) / dt
    else:
        snap["qps"] = report.get("throughput_qps", 0.0)
    hits = report.get("outcome_cache", 0)
    snap["hit_rate"] = hits / completed if completed else 0.0
    snap["shed_rate"] = shed / offered if offered else 0.0
    snap["retry_rate"] = retries / offered if offered else 0.0

    by_source: dict[str, dict[str, float]] = {}
    for source in OK_SOURCES:
        samples = broker.latency.samples(source)
        if samples:
            by_source[source] = {
                "n": len(samples),
                "p50_s": percentile(samples, 50),
                "p99_s": percentile(samples, 99),
            }
    snap["latency_by_source"] = by_source

    snap["breaker"] = (
        broker.breaker.states() if broker.breaker is not None else {}
    )
    snap["chaos"] = (
        broker.chaos.summary() if broker.chaos is not None else {}
    )
    snap["burn"] = monitor.summary() if monitor is not None else None
    snap["recent"] = (
        broker.events.tail(5) if broker.events is not None else []
    )
    return snap


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:8.2f}ms"


def render(snap: dict) -> str:
    """Render one snapshot as the serve-top frame text."""
    report = snap["report"]
    lines = [
        "serve-top — SSSP serving plane",
        (
            f"  offered {report.get('offered', 0):>7}   "
            f"completed {report.get('completed', 0):>7}   "
            f"queue {report.get('queue_depth', 0):>4}   "
            f"batches {report.get('batches', 0):>6}   "
            f"mean batch {report.get('mean_batch_size', 0.0):5.2f}"
        ),
        (
            f"  qps {snap['qps']:9.1f}   "
            f"hit {snap['hit_rate'] * 100:5.1f}%   "
            f"shed {snap['shed_rate'] * 100:5.1f}%   "
            f"retry {snap['retry_rate'] * 100:5.1f}%   "
            f"hedges {report.get('hedges', 0):>4}"
        ),
        "",
        "  latency by source        n        p50        p99",
    ]
    for source, row in snap["latency_by_source"].items():
        lines.append(
            f"    {source:<18} {int(row['n']):>7} "
            f"{_fmt_ms(row['p50_s'])} {_fmt_ms(row['p99_s'])}"
        )
    if not snap["latency_by_source"]:
        lines.append("    (no completed requests yet)")

    if snap["breaker"]:
        states = "   ".join(
            f"{cls} {_LADDER_GLYPH.get(state, '?')} {state}"
            for cls, state in sorted(snap["breaker"].items())
        )
        lines += ["", f"  breaker   {states}"]
    if snap["chaos"]:
        injected = "  ".join(
            f"{kind}={count}" for kind, count in sorted(snap["chaos"].items())
        )
        lines.append(f"  chaos     {injected}")

    burn = snap.get("burn")
    if burn is not None:
        def _burn(value: float) -> str:
            return "   n/a" if value != value else f"{value:6.2f}x"

        lines += [
            "",
            (
                f"  burn rate (objective {burn['objective'] * 100:.1f}%)   "
                f"fast {_burn(burn['burn_fast'])} "
                f"({burn['burn_fast_bad']}/{burn['burn_fast_total']} bad)   "
                f"slow {_burn(burn['burn_slow'])} "
                f"({burn['burn_slow_bad']}/{burn['burn_slow_total']} bad)"
            ),
        ]
        for alert in burn["alerts"]:
            lines.append(f"  ALERT {alert}")

    if snap["recent"]:
        lines += ["", "  recent requests"]
        for ev in snap["recent"]:
            attempts = ev.get("attempts", [])
            lat = ev.get("timing", {}).get("latency_s", 0.0)
            lines.append(
                f"    {ev.get('request_id'):<12} root={ev.get('root'):<8} "
                f"{ev.get('outcome'):<12} src={str(ev.get('source')):<10} "
                f"attempts={len(attempts)} {_fmt_ms(lat)}"
            )
    return "\n".join(lines) + "\n"


def run(
    broker,
    *,
    monitor=None,
    refresh_s: float = 0.5,
    frames: int | None = None,
    clear: bool = True,
    out=None,
    should_stop=None,
) -> int:
    """Refresh loop: snapshot → render → sleep, until ``frames`` frames
    are drawn or ``should_stop()`` turns true. Returns frames drawn.
    ``clear=False`` appends frames instead of redrawing in place (CI and
    non-TTY logs)."""
    stream = out if out is not None else sys.stdout
    prev = None
    drawn = 0
    while frames is None or drawn < frames:
        snap = snapshot(broker, monitor=monitor, prev=prev)
        text = render(snap)
        stream.write((CLEAR + text) if clear else text + "\n")
        stream.flush()
        prev = snap
        drawn += 1
        if should_stop is not None and should_stop():
            break
        if frames is not None and drawn >= frames:
            break
        time.sleep(refresh_s)
    return drawn
