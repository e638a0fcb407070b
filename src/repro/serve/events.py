"""Wide events: one structured record per completed request (DESIGN.md §14).

A *wide event* is the serving plane's unit of observability: instead of
scattering a request's story across a dozen counters and log lines, the
broker folds the :class:`~repro.obs.request.RequestContext` it threaded
through every layer into **one** JSON object —
admission verdict, cache tier, batch ids and queue waits, every solve
attempt with its breaker decision and chaos draw, the degradation tier,
the final outcome/source and wall latency; a request the lineage tier
answered (``cache_tier="lineage"``, ``source="repair"``) also carries
``lineage``: the ancestor snapshot id, hop count and dirtied vertices.
The journey harness
reconciles these against tracer spans, registry counters and the SLO
window; ``serve-top`` tails them for its "recent requests" pane.

The fold happens when the stream is read, not at terminal completion:
the broker emits exactly one *record* per request — the context's
``wide_event`` with its terminal arguments bound — and
:class:`WideEventLog` turns a record into its dict the first time
:meth:`~WideEventLog.events`, :meth:`~WideEventLog.tail`,
:meth:`~WideEventLog.write` or :meth:`~WideEventLog.canonical_text` reaches
it, keeping the dict in its place. A dict emitted as such (tests, the
dashboard) is its own fold.

Determinism contract: under a seeded chaos plan and deterministic
submission order (manual broker or one closed-loop client), the event
stream is **replay-identical** — :func:`canonical_text` strips the
``timing`` subtree (the only nondeterministic fields) and sorts by
request id, and CI diffs the canonical text of two identically-seeded
runs byte for byte (``python -m repro.serve.events FILE --canonical``).

Zero-cost when disabled: the broker only mints request contexts when an
event log (or tracer) is attached, so the disabled path adds a single
``is None`` check per decision site.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Any, Callable, Iterable, Union

__all__ = [
    "WideEventLog",
    "canonical_event",
    "canonical_text",
    "read_events",
]

#: what ``emit`` takes: the event, or a record that builds it when read
Event = Union[dict[str, Any], Callable[[], dict[str, Any]]]

#: Fields excluded from the replay-identity comparison: wall timings are
#: the only nondeterministic part of an event.
TIMING_KEY = "timing"


def canonical_event(event: dict[str, Any]) -> dict[str, Any]:
    """The replay-comparable form of one event (timing stripped)."""
    return {k: v for k, v in event.items() if k != TIMING_KEY}


def canonical_text(events: Iterable[dict[str, Any]]) -> str:
    """Deterministic text rendering of an event stream.

    Events are sorted by request id (completion *order* may vary with
    thread scheduling; the *set* of events and their decision fields may
    not), timing is stripped, and keys are serialised sorted — so two
    replays of the same seed produce byte-identical output.
    """
    rows = sorted(
        (canonical_event(e) for e in events),
        key=lambda e: e.get("request_id", ""),
    )
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def read_events(path: str) -> list[dict[str, Any]]:
    """Load a wide-event JSONL file."""
    events: list[dict[str, Any]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


class WideEventLog:
    """In-memory sink for wide events, flushed to JSONL on demand.

    Thread-safe on ``emit`` (batch workers complete requests
    concurrently). ``capacity`` keeps the newest events, trimming one per
    emit past it. Each record is folded into its dict once, by the first
    read that reaches it; ``tail(n)`` folds at most ``n`` and serves the
    dashboard's recent-request pane without copying the whole stream.
    """

    def __init__(self, path: str | None = None, *, capacity: int | None = None):
        self.path = path
        self._events: deque[Event] = deque(maxlen=capacity)
        self._emitted = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    @property
    def emitted(self) -> int:
        """Total events emitted (monotone; unaffected by capacity)."""
        with self._lock:
            return self._emitted

    def emit(self, event: Event) -> None:
        with self._lock:
            self._events.append(event)
            self._emitted += 1

    def _newest(self, n: int) -> list[dict[str, Any]]:
        """The ``n`` newest retained events as dicts, oldest first; each
        fold replaces its record in place (lock held)."""
        events, rows = self._events, []
        n = min(n, len(events))
        events.rotate(n)  # the newest n to the front, then back in order
        for _ in range(n):
            event = events.popleft()
            rows.append(event if isinstance(event, dict) else event())
            events.append(rows[-1])
        return rows

    def events(self) -> list[dict[str, Any]]:
        """A snapshot copy of the retained events."""
        with self._lock:
            return self._newest(len(self._events))

    def tail(self, n: int) -> list[dict[str, Any]]:
        """The ``n`` most recently emitted retained events."""
        with self._lock:
            return self._newest(n) if n > 0 else []

    def canonical_text(self) -> str:
        """Replay-comparable rendering of the retained stream."""
        return canonical_text(self.events())

    def write(self, path: str | None = None) -> str:
        """Flush the retained events as JSONL; returns the path written."""
        target = path or self.path
        if target is None:
            raise ValueError("no path configured for wide-event log")
        rows = self.events()
        with open(target, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        return target


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.serve.events FILE [--canonical]``

    With ``--canonical``, print the replay-comparable form (CI diffs two
    of these byte for byte). Without, pretty-print a per-request summary
    table for eyeballing a run.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.serve.events", description="inspect a wide-event stream"
    )
    parser.add_argument("path", help="wide-event JSONL file")
    parser.add_argument(
        "--canonical",
        action="store_true",
        help="emit the canonical replay-comparable form (sorted, timing stripped)",
    )
    args = parser.parse_args(argv)
    events = read_events(args.path)
    if args.canonical:
        print(canonical_text(events), end="")
        return 0
    print(f"{len(events)} wide events")
    for ev in events:
        attempts = ev.get("attempts", [])
        draws = [a.get("draw") for a in attempts if a.get("draw")]
        lat = ev.get(TIMING_KEY, {}).get("latency_s", 0.0)
        lineage = ev.get("lineage")  # lineage-served requests only
        print(
            f"  {ev.get('request_id')} root={ev.get('root')} "
            f"outcome={ev.get('outcome')} source={ev.get('source')} "
            f"cache={ev.get('cache_tier')} attempts={len(attempts)} "
            f"draws={draws or '-'} latency={lat * 1e3:.2f}ms"
            + (" ancestor={ancestor} hops={hops} dirty={dirty}".format(**lineage)
               if lineage else "")
        )
    return 0


if __name__ == "__main__":  # pragma: no cover — exercised via CLI tests
    raise SystemExit(main())
