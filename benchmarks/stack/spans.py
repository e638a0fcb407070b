"""The benchmark's own span recorder (not ``repro.obs``).

A span is ``{id, parent, name, layer, op_id, start, end}``: one call the
benchmark made into a layer, or one call that went through a proxy the
benchmark installed (:meth:`Recorder.wrap`). Spans stay in memory and are
written as JSONL when the run ends. What a call cost by itself is its span's
*self* time: the span's duration minus the part of it that its child spans
cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

__all__ = ["Span", "Recorder", "self_times"]

_MISSING = object()


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    op_id: object
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start


class _OpenSpan:
    """Context manager closing one span; ``recorder.span(...)`` returns it."""

    __slots__ = ("_recorder", "span")

    def __init__(self, recorder: "Recorder", span: Span) -> None:
        self._recorder = recorder
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc_info) -> None:
        self._recorder._close(self.span)


class Recorder:
    """Collects spans from every thread; parents are tracked per thread."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _open(self, name: str, layer: str, op_id=None) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        if op_id is None and parent is not None:
            op_id = parent.op_id
        span = Span(
            next(self._ids),
            parent.id if parent is not None else None,
            name,
            layer,
            op_id,
            self.clock(),
        )
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._local.stack.pop()
        self.spans.append(span)

    def span(self, name: str, layer: str, op_id=None) -> _OpenSpan:
        """``with recorder.span("solve", "core", op_id=i): ...``"""
        return _OpenSpan(self, self._open(name, layer, op_id))

    # -- proxies --------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, layer: str, capture=None) -> None:
        """Replace ``owner.attr`` (module function, class method or bound
        method of one instance) by a proxy that records a span around
        each call. ``capture`` collects the return values.
        :meth:`restore` puts every original back."""
        original = getattr(owner, attr)
        previous = vars(owner).get(attr, _MISSING)

        def proxy(*args, **kwargs):
            span = self._open(name, layer)
            try:
                out = original(*args, **kwargs)
            finally:
                self._close(span)
            if capture is not None:
                capture.append(out)
            return out

        proxy.__wrapped__ = original
        self._patches.append((owner, attr, previous))
        setattr(owner, attr, proxy)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, most recent first."""
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # -- reading --------------------------------------------------------
    def durations(self, layer: str, name: str, since: int = 0) -> list[float]:
        return [
            s.duration for s in self.spans[since:]
            if s.layer == layer and s.name == name
        ]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "parent": s.parent,
                            "name": s.name,
                            "layer": s.layer,
                            "op_id": s.op_id,
                            "start": s.start,
                            "end": s.end,
                        }
                    )
                    + "\n"
                )


def self_times(spans) -> dict[int, float]:
    """Self time per span id: duration minus the union of the child
    intervals, each clipped to the parent's own interval."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out: dict[int, float] = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo = max(c.start, reach)
            hi = min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out
