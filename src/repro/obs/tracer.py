"""Span tracer: nested spans, per-record dual clocks, per-rank attribution.

One :class:`Tracer` instance accompanies one solve. It keeps two clocks:

- the **wall clock** — ``time.perf_counter`` relative to tracer creation,
  measuring what the Python simulator actually spends;
- the **simulated clock** — the cumulative α–β price of the record stream
  (:func:`repro.runtime.costmodel.price_record`), the time the modelled
  machine would spend.

Engines open nested spans (solve → bucket epoch → phase → superstep) and
emit instant events (checkpoints, hybrid-switch checks, push/pull
decisions, crashes, retransmissions); the metrics sink forwards every
:class:`~repro.runtime.metrics.StepRecord` together with its per-rank
work/traffic arrays, from which the tracer derives *per-rank simulated
durations* — the data behind the one-track-per-rank Perfetto view. Each
record also carries the wall-clock delta since the previous record. The
record events are the one store of per-kind counts: :meth:`Tracer.finish`
folds the registry's per-kind counters from them —
``sssp_{records,wall_seconds,sim_seconds}_total{kind}``, from which the
wall/simulated ratio of each kind can be read.

Everything here is pay-for-use: when no :class:`TraceConfig` is attached to
the solver configuration, no tracer exists and every hook site is a single
``is not None`` check.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.obs.registry import MetricsRegistry
from repro.runtime.costmodel import _compute_unit_cost, price_record
from repro.runtime.machine import MachineConfig

__all__ = ["TraceConfig", "Tracer"]

TRACE_FORMATS = ("jsonl", "perfetto")
"""Supported on-disk trace formats."""


@dataclass(frozen=True)
class TraceConfig:
    """Telemetry knobs of one solve (attached as ``SolverConfig.trace``).

    Attributes
    ----------
    path:
        Trace output file; ``None`` keeps events in memory only (useful
        for benches and tests that read the tracer object directly).
    format:
        ``"jsonl"`` — newline-delimited event log; ``"perfetto"`` — Chrome
        ``trace_events`` JSON loadable in ``ui.perfetto.dev``.
    metrics_path:
        Optional Prometheus text-exposition dump of the metrics registry.

    A solve without telemetry passes ``trace=None``.
    """

    path: str | None = None
    format: str = "jsonl"
    metrics_path: str | None = None

    def __post_init__(self) -> None:
        if self.format not in TRACE_FORMATS:
            raise ValueError(
                f"unknown trace format {self.format!r}; "
                f"choose from {TRACE_FORMATS}"
            )


class Tracer:
    """Event recorder for one solve (see module docstring).

    Event stream entries (``self.events``, in emission order) are plain
    dicts with a ``type`` discriminator:

    - ``span``: ``name``, ``cat``, ``ts``/``dur`` (wall seconds),
      ``sim_ts``/``sim_dur`` (simulated seconds), ``depth``, ``args``;
    - ``instant``: ``name``, ``ts``, ``sim_ts``, ``args``;
    - ``record``: ``step``, ``kind``, ``phase``, ``ts``, ``wall_dt``,
      ``sim_ts``, ``sim_dt``, ``rank_sim`` (per-rank simulated seconds).
    """

    def __init__(self, machine: MachineConfig, config: TraceConfig) -> None:
        self.machine = machine
        self.config = config
        self.registry = MetricsRegistry()
        self.events: list[dict[str, Any]] = []
        self.num_records = 0
        self.cum_bytes = 0
        self.cum_relax = 0
        self.sim_t = 0.0
        self.wall_total: float | None = None
        self.summary: dict[str, Any] | None = None
        self.artifacts: dict[str, str] = {}
        """Paths written by :func:`repro.obs.export.finalize_trace`."""
        self.finished = False
        self._stack: list[dict[str, Any]] = []
        self._unit_cache: dict[str, float] = {}
        # Relaxations by kind (record events do not carry them), flushed
        # once in :meth:`finish`.
        self._kind_relax: dict[str, int] = {}
        self.cum_allreduces = 0
        self._t0 = time.perf_counter()
        self._last_mark = 0.0

    # ------------------------------------------------------------------
    # Clocks
    # ------------------------------------------------------------------
    def wall_now(self) -> float:
        """Wall seconds since tracer creation."""
        return time.perf_counter() - self._t0

    def _attribute_wall(self) -> tuple[float, float]:
        """Advance the attribution mark; returns (now, delta since mark).

        Records are emitted immediately after the numpy work that produced
        them, so the delta since the previous record is that record's wall
        cost, summed per kind beside its price at :meth:`finish`.
        """
        now = self.wall_now()
        dt = now - self._last_mark
        self._last_mark = now
        return now, dt

    # ------------------------------------------------------------------
    # Spans and instants
    # ------------------------------------------------------------------
    def begin(self, name: str, *, cat: str = "span", **args) -> dict[str, Any]:
        """Open a nested span; returns the (mutable) span event."""
        ev: dict[str, Any] = {
            "type": "span",
            "name": name,
            "cat": cat,
            "ts": self.wall_now(),
            "dur": None,
            "sim_ts": self.sim_t,
            "sim_dur": None,
            "depth": len(self._stack),
            "args": dict(args),
            "_rec0": self.num_records,
            "_bytes0": self.cum_bytes,
            "_relax0": self.cum_relax,
        }
        self.events.append(ev)
        self._stack.append(ev)
        return ev

    def end(self, span: dict[str, Any], **args) -> None:
        """Close a span opened by :meth:`begin`; extra args are merged.

        The span's delta counters (records, bytes, relaxations that
        happened inside it) are filled in here.
        """
        if span.get("dur") is not None:
            return
        if span in self._stack:
            while self._stack[-1] is not span:
                # Defensive: close any child left open (e.g. by an exception).
                self.end(self._stack[-1])
            self._stack.pop()
        span["dur"] = self.wall_now() - span["ts"]
        span["sim_dur"] = self.sim_t - span["sim_ts"]
        span["args"].update(args)
        span["args"].setdefault("records", self.num_records - span.pop("_rec0"))
        span["args"].setdefault("bytes", self.cum_bytes - span.pop("_bytes0"))
        span["args"].setdefault(
            "relaxations", self.cum_relax - span.pop("_relax0")
        )
        if span["cat"] == "epoch":
            self.registry.observe(
                "sssp_epoch_wall_seconds",
                span["dur"],
                help="wall-clock duration of bucket epochs",
            )

    @contextmanager
    def span(self, name: str, *, cat: str = "span", **args):
        """Context-manager form of :meth:`begin`/:meth:`end`."""
        ev = self.begin(name, cat=cat, **args)
        try:
            yield ev
        finally:
            self.end(ev)

    def instant(self, name: str, **args) -> None:
        """Emit a zero-duration event (checkpoint, decision, crash, ...)."""
        self.events.append(
            {
                "type": "instant",
                "name": name,
                "ts": self.wall_now(),
                "sim_ts": self.sim_t,
                "args": dict(args),
            }
        )

    # ------------------------------------------------------------------
    # Record hooks (called by Metrics.add_*)
    # ------------------------------------------------------------------
    def _unit(self, kind: str) -> float:
        unit = self._unit_cache.get(kind)
        if unit is None:
            unit = self._unit_cache[kind] = _compute_unit_cost(
                kind, self.machine
            )
        return unit

    def _emit_record(self, rec, rank_sim: np.ndarray) -> None:
        now, wall_dt = self._attribute_wall()
        sim_dt = price_record(rec, self.machine)
        self.events.append(
            {
                "type": "record",
                "step": self.num_records,
                "kind": rec.kind,
                "phase": rec.phase_kind,
                "ts": now,
                "wall_dt": wall_dt,
                "sim_ts": self.sim_t,
                "sim_dt": sim_dt,
                "rank_sim": rank_sim.tolist(),
            }
        )
        self.sim_t += sim_dt
        self.num_records += 1
        self.cum_bytes += rec.bytes_total
        self.cum_allreduces += rec.allreduces

    def on_compute(self, rec, thread_work: np.ndarray, relax_count: int) -> None:
        """Record hook for compute steps; ``thread_work`` is the per-thread
        work array (length P×T) the step was charged from."""
        p = self.machine.num_ranks
        t = self.machine.threads_per_rank
        rank_sim = np.asarray(thread_work, dtype=np.float64).reshape(
            p, t
        ).max(axis=1) * self._unit(rec.kind)
        self.cum_relax += relax_count
        if relax_count:
            self._kind_relax[rec.kind] = (
                self._kind_relax.get(rec.kind, 0) + relax_count
            )
        self._emit_record(rec, rank_sim)

    def on_exchange(
        self, rec, msgs_per_rank: np.ndarray, bytes_per_rank: np.ndarray
    ) -> None:
        """Record hook for exchanges; per-rank arrays carry the α–β split."""
        rank_sim = (
            self.machine.alpha * np.asarray(msgs_per_rank, dtype=np.float64)
            + self.machine.beta * np.asarray(bytes_per_rank, dtype=np.float64)
        )
        self._emit_record(rec, rank_sim)

    def on_allreduce(self, rec) -> None:
        """Record hook for allreduces (uniform across ranks by the model)."""
        dt = price_record(rec, self.machine)
        rank_sim = np.full(self.machine.num_ranks, dt)
        self._emit_record(rec, rank_sim)

    # ------------------------------------------------------------------
    # End of run
    # ------------------------------------------------------------------
    def _per_kind(self) -> dict[str, tuple[int, float, float]]:
        """``(records, wall_s, sim_s)`` of each record kind, in order of its
        first record, summed off the record events in record order."""
        sums: dict[str, tuple[int, float, float]] = {}
        for ev in self.events:
            if ev["type"] == "record":
                records, wall, sim = sums.get(ev["kind"], (0, 0.0, 0.0))
                sums[ev["kind"]] = records + 1, wall + ev["wall_dt"], sim + ev["sim_dt"]
        return sums

    def finish(self, metrics=None) -> None:
        """Seal the trace: close open spans, fold the per-kind counters and
        bake the gauges.

        Idempotent; engines call it when the solve returns and
        :func:`repro.obs.export.finalize_trace` calls it defensively
        before writing.
        """
        if self.finished:
            return
        while self._stack:
            self.end(self._stack[-1])
        self.wall_total = self.wall_now()
        reg = self.registry
        per_kind = self._per_kind()
        for kind in sorted(per_kind):
            records, wall, sim = per_kind[kind]
            reg.inc("sssp_records_total", records, kind=kind,
                    help="step records by kind")
            reg.inc("sssp_wall_seconds_total", wall, kind=kind,
                    help="wall-clock seconds attributed to records, by kind")
            reg.inc("sssp_sim_seconds_total", sim, kind=kind,
                    help="simulated seconds priced by the cost model, by kind")
        for kind in sorted(self._kind_relax):
            reg.inc("sssp_relaxations_total", self._kind_relax[kind],
                    kind=kind, help="relaxations by compute kind")
        if self.cum_bytes:
            reg.inc("sssp_bytes_total", self.cum_bytes,
                    help="bytes moved across the simulated network")
        if self.cum_allreduces:
            reg.inc("sssp_allreduces_total", self.cum_allreduces,
                    help="small allreduce operations")
        if metrics is not None:
            self.summary = dict(metrics.summary())
            for key, value in self.summary.items():
                if isinstance(value, bool):
                    value = int(value)
                if isinstance(value, (int, float)):
                    reg.set_gauge(f"sssp_{key}", value,
                                  help=f"Metrics.summary() field {key!r}")
        reg.set_gauge("sssp_wall_seconds", self.wall_total,
                      help="wall-clock duration of the solve")
        reg.set_gauge("sssp_simulated_seconds", self.sim_t,
                      help="total simulated seconds of the solve")
        self.finished = True
