"""Observability: span tracing, metrics registry, exporters.

Pay-for-use telemetry for both engines. A run configured with a
:class:`~repro.obs.tracer.TraceConfig` (via ``SolverConfig.trace`` or the
``trace=`` keyword of the solver front-ends) records nested spans
(solve → bucket epoch → phase → superstep), per-record wall-clock and
simulated durations, and a counters/gauges/histograms registry with
Prometheus text exposition — among it the per-kind record, wall-second
and simulated-second counters that price each kind against the cost
model. With tracing off (the default) no hook executes: distances,
metrics and simulated cost are bit-identical to an uninstrumented run —
the same discipline as the invariant guards and the checkpoint layer.

Modules
-------
- :mod:`repro.obs.tracer` — :class:`TraceConfig`, :class:`Tracer`, spans.
- :mod:`repro.obs.registry` — :class:`MetricsRegistry` (Prometheus text,
  histogram exemplars).
- :mod:`repro.obs.request` — :class:`RequestContext` (request-scoped
  serving-plane context behind wide events, DESIGN.md §14).
- :mod:`repro.obs.promcheck` — Prometheus text-exposition validator.
- :mod:`repro.obs.export` — JSONL / Chrome-Perfetto / Prometheus writers.
- :mod:`repro.obs.report` — trace loading and the text report renderer.
"""

from repro.obs.registry import MetricsRegistry
from repro.obs.request import RequestContext
from repro.obs.tracer import TraceConfig, Tracer

__all__ = [
    "MetricsRegistry",
    "RequestContext",
    "TraceConfig",
    "Tracer",
]
