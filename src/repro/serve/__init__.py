"""Query-serving subsystem: batched SSSP service over the OPT engine.

The offline front-ends (:func:`~repro.core.solver.solve_sssp`,
:class:`~repro.core.solver.BatchSolver`) answer one solve at a time; this
package turns them into a *service* with the same shapes as an inference
stack — queueing, micro-batching, caching, backpressure:

- :class:`~repro.serve.broker.QueryBroker` — the request pipeline,
  wiring four policies: admission
  (:class:`~repro.serve.batcher.MicroBatcher` — a bounded FIFO queue; a
  free worker takes every ready request, no batch-formation window),
  attempts (:class:`~repro.serve.attempt.AttemptRunner`), snapshots
  (:class:`~repro.serve.snapshots.Snapshots`) and telemetry
  (:class:`~repro.serve.accounting.ServeAccounting`);
- :class:`~repro.serve.cache.DistanceCache` — byte-budgeted LRU of
  distance arrays whose hits are bit-identical to fresh solves;
- :class:`~repro.serve.workload.WorkloadSpec` /
  :func:`~repro.serve.workload.run_workload` — open/closed-loop arrival
  processes with Zipf-skewed root popularity;
- :class:`~repro.serve.slo.SloPolicy` — p50/p99/hit-rate/shed verdicts
  over ``report()``, whose exact percentiles come from the broker's
  bounded :class:`~repro.serve.slo.LatencyWindow`;
- :class:`~repro.serve.events.WideEventLog` — one wide event per request
  (DESIGN.md §14).

Quickstart::

    from repro import rmat_graph
    from repro.serve import QueryBroker

    g = rmat_graph(scale=14, seed=1)
    with QueryBroker(g, algorithm="opt", delta=25, num_ranks=8) as broker:
        result = broker.query(root=0)            # full distance array
        hit = broker.query(root=0)               # served from cache
        assert hit.cached and (hit.distances == result.distances).all()

See DESIGN.md §11 for the architecture and overload policy.
"""

from repro.serve.batcher import MicroBatcher
from repro.serve.breaker import BreakerConfig, CircuitBreaker
from repro.serve.broker import QueryBroker
from repro.serve.cache import CacheStats, DistanceCache
from repro.serve.chaos import ChaosEvent, ChaosPlan, ChaosSolver, InjectedFault
from repro.serve.events import WideEventLog, canonical_text
from repro.serve.request import (
    QueryFuture,
    QueryRequest,
    QueryResult,
    ServiceOverload,
    ServiceShutdown,
    ServiceUnavailable,
    SolveCorrupted,
)
from repro.serve.retry import RetryPolicy
from repro.serve.slo import LatencyWindow, SloPolicy, percentile
from repro.serve.workload import (
    WorkloadSpec,
    interarrival_times,
    root_sequence,
    run_workload,
    zipf_weights,
)

__all__ = [
    "BreakerConfig",
    "CacheStats",
    "ChaosEvent",
    "ChaosPlan",
    "ChaosSolver",
    "CircuitBreaker",
    "DistanceCache",
    "InjectedFault",
    "LatencyWindow",
    "MicroBatcher",
    "QueryBroker",
    "QueryFuture",
    "QueryRequest",
    "QueryResult",
    "RetryPolicy",
    "ServiceOverload",
    "ServiceShutdown",
    "ServiceUnavailable",
    "SloPolicy",
    "SolveCorrupted",
    "WideEventLog",
    "WorkloadSpec",
    "canonical_text",
    "interarrival_times",
    "percentile",
    "root_sequence",
    "run_workload",
    "zipf_weights",
]
