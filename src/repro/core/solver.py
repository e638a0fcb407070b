"""Unified SSSP front-end.

:func:`solve_sssp` is the package's main entry point: pick an algorithm
preset (or pass an explicit :class:`~repro.core.config.SolverConfig`), a
machine shape, a graph and a root — get back distances, the exact execution
counters, the simulated cost breakdown and simulated GTEPS.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.config import DELTA_FREE_PRESETS, SolverConfig, preset
from repro.core.context import make_context
from repro.core.delta_stepping import DeltaSteppingEngine
from repro.core.load_balance import split_heavy_vertices
from repro.core.reference import validate_distances
from repro.graph.csr import CSRGraph
from repro.runtime.costmodel import CostBreakdown, evaluate_cost, simulated_gteps
from repro.runtime.machine import MachineConfig
from repro.runtime.metrics import Metrics
from repro.util.ints import vertex_id

__all__ = ["SsspResult", "run_validation", "solve_sssp", "BatchSolver"]


def _resolve_preset(
    algorithm: str, delta: int, config: SolverConfig | None
) -> tuple[SolverConfig, str]:
    """(config, display name): an explicit ``config`` wins and keeps
    ``algorithm`` as its label; a preset is named ``{algorithm}-{delta}``
    unless Δ plays no role in it."""
    if config is not None:
        return config, algorithm
    if algorithm not in DELTA_FREE_PRESETS:
        return preset(algorithm, delta), f"{algorithm}-{delta}"
    return preset(algorithm, delta), algorithm


def run_validation(
    distances: np.ndarray,
    graph: CSRGraph,
    root: int,
    validate: bool | str,
) -> None:
    """Dispatch the post-solve distance check selected by ``validate``.

    ``False`` does nothing. ``True`` or ``"reference"`` cross-checks against
    the sequential Dijkstra reference (O(m log n) extra work). ``"structural"``
    runs the O(m) structural validator
    (:func:`repro.core.validation.validate_sssp_structure`) — no reference
    solve needed, so it scales to graphs where Dijkstra would dominate.
    Raises ``ValueError`` on an unknown mode, ``AssertionError`` /
    :class:`~repro.core.validation.ValidationError` on a failed check.
    """
    if validate is False:
        return
    if validate is True or validate == "reference":
        validate_distances(distances, graph, root)
    elif validate == "structural":
        from repro.core.validation import validate_sssp_structure

        validate_sssp_structure(graph, root, distances).raise_if_invalid()
    else:
        raise ValueError(
            f"unknown validate mode {validate!r} "
            "(expected False, True, 'reference' or 'structural')"
        )


@dataclass
class SsspResult:
    """Everything one SSSP run produced.

    ``distances`` is indexed by *original* vertex id even when inter-node
    vertex splitting rewrote the graph internally. ``gteps`` follows the
    Graph 500 convention (input edge count over simulated time).
    """

    distances: np.ndarray
    metrics: Metrics
    cost: CostBreakdown
    gteps: float
    algorithm: str
    config: SolverConfig
    machine: MachineConfig
    root: int
    num_vertices: int
    num_edges: int
    wall_time_s: float
    num_proxies: int = 0
    #: populated when the solve ran with ``paranoid`` invariant guards
    guards: object | None = None
    trace: object | None = None
    """The solve's :class:`repro.obs.tracer.Tracer` (finalized, with
    ``registry``/``artifacts`` filled in) when telemetry was
    configured; ``None`` otherwise."""

    @property
    def num_reached(self) -> int:
        """Vertices with a finite shortest distance (root included)."""
        from repro.core.distances import INF

        return int((self.distances < INF).sum())

    def summary(self) -> dict[str, float | int | str]:
        """Flat summary row for tables."""
        row: dict[str, float | int | str] = {
            "algorithm": self.algorithm,
            "n": self.num_vertices,
            "m": self.num_edges,
            "gteps": self.gteps,
            "time_s": self.cost.total_time,
            "bkt_s": self.cost.bucket_time,
            "other_s": self.cost.other_time,
        }
        row.update(self.metrics.summary())
        return row


def solve_sssp(
    graph: CSRGraph,
    root: int,
    *,
    algorithm: str = "opt",
    delta: int = 25,
    config: SolverConfig | None = None,
    machine: MachineConfig | None = None,
    num_ranks: int = 8,
    threads_per_rank: int = 8,
    validate: bool | str = False,
    faults=None,
    paranoid: bool = False,
    trace=None,
    **defence,
) -> SsspResult:
    """Solve single-source shortest paths on the simulated machine.

    Parameters
    ----------
    graph:
        Weighted undirected input graph.
    root:
        Source vertex (original id).
    algorithm:
        Preset name — ``dijkstra``, ``bellman-ford``, ``delta``, ``prune``,
        ``opt``, ``lb-opt``, ``lb-opt-split``, ``radius``, ``rho`` —
        ignored when ``config`` is given explicitly. ``radius`` and
        ``rho`` select the windowed stepping strategies of
        :mod:`repro.core.stepping`; Δ plays no role there.
    delta:
        Bucket width Δ for presets that take one.
    config:
        Explicit solver configuration (overrides ``algorithm``/``delta``).
    machine:
        Explicit machine model (overrides ``num_ranks``/``threads_per_rank``).
    num_ranks, threads_per_rank:
        Machine shape when ``machine`` is not given.
    validate:
        ``True`` (or ``"reference"``) cross-checks the distances against the
        sequential Dijkstra reference (O(m log n) extra work; intended for
        tests and examples); ``"structural"`` runs the O(m) structural
        validator instead, which needs no reference solve.
    faults:
        Optional :class:`~repro.spmd.faults.FaultPlan`. A plan needs a wire
        to break, so the same preset then runs on the rank driver
        (:func:`repro.spmd.engine.run_ranks`) through the fault-injecting
        reliable mailbox, and the solve's
        :class:`~repro.core.defence.Defence` restarts crashed ranks and
        heals; recovery overhead lands in the ``recovery_*`` counters and
        the recovered distances are bit-identical to the fault-free run's.
    paranoid:
        Enable the runtime invariant guards
        (:class:`~repro.runtime.guards.InvariantGuards`) for this solve.
    trace:
        Optional :class:`~repro.obs.tracer.TraceConfig` enabling the
        telemetry layer; artifacts are written at solve end and the
        finalized tracer is returned as ``result.trace``.
    defence:
        Durable checkpoints, resume and the deadline watchdog
        (``checkpoint_dir``, ``checkpoint_keep``, ``resume``,
        ``deadline``), documented on
        :class:`~repro.core.defence.Defence`.

    Returns
    -------
    :class:`SsspResult`
    """
    root = vertex_id(root, graph.num_vertices)
    config, algorithm = _resolve_preset(algorithm, delta, config)
    if paranoid and not config.paranoid:
        config = config.evolve(paranoid=True)
    if trace is not None:
        config = config.evolve(trace=trace)
    solver = BatchSolver(
        graph,
        algorithm=algorithm,
        config=config,
        machine=machine,
        num_ranks=num_ranks,
        threads_per_rank=threads_per_rank,
    )
    return solver._solve(root, validate=validate, faults=faults, **defence)


class BatchSolver:
    """Multi-root solver that pays the preprocessing once.

    ``solve_sssp`` is a one-shot ``BatchSolver``: it rebuilds the execution
    context — weight-sorted adjacency, short/long tables, partition,
    optional histograms and vertex splitting — on every call. Multi-root
    workloads share all of that across roots; this class builds it once
    and takes a :meth:`~repro.core.context.ExecutionContext.fork` per
    solve.

    Example::

        solver = BatchSolver(graph, algorithm="opt", delta=25, num_ranks=8)
        results = [solver.solve(r) for r in roots]

    Each solve still gets fresh metrics and accounting (runs are
    independent), but graph preprocessing is shared. A caller that wants
    one trace across several solves opens a
    :class:`~repro.obs.tracer.Tracer` and passes it as ``tracer=`` to each;
    the serving layer (:mod:`repro.serve`) solves one root per
    :meth:`solve` and records its request and batch spans on its own
    service tracer.
    """

    def __init__(
        self,
        graph: CSRGraph,
        *,
        algorithm: str = "opt",
        delta: int = 25,
        config: SolverConfig | None = None,
        machine: MachineConfig | None = None,
        num_ranks: int = 8,
        threads_per_rank: int = 8,
    ) -> None:
        config, algorithm = _resolve_preset(algorithm, delta, config)
        if machine is None:
            machine = MachineConfig(
                num_ranks=num_ranks, threads_per_rank=threads_per_rank
            )
        mapping = None
        work_graph = graph
        if config.inter_split:
            if not graph.undirected:
                raise ValueError(
                    "inter-node vertex splitting requires an undirected graph"
                )
            mean_degree = float(graph.degrees.mean()) if graph.num_vertices else 0.0
            threshold = config.derived_split_degree(mean_degree)
            mapping = split_heavy_vertices(graph, threshold)
            work_graph = mapping.graph
        # One context build sorts the graph and derives every table; each
        # solve forks it, renewing only the per-run state.
        self._adopt(
            graph, make_context(work_graph, machine, config), algorithm, mapping
        )

    @classmethod
    def from_context(cls, ctx, *, algorithm: str = "custom") -> "BatchSolver":
        """A solver over an already-prepared context, paying no preprocessing.

        For callers that hold a :func:`~repro.core.context.make_context`
        result for the graph anyway (the serving plane memoises one per
        snapshot for repair). ``ctx`` is used as the template and never
        run on. Results report ``ctx.graph`` — the weight-sorted
        equivalent of the graph the context was built from — as their
        graph. A vertex-splitting config is rejected: its context is of the
        split graph, and the id mapping back is not part of it.
        """
        if ctx.config.inter_split:
            raise ValueError(
                "from_context cannot serve a vertex-splitting config; "
                "build BatchSolver(graph, config=...) instead"
            )
        self = cls.__new__(cls)
        self._adopt(ctx.graph, ctx, algorithm, None)
        return self

    def _adopt(self, graph: CSRGraph, ctx, algorithm: str, mapping) -> None:
        self.algorithm = algorithm
        self.config = ctx.config
        self.machine = ctx.machine
        self._original_graph = graph
        self._mapping = mapping
        self.num_proxies = mapping.num_proxies if mapping is not None else 0
        self._template_ctx = ctx

    def solve(
        self,
        root: int,
        *,
        validate: bool | str = False,
        tracer=None,
        faults=None,
        **defence,
    ) -> SsspResult:
        """Solve from one root; metrics and accounting are per-call.

        ``faults`` (a :class:`~repro.spmd.faults.FaultPlan`) runs this
        solve on the rank driver under the plan, as in :func:`solve_sssp`.
        ``defence`` holds :class:`~repro.core.defence.Defence`'s options
        for this solve only — the serving layer passes ``deadline`` for
        per-request timeouts. ``tracer`` attaches a caller-owned tracer
        shared across solves; the caller opens its spans and finalizes it.
        """
        return self._solve(
            root, validate=validate, tracer=tracer, faults=faults, **defence
        )

    def _solve(
        self, root: int, *, validate: bool | str, tracer=None, faults=None,
        **defence,
    ) -> SsspResult:
        """The one place a solve is configured and its result assembled:
        a fork of the template context, run by the rank driver when a
        fault plan is given and by the whole-graph driver otherwise."""
        root = vertex_id(root, self._original_graph.num_vertices)
        ctx = self._template_ctx.fork(tracer)
        start_root = (
            int(self._mapping.new_id_of_original[root])
            if self._mapping is not None
            else root
        )
        t0 = time.perf_counter()
        if faults is None:
            d = DeltaSteppingEngine(ctx).run(start_root, **defence)
        else:
            # Lazy import: the spmd package imports core at module scope.
            from repro.spmd.engine import run_ranks

            d = run_ranks(ctx, start_root, faults=faults, **defence)
        wall = time.perf_counter() - t0
        distances = (
            self._mapping.distances_for_original(d)
            if self._mapping is not None
            else d
        )
        run_validation(distances, self._original_graph, root, validate)
        cost = evaluate_cost(ctx.metrics, self.machine)
        gteps = simulated_gteps(
            self._original_graph.num_undirected_edges, ctx.metrics, self.machine, cost
        )
        if ctx.tracer is not None and tracer is None:
            from repro.obs.export import finalize_trace

            finalize_trace(ctx.tracer, metrics=ctx.metrics)
        injected = faults is not None and faults.injects_anything
        return SsspResult(
            distances=distances,
            metrics=ctx.metrics,
            cost=cost,
            gteps=gteps,
            algorithm=self.algorithm + ("+faults" if injected else ""),
            config=self.config,
            machine=self.machine,
            root=root,
            num_vertices=self._original_graph.num_vertices,
            num_edges=self._original_graph.num_undirected_edges,
            wall_time_s=wall,
            num_proxies=self.num_proxies,
            guards=ctx.guards,
            trace=ctx.tracer,
        )

    def solve_degraded(
        self, root: int, *, max_supersteps: int = 8
    ) -> SsspResult:
        """Bounded-exact fallback solve: after ``max_supersteps`` bucket
        epochs the engine collapses all remaining buckets into one
        Bellman-Ford fixpoint pass (the ``degrade`` deadline policy), so
        the result is still *exact* but the epoch structure is bounded.
        The serving layer's circuit breaker uses this as its degradation
        path on small graphs (DESIGN.md §12).
        """
        from repro.runtime.watchdog import DeadlineConfig

        return self.solve(
            root, deadline=DeadlineConfig.degraded(max_supersteps)
        )
