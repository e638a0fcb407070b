"""Execution context shared by all distributed kernels.

Bundles two kinds of state. *Per-graph tables*, immutable once built: the
(weight-sorted) graph, the vertex partition, the machine model and the
derived per-vertex edge-classification tables the paper computes in its
preprocessing stage (short-edge offsets and long-edge degrees used by the
push/pull volume estimator). *Per-run state*: the metrics sink, the
accounting communicator, the paranoid guards and the tracer.
:func:`make_context` builds both, reading the tables off the weight-sorted
graph's memo (:meth:`~repro.graph.csr.CSRGraph.memo`), so every context of
one graph shares them; :meth:`ExecutionContext.fork` keeps a context's
tables and renews only the per-run state.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SolverConfig
from repro.core.histograms import WeightHistogram, build_weight_histogram
from repro.graph.csr import CSRGraph
from repro.graph.partition import (
    BlockPartition,
    ContiguousPartition,
    DegreeBalancedPartition,
)
from repro.runtime.comm import Communicator
from repro.runtime.guards import InvariantGuards
from repro.runtime.machine import MachineConfig
from repro.runtime.metrics import ComputeKind, Metrics, VertexMaps
from repro.runtime.work import thread_index

__all__ = ["ExecutionContext", "make_context"]


@dataclass
class ExecutionContext:
    """Everything a distributed SSSP kernel needs for one run."""

    graph: CSRGraph
    partition: ContiguousPartition
    machine: MachineConfig
    metrics: Metrics
    comm: Communicator
    config: SolverConfig
    short_offsets: np.ndarray
    """Per-vertex count of short out-edges (weight < Δ); weight-sorted prefix."""
    long_degrees: np.ndarray
    """Per-vertex count of long out-edges (weight >= Δ) — the push-volume table."""
    reverse_graph: CSRGraph | None = None
    """Weight-sorted reverse graph for directed inputs (None = undirected:
    the forward adjacency doubles as the in-edge list)."""
    reverse_short_offsets: np.ndarray | None = None
    reverse_long_degrees: np.ndarray | None = None
    heavy_threshold: float = field(default=float("inf"))
    """Intra-node heaviness threshold π in work units (inf = LB disabled)."""
    weight_histogram: WeightHistogram | None = None
    """Per-vertex weight histograms (built only for the histogram estimator)."""
    guards: InvariantGuards | None = None
    """Runtime invariant monitors, present only under ``config.paranoid``.
    Every engine hook site is gated on ``ctx.guards is not None``, so the
    disabled path costs nothing and perturbs no accounting."""
    thread_map: np.ndarray | None = None
    """Precomputed per-vertex hardware-thread table
    (``thread_index(np.arange(n), partition, machine)``): the ledger maps
    every queued charge's vertices through it in one gather per fold."""
    tracer: object | None = None
    """Span tracer (:class:`repro.obs.tracer.Tracer`), present only when
    ``config.trace`` asks for telemetry. Every engine hook site is gated on
    ``ctx.tracer is not None`` — the same pay-for-use discipline as
    :attr:`guards`."""

    # ------------------------------------------------------------------
    # In-edge views (pull model): identical to the forward views on
    # undirected graphs, the reverse graph's on directed ones.
    # ------------------------------------------------------------------
    @property
    def in_graph(self) -> CSRGraph:
        """Graph whose adjacency lists are the *incoming* arcs per vertex."""
        return self.reverse_graph if self.reverse_graph is not None else self.graph

    @property
    def in_short_offsets(self) -> np.ndarray:
        return (
            self.reverse_short_offsets
            if self.reverse_short_offsets is not None
            else self.short_offsets
        )

    @property
    def in_long_degrees(self) -> np.ndarray:
        return (
            self.reverse_long_degrees
            if self.reverse_long_degrees is not None
            else self.long_degrees
        )

    # ------------------------------------------------------------------
    # Per-run state
    # ------------------------------------------------------------------
    def fork(self, tracer=None) -> "ExecutionContext":
        """A context for one more run on the same prepared graph.

        Shares every per-graph table with ``self`` by identity (sorted
        graph, partition and its ``owner_map``, short/long tables,
        ``thread_map``, reverse tables, histogram, thresholds, and the
        ledger's :class:`~repro.runtime.metrics.VertexMaps` over them) and carries
        fresh per-run state, made exactly as :func:`make_context` makes it.
        ``self`` is only read, so one template may be forked from several
        threads. ``tracer`` is as for :func:`make_context`.
        """
        return dataclasses.replace(
            self,
            **_run_state(
                self.graph, self.partition, self.machine, self.config, tracer,
                self.metrics.maps,
            ),
        )

    # ------------------------------------------------------------------
    # Work-accounting helpers
    # ------------------------------------------------------------------
    def charge(
        self,
        kind: ComputeKind,
        vertices: np.ndarray,
        units: np.ndarray | None,
        *,
        phase_kind: str,
        count_as_relax: bool = False,
    ) -> None:
        """Charge per-vertex work units to the owning threads.

        Honors intra-node load balancing: with ``config.intra_lb``, work of a
        vertex exceeding the heaviness threshold is spread across its rank's
        threads. ``count_as_relax`` feeds the units into the paper's
        relaxation counters (used on the record-application side so each
        relaxation is counted exactly once). The ledger queues copies of
        ``vertices`` and ``units``; they meet the thread and rank tables
        when it folds (:func:`~repro.runtime.metrics.fold_charges`).
        """
        self.metrics.queue_charge(kind, vertices, units, phase_kind, count_as_relax)

    def charge_scan(self, num_local_vertices_scanned: np.ndarray) -> None:
        """Charge an even bucket-scan over ranks (``int[P]`` vertices each).

        Bucket identification scans are inherently balanced (every thread
        scans an equal slice of its rank's vertex block), so the work is
        spread uniformly within each rank.
        """
        per_rank = np.array(num_local_vertices_scanned)
        if per_rank.size != self.machine.num_ranks:
            raise ValueError("need one scan count per rank")
        self.metrics.queue_scan(per_rank)

    def scan_all_ranks(self, num_vertices_scanned_total: int | None = None) -> None:
        """Charge a full scan of every rank's vertex block (epoch boundary):
        ``n / P`` vertices on every rank, one number for all of them."""
        n = (
            self.graph.num_vertices
            if num_vertices_scanned_total is None
            else num_vertices_scanned_total
        )
        self.metrics.queue_scan(n / self.machine.num_ranks)


def _classification_delta(config: SolverConfig) -> int:
    """Short/long split width: Δ for the paper's buckets, effectively
    infinite for the windowed strategies (radius/ρ), whose short phases
    relax every edge."""
    return min(config.classification_width, 2**60)


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


def _split(graph: CSRGraph, delta: int) -> tuple[np.ndarray, np.ndarray]:
    """``(short_offsets, long_degrees)`` of a weight-sorted graph at split
    width ``delta``: read-only, made once per graph and Δ."""

    def build() -> tuple[np.ndarray, np.ndarray]:
        short = _read_only(graph.short_edge_offsets(delta))
        return short, _read_only(graph.degrees - short)

    return graph.memo(("split", delta), build)


def _run_state(graph, partition, machine, config, tracer, maps: VertexMaps) -> dict:
    """The per-run fields of an :class:`ExecutionContext`: fresh metrics
    (folding vertex facts through the per-graph ``maps``), communicator,
    guards (under ``config.paranoid``) and tracer wiring.

    The one place per-run state is made; :func:`make_context` and
    :meth:`ExecutionContext.fork` both end here.
    """
    metrics = Metrics(
        num_ranks=machine.num_ranks, threads_per_rank=machine.threads_per_rank,
        maps=maps,
    )
    if tracer is None:
        if config.trace is not None and config.trace.enabled:
            from repro.obs.tracer import Tracer

            tracer = Tracer(machine, config.trace)
    metrics.tracer = tracer
    guards = (
        InvariantGuards(graph.num_vertices, _classification_delta(config))
        if config.paranoid
        else None
    )
    return dict(
        metrics=metrics,
        comm=Communicator(machine, partition, metrics),
        guards=guards,
        tracer=tracer,
    )


def make_context(
    graph: CSRGraph,
    machine: MachineConfig,
    config: SolverConfig,
    *,
    tracer=None,
) -> ExecutionContext:
    """Prepare an :class:`ExecutionContext` (the preprocessing stage).

    Sorts adjacency lists by weight, resolves the load-balancing thresholds
    and wires up fresh metrics + communicator. The per-graph tables come
    from the sorted graph's memo, built by the first call that needs them:
    the short/long split keyed by Δ, the partition keyed by (kind, P), the
    thread map keyed by (kind, P, T), a directed graph's sorted reverse.
    They are read-only and shared by every context of the graph; a caller
    holding an unsorted graph pays the sort on every call, and the tables
    once per sort.

    ``tracer`` attaches an existing :class:`~repro.obs.tracer.Tracer`
    instead of building one from ``config.trace`` —
    :meth:`~repro.core.solver.BatchSolver.solve_many` uses it to share one
    trace across several contexts; the caller then owns finalization.
    """
    sorted_graph = graph.sorted_by_weight()
    kind, num_ranks = config.partition, machine.num_ranks
    partition = sorted_graph.memo(
        ("partition", kind, num_ranks),
        lambda: DegreeBalancedPartition(sorted_graph.degrees, num_ranks)
        if kind == "degree"
        else BlockPartition(sorted_graph.num_vertices, num_ranks),
    )
    delta = _classification_delta(config)
    short_offsets, long_degrees = _split(sorted_graph, delta)
    mean_degree = (
        float(sorted_graph.degrees.mean()) if sorted_graph.num_vertices else 0.0
    )
    heavy = (
        float(config.derived_heavy_degree(mean_degree))
        if config.intra_lb
        else float("inf")
    )
    reverse_graph = None
    rev_short = None
    rev_long = None
    if not sorted_graph.undirected:
        # Directed input: the pull model scans *incoming* arcs, which on an
        # undirected (symmetrized) graph coincide with the forward lists but
        # here need the explicit reverse graph.
        reverse_graph = sorted_graph.memo(
            ("reverse",), lambda: sorted_graph.reverse().sorted_by_weight()
        )
        rev_short, rev_long = _split(reverse_graph, delta)
    histogram = None
    if config.use_pruning and config.pushpull_estimator == "histogram":
        hist_source = reverse_graph if reverse_graph is not None else sorted_graph
        histogram = build_weight_histogram(hist_source, config.histogram_bins)
    thread_map = sorted_graph.memo(
        ("thread_map", kind, num_ranks, machine.threads_per_rank),
        lambda: _read_only(thread_index(
            np.arange(sorted_graph.num_vertices, dtype=np.int64), partition, machine
        )),
    )
    return ExecutionContext(
        graph=sorted_graph,
        partition=partition,
        machine=machine,
        config=config,
        short_offsets=short_offsets,
        long_degrees=long_degrees,
        heavy_threshold=heavy,
        weight_histogram=histogram,
        reverse_graph=reverse_graph,
        reverse_short_offsets=rev_short,
        reverse_long_degrees=rev_long,
        thread_map=thread_map,
        **_run_state(
            sorted_graph, partition, machine, config, tracer,
            VertexMaps(thread_map, partition.owner_map, heavy),
        ),
    )
