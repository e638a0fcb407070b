"""repro — reproduction of *Scalable Single Source Shortest Path Algorithms
for Massively Parallel Systems* (Chakaravarthy, Checconi, Petrini, Sabharwal;
IPDPS 2014).

The package implements the paper's distributed Δ-stepping SSSP family —
edge classification with the inner/outer-short refinement, push/pull
pruning with the decision heuristic, hybridization into Bellman-Ford, and
two-tier load balancing — on a simulated massively parallel machine with an
exact communication/work accounting layer and a Blue Gene/Q-flavoured
analytic cost model.

Quickstart::

    from repro import rmat_graph, solve_sssp

    g = rmat_graph(scale=14, seed=1)
    result = solve_sssp(g, root=0, algorithm="opt", delta=25,
                        num_ranks=8, threads_per_rank=8)
    print(result.gteps, result.metrics.summary())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-figure reproduction index.
"""

from repro.core import (
    BatchSolver,
    DELTA_INFINITY,
    INF,
    SolverConfig,
    SsspResult,
    build_parent_tree,
    dijkstra_reference,
    extract_path,
    preset,
    solve_sssp,
    split_heavy_vertices,
    validate_distances,
    validate_sssp_structure,
)
from repro.graph import (
    BlockPartition,
    CSRGraph,
    RMAT1,
    RMAT2,
    RMATParams,
    degree_stats,
    from_edges,
    from_undirected_edges,
    grid_graph,
    random_geometric_graph,
    rmat_graph,
    synthetic_social_graph,
    uniform_weights,
)
from repro.runtime import (
    BGQ_LIKE,
    MachineConfig,
    Metrics,
    evaluate_cost,
    simulated_gteps,
)
from repro.serve import (
    DistanceCache,
    QueryBroker,
    ServiceOverload,
    ServiceShutdown,
    WorkloadSpec,
)

__version__ = "1.0.0"

__all__ = [
    "BGQ_LIKE",
    "BatchSolver",
    "BlockPartition",
    "CSRGraph",
    "DELTA_INFINITY",
    "DistanceCache",
    "INF",
    "MachineConfig",
    "Metrics",
    "QueryBroker",
    "RMAT1",
    "RMAT2",
    "RMATParams",
    "ServiceOverload",
    "ServiceShutdown",
    "SolverConfig",
    "SsspResult",
    "WorkloadSpec",
    "__version__",
    "build_parent_tree",
    "degree_stats",
    "extract_path",
    "validate_sssp_structure",
    "dijkstra_reference",
    "evaluate_cost",
    "from_edges",
    "from_undirected_edges",
    "grid_graph",
    "preset",
    "random_geometric_graph",
    "rmat_graph",
    "simulated_gteps",
    "solve_sssp",
    "split_heavy_vertices",
    "synthetic_social_graph",
    "uniform_weights",
    "validate_distances",
]
