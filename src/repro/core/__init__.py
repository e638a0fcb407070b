"""The paper's contribution: the Δ-stepping SSSP family with pruning,
hybridization and load balancing, executed on the simulated runtime.

Key entry points:

- :func:`repro.core.solver.solve_sssp` — run any algorithm variant;
- :func:`repro.core.config.preset` — the paper's named configurations
  (``Del-Δ``, ``Prune-Δ``, ``OPT-Δ``, ``LB-OPT-Δ``, …);
- :func:`repro.core.reference.dijkstra_reference` — sequential ground truth.
"""

from repro.core.bellman_ford import bellman_ford_stage
from repro.core.config import DELTA_INFINITY, PRESETS, SolverConfig, preset
from repro.core.context import ExecutionContext, make_context
from repro.core.delta_stepping import DeltaSteppingEngine
from repro.core.distances import INF, init_distances
from repro.core.histograms import WeightHistogram, build_weight_histogram
from repro.core.hybrid import DEFAULT_TAU, should_switch
from repro.core.load_balance import SplitResult, split_heavy_vertices
from repro.core.paths import (
    NO_PARENT,
    build_parent_tree,
    extract_path,
    tree_depths,
)
from repro.core.pruning import bucket_census, long_phase_pull, long_phase_push
from repro.core.pushpull import (
    PushPullEstimate,
    decide_mode,
    estimate_models,
    estimate_models_exact,
    estimate_models_histogram,
)
from repro.core.validation import ValidationReport, validate_sssp_structure
from repro.core.reference import (
    DistanceMismatch,
    dijkstra_reference,
    scipy_reference,
    validate_distances,
)
from repro.core.relax import apply_relaxations
from repro.core.solver import BatchSolver, SsspResult, solve_sssp
from repro.core.transport import DeclaredTransport
from repro.core.views import VertexView, whole_graph_view

__all__ = [
    "BatchSolver",
    "DEFAULT_TAU",
    "DeclaredTransport",
    "DELTA_INFINITY",
    "DeltaSteppingEngine",
    "DistanceMismatch",
    "ExecutionContext",
    "INF",
    "NO_PARENT",
    "ValidationReport",
    "VertexView",
    "WeightHistogram",
    "build_parent_tree",
    "build_weight_histogram",
    "extract_path",
    "tree_depths",
    "validate_sssp_structure",
    "PRESETS",
    "PushPullEstimate",
    "SolverConfig",
    "SplitResult",
    "SsspResult",
    "apply_relaxations",
    "bellman_ford_stage",
    "bucket_census",
    "decide_mode",
    "dijkstra_reference",
    "estimate_models",
    "estimate_models_exact",
    "estimate_models_histogram",
    "init_distances",
    "long_phase_pull",
    "long_phase_push",
    "make_context",
    "preset",
    "scipy_reference",
    "should_switch",
    "solve_sssp",
    "split_heavy_vertices",
    "validate_distances",
    "whole_graph_view",
]
