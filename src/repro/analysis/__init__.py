"""Experiment drivers and result analysis.

- :mod:`repro.analysis.phase_stats` — per-phase/per-bucket statistics
  (paper Fig. 3, Fig. 4, Fig. 7);
- :mod:`repro.analysis.oracle` — exhaustive push/pull decision-sequence
  evaluation validating the heuristic (Section IV-G);
- :mod:`repro.analysis.sweep` — Δ sweeps and weak-scaling drivers shared by
  the benchmark harness (Fig. 9–12).
"""

from repro.analysis.oracle import OracleReport, evaluate_decision_sequences
from repro.analysis.phase_stats import (
    algorithm_comparison,
    bucket_census_table,
    phase_relaxation_series,
)
from repro.analysis.sweep import delta_sweep, weak_scaling

__all__ = [
    "OracleReport",
    "algorithm_comparison",
    "bucket_census_table",
    "delta_sweep",
    "evaluate_decision_sequences",
    "phase_relaxation_series",
    "weak_scaling",
]
