"""Live graphs: typed edge updates, snapshot versioning, incremental repair.

The subsystem has three layers, consumed bottom-up by the serving plane:

- :mod:`repro.dynamic.updates` — :class:`UpdateBatch` (typed
  insert/delete/reweight batches with validation), :func:`apply_batch`
  (a new immutable CSR by sorted-key splice + arc-level :class:`EdgeDelta`) and
  :func:`random_update_batch` (seeded churn for benchmarks and CI);
- :mod:`repro.dynamic.versioner` — :class:`GraphVersioner` minting
  immutable :class:`GraphSnapshot` lineages with structural digests,
  memoised execution contexts and bounded retention;
- :mod:`repro.dynamic.repair` — :func:`repair_sssp`, incremental
  distance repair through the stepping/bucket-index machinery,
  bit-identical to a fresh solve with a cost-model fallback.
"""

from repro.dynamic.repair import RepairResult, repair_sssp
from repro.dynamic.updates import (
    EdgeDelta,
    UpdateBatch,
    apply_batch,
    random_update_batch,
)
from repro.dynamic.versioner import GraphSnapshot, GraphVersioner, structural_digest

__all__ = [
    "EdgeDelta",
    "GraphSnapshot",
    "GraphVersioner",
    "RepairResult",
    "UpdateBatch",
    "apply_batch",
    "random_update_batch",
    "repair_sssp",
    "structural_digest",
]
