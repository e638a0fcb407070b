"""Analytic cost model: counters -> simulated time -> simulated GTEPS.

Folds the :class:`~repro.runtime.metrics.StepRecord` stream of a run into
simulated seconds using an α–β (LogGP-flavoured) model:

- a compute record costs ``comp_max * t_kind`` — the busiest thread bounds
  the step (bulk-synchronous execution);
- an exchange costs ``alpha * msgs_max + beta * bytes_max`` — per-message
  overhead plus serialisation at the busiest rank;
- an allreduce costs ``t_allreduce_base + t_allreduce_log * log2(P)``.

The model also reproduces the paper's time decomposition (Fig. 10(b),
11(b)): records tagged ``phase_kind == "bucket"`` (active-set scans,
next-bucket searches, termination allreduces) accumulate into **BktTime**;
everything else (relaxation compute and its communication) into
**OtherTime**.

TEPS follows the Graph 500 convention: ``m / t`` with ``m`` the number of
*input* (undirected) edges, regardless of how many relaxations were
actually performed — which is why pruning raises TEPS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.runtime.machine import MachineConfig
from repro.runtime.metrics import ComputeKind, Metrics

__all__ = ["CostBreakdown", "price_record", "evaluate_cost", "simulated_gteps"]


@dataclass(frozen=True)
class CostBreakdown:
    """Simulated time of a run, decomposed the way the paper reports it."""

    compute_time: float
    comm_time: float
    sync_time: float
    bucket_time: float
    """BktTime: bucket identification, active-set scans, termination checks."""
    other_time: float
    """OtherTime: relaxation processing and its communication."""

    @property
    def total_time(self) -> float:
        """Total simulated seconds (= bucket_time + other_time)."""
        return self.bucket_time + self.other_time

    def as_row(self) -> dict[str, float]:
        """Dictionary view for table printing."""
        return {
            "total_s": self.total_time,
            "bkt_s": self.bucket_time,
            "other_s": self.other_time,
            "compute_s": self.compute_time,
            "comm_s": self.comm_time,
            "sync_s": self.sync_time,
        }


_UNIT_COST = {
    ComputeKind.SHORT_RELAX.value: "t_relax",
    ComputeKind.LONG_PUSH_RELAX.value: "t_relax",
    ComputeKind.BF_RELAX.value: "t_relax",
    ComputeKind.PULL_RESPONSE.value: "t_relax",
    ComputeKind.PULL_REQUEST.value: "t_request",
    ComputeKind.BUCKET_SCAN.value: "t_scan",
}
"""Compute kind -> the :class:`MachineConfig` field pricing one work unit."""


def _compute_unit_cost(kind: str, machine: MachineConfig) -> float:
    """Per-work-unit compute cost for a record kind."""
    try:
        return getattr(machine, _UNIT_COST[kind])
    except KeyError:
        raise ValueError(f"unknown compute kind {kind!r}") from None


def price_record(rec, machine: MachineConfig) -> float:
    """Simulated duration of one :class:`~repro.runtime.metrics.StepRecord`.

    The single authoritative pricing rule of the α–β model — an exchange is
    ``alpha * msgs_max + beta * bytes_max``, an allreduce is ``allreduces *
    allreduce_time()``, compute is ``comp_max * t_kind``. Both
    :func:`evaluate_cost` and the tracer's simulated clock
    (:class:`repro.obs.tracer.Tracer` record events) fold records through
    this function, so their totals agree by construction.
    """
    if rec.kind == "exchange":
        return machine.alpha * rec.msgs_max + machine.beta * rec.bytes_max
    if rec.kind == "allreduce":
        return rec.allreduces * machine.allreduce_time()
    return rec.comp_max * _compute_unit_cost(rec.kind, machine)


def _sequential_sum(times: np.ndarray) -> float:
    """Left-to-right float sum (``np.sum`` adds pairwise: another last bit)."""
    return float(np.cumsum(times)[-1]) if times.size else 0.0


def evaluate_cost(metrics: Metrics, machine: MachineConfig) -> CostBreakdown:
    """Fold a run's records into a :class:`CostBreakdown`.

    One pass over the ledger's columns by the rule of :func:`price_record`:
    a term that does not apply to a row's kind is an exact zero there, so
    each term summed in record order is its category's time.
    """
    kinds, phases, rows = metrics.columns()
    unit = {"exchange": 0.0, "allreduce": 0.0}
    for kind in set(kinds) - unit.keys():
        unit[kind] = _compute_unit_cost(kind, machine)
    unit_cost = np.array([unit[kind] for kind in kinds], dtype=np.float64)
    compute = rows["comp_max"] * unit_cost
    comm = machine.alpha * rows["msgs_max"] + machine.beta * rows["bytes_max"]
    sync = rows["allreduces"] * machine.allreduce_time()
    times = compute + comm + sync
    is_bucket = np.array([phase == "bucket" for phase in phases], dtype=bool)
    return CostBreakdown(
        compute_time=_sequential_sum(compute),
        comm_time=_sequential_sum(comm),
        sync_time=_sequential_sum(sync),
        bucket_time=_sequential_sum(times[is_bucket]),
        other_time=_sequential_sum(times[~is_bucket]),
    )


def simulated_gteps(
    num_undirected_edges: int,
    metrics: Metrics,
    machine: MachineConfig,
    cost: CostBreakdown | None = None,
) -> float:
    """Simulated traversal rate in GTEPS (Graph 500 convention ``m / t``);
    ``cost`` is ``evaluate_cost(metrics, machine)`` where the caller holds
    it already, so the records are not priced a second time."""
    if cost is None:
        cost = evaluate_cost(metrics, machine)
    if cost.total_time <= 0:
        return float("inf") if num_undirected_edges else 0.0
    return num_undirected_edges / cost.total_time / 1e9
