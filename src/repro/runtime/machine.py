"""Machine model: shape and cost constants of the simulated system.

The constants are loosely calibrated to Blue Gene/Q (Section IV-A of the
paper): half-microsecond base network latency, SPI messaging sustaining tens
of millions of messages per second per node, 16 cores x 4-way SMT = 64
hardware threads per node, L2-atomic relaxations. Absolute values are *not*
meant to reproduce BG/Q seconds — only the relative magnitudes (compute per
relaxation vs. per-message latency vs. synchronization cost) that determine
which algorithm wins where. All constants are per-instance so experiments
can sweep them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.util.ints import check_count

__all__ = ["MachineConfig", "BGQ_LIKE"]


@dataclass(frozen=True)
class MachineConfig:
    """Shape and timing constants of the simulated distributed machine.

    Time constants are in seconds.

    Attributes
    ----------
    num_ranks:
        Number of processing nodes (MPI-rank equivalents).
    threads_per_rank:
        Hardware threads per node cooperating on the node's vertices.
    t_relax:
        Compute cost of generating or applying one relaxation on a thread.
    t_request:
        Compute cost of generating or serving one pull request.
    t_scan:
        Cost of examining one vertex during bucket identification / active
        set construction.
    alpha:
        Per-message latency (one aggregated message per destination rank per
        superstep, the SPI active-message model).
    beta:
        Per-byte transfer cost (inverse network bandwidth per node).
    t_allreduce_base, t_allreduce_log:
        Cost of a small allreduce: ``base + log * log2(num_ranks)``.
    """

    num_ranks: int
    threads_per_rank: int = 64
    t_relax: float = 40e-9
    t_request: float = 30e-9
    t_scan: float = 4e-9
    alpha: float = 2e-6
    beta: float = 0.5e-9
    t_allreduce_base: float = 4e-6
    t_allreduce_log: float = 1.5e-6

    def __post_init__(self) -> None:
        check_count("num_ranks", self.num_ranks)
        check_count("threads_per_rank", self.threads_per_rank)
        for name in ("t_relax", "t_request", "t_scan", "alpha", "beta",
                     "t_allreduce_base", "t_allreduce_log"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def total_threads(self) -> int:
        """Total hardware threads across the machine."""
        return self.num_ranks * self.threads_per_rank

    def allreduce_time(self) -> float:
        """Latency of one small allreduce across all ranks."""
        return self.t_allreduce_base + self.t_allreduce_log * math.log2(
            max(2, self.num_ranks)
        )

    def with_ranks(self, num_ranks: int) -> "MachineConfig":
        """Copy of this config with a different rank count (weak scaling)."""
        return replace(self, num_ranks=num_ranks)


def BGQ_LIKE(num_ranks: int, threads_per_rank: int = 64) -> MachineConfig:
    """A Blue Gene/Q-flavoured configuration with default cost constants."""
    return MachineConfig(num_ranks=num_ranks, threads_per_rank=threads_per_rank)
