"""Simulated communication layer.

Algorithms never move data between ranks directly; they declare the traffic
to a :class:`Communicator`, which attributes message counts and bytes to the
source and destination ranks and emits a :class:`~repro.runtime.metrics.
StepRecord` per exchange. Messages between co-located vertices (same rank)
are free, exactly as in the paper's implementation where on-node relaxations
go through L2 atomics rather than the network.

The counting model matches SPI-style active messaging with per-superstep
aggregation: all records a rank sends to one destination rank within one
exchange count as a single message (one ``alpha``), while every record
contributes its byte size (``beta``).
"""

from __future__ import annotations

import numpy as np

from repro.graph.partition import BlockPartition
from repro.runtime.machine import MachineConfig
from repro.runtime.metrics import Metrics

__all__ = [
    "Communicator",
    "RELAX_RECORD_BYTES",
    "REQUEST_RECORD_BYTES",
    "RECOVERY_PHASE",
]

RELAX_RECORD_BYTES = 16
"""Wire size of a relaxation record: (destination vertex, distance)."""

REQUEST_RECORD_BYTES = 24
"""Wire size of a pull request: (source vertex, destination vertex, weight)."""

RECOVERY_PHASE = "recovery"
"""Phase kind charged for fault-tolerance traffic (retries, ack rounds,
healing sweeps) so recovery overhead is separable from algorithm traffic."""


class Communicator:
    """Traffic accountant for one simulated machine.

    Parameters
    ----------
    machine:
        Machine shape (rank count must match ``partition.num_ranks``).
    partition:
        Vertex ownership map used to resolve endpoints to ranks.
    metrics:
        Destination for the step records.
    """

    def __init__(
        self,
        machine: MachineConfig,
        partition: BlockPartition,
        metrics: Metrics,
    ) -> None:
        if machine.num_ranks != partition.num_ranks:
            raise ValueError(
                f"machine has {machine.num_ranks} ranks but partition has "
                f"{partition.num_ranks}"
            )
        self.machine = machine
        self.partition = partition
        self.metrics = metrics

    # ------------------------------------------------------------------
    def exchange_by_vertex(
        self,
        src_vertices: np.ndarray,
        dst_vertices: np.ndarray,
        record_bytes: int,
        *,
        phase_kind: str = "other",
    ) -> None:
        """Account an exchange of per-vertex records.

        Each record travels from ``owner(src)`` to ``owner(dst)``;
        same-rank records are dropped from the network accounting.
        """
        src = np.asarray(src_vertices, dtype=np.int64)
        dst = np.asarray(dst_vertices, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src_vertices and dst_vertices must align")
        src_ranks = self.partition.owner(src)
        dst_ranks = self.partition.owner(dst)
        self.exchange_by_rank(src_ranks, dst_ranks, record_bytes, phase_kind=phase_kind)

    def exchange_by_rank(
        self,
        src_ranks: np.ndarray,
        dst_ranks: np.ndarray,
        record_bytes: int,
        *,
        phase_kind: str = "other",
    ) -> None:
        """Account an exchange given explicit per-record rank endpoints."""
        if record_bytes < 0:
            raise ValueError("record_bytes must be non-negative")
        p = self.machine.num_ranks
        src = np.asarray(src_ranks, dtype=np.int64)
        dst = np.asarray(dst_ranks, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src_ranks and dst_ranks must align")
        # One bincount over (src, dst) lane ids yields the full P×P
        # traffic grid. Same-rank records are exactly its diagonal, so
        # zeroing that drops them without compacting the record arrays;
        # bytes and aggregated message counts (one per lane with traffic)
        # are row/column reductions of what is left.
        lanes = np.bincount(src * p + dst, minlength=p * p).reshape(p, p)
        np.fill_diagonal(lanes, 0)
        bytes_per_rank = (lanes.sum(axis=1) + lanes.sum(axis=0)) * record_bytes
        msgs_per_rank = np.count_nonzero(lanes, axis=1).astype(np.int64)
        self.metrics.add_exchange(msgs_per_rank, bytes_per_rank, phase_kind=phase_kind)

    def exchange_by_rank_counts(
        self,
        src_ranks: np.ndarray,
        dst_ranks: np.ndarray,
        counts: np.ndarray,
        record_bytes: int,
        *,
        phase_kind: str = "other",
    ) -> None:
        """Account an exchange given per-(src, dst)-lane record counts.

        Metrics-identical to :meth:`exchange_by_rank` over the expanded
        per-record endpoint arrays, without ever materialising them —
        ``counts[i]`` records travel the ``(src_ranks[i], dst_ranks[i])``
        lane. Lanes may repeat (they are deduplicated for the message
        count, exactly as repeated records are) and zero-count lanes are
        ignored.
        """
        if record_bytes < 0:
            raise ValueError("record_bytes must be non-negative")
        p = self.machine.num_ranks
        src = np.asarray(src_ranks, dtype=np.int64)
        dst = np.asarray(dst_ranks, dtype=np.int64)
        cnt = np.asarray(counts, dtype=np.int64)
        if src.shape != dst.shape or src.shape != cnt.shape:
            raise ValueError("src_ranks, dst_ranks and counts must align")
        if cnt.size and int(cnt.min()) < 0:
            raise ValueError("counts must be non-negative")
        live = (src != dst) & (cnt > 0)
        src, dst, cnt = src[live], dst[live], cnt[live]
        bytes_per_rank = np.zeros(p, dtype=np.int64)
        msgs_per_rank = np.zeros(p, dtype=np.int64)
        if src.size:
            # Accumulate the P×P traffic grid in pure int64 arithmetic
            # (bincount-with-weights would round-trip through float64);
            # identical values to exchange_by_rank over expanded arrays.
            lanes = np.zeros(p * p, dtype=np.int64)
            np.add.at(lanes, src * p + dst, cnt)
            lanes = lanes.reshape(p, p)
            out_counts = lanes.sum(axis=1)
            in_counts = lanes.sum(axis=0)
            bytes_per_rank = (out_counts + in_counts) * record_bytes
            msgs_per_rank = np.count_nonzero(lanes, axis=1).astype(np.int64)
        self.metrics.add_exchange(msgs_per_rank, bytes_per_rank, phase_kind=phase_kind)

    def retransmit(
        self,
        src_ranks: np.ndarray,
        dst_ranks: np.ndarray,
        record_bytes: int,
    ) -> None:
        """Account one retransmission batch of the reliable transport.

        The exchange is charged under the ``recovery`` phase kind and the
        per-run :class:`~repro.runtime.metrics.RecoveryStats` counters are
        bumped, so the cost of fault tolerance stays separable from the
        algorithm's own traffic. Same-rank records stay free, exactly like
        first-attempt traffic.
        """
        src = np.asarray(src_ranks, dtype=np.int64)
        dst = np.asarray(dst_ranks, dtype=np.int64)
        self.exchange_by_rank(src, dst, record_bytes, phase_kind=RECOVERY_PHASE)
        rec = self.metrics.recovery
        rec.retries += 1
        rec.retransmitted_records += int(src.size)
        off_node_bytes = int((src != dst).sum()) * record_bytes
        rec.retransmitted_bytes += off_node_bytes
        tr = self.metrics.tracer
        if tr is not None:
            tr.instant(
                "retransmit", records=int(src.size), bytes=off_node_bytes
            )

    def allreduce(self, count: int = 1, *, phase_kind: str = "bucket") -> None:
        """Account ``count`` small allreduce operations (termination checks,
        next-bucket computation, settled-vertex counting)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if count:
            self.metrics.add_allreduce(count, phase_kind=phase_kind)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Communicator(P={self.machine.num_ranks}, "
            f"T={self.machine.threads_per_rank})"
        )
