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
from repro.runtime.metrics import Metrics, traffic

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
        self._lane_dtype = np.min_scalar_type(machine.num_ranks**2 - 1)
        if metrics.maps.rank is None:  # a ledger of its own: route through this partition
            metrics.maps = metrics.maps._replace(rank=partition.owner_map)

    # ------------------------------------------------------------------
    def lanes(self, src_ranks: np.ndarray, dst_ranks: np.ndarray) -> np.ndarray:
        """Lane id ``src * P + dst`` of every record, in the narrowest
        unsigned type that holds ``P² − 1``: the array an exchange fact is
        made of (a fresh one — the ledger keeps it). A rank outside
        ``[0, P)`` raises here rather than wrap into another lane."""
        src, dst = np.asarray(src_ranks), np.asarray(dst_ranks)
        if src.shape != dst.shape:
            raise ValueError("src_ranks and dst_ranks must align")
        p, unsigned = self.machine.num_ranks, src.dtype.kind == dst.dtype.kind == "u"
        if src.size and (
            max(src.max(), dst.max()) >= p
            or not unsigned and min(src.min(), dst.min()) < 0
        ):
            raise ValueError(f"ranks must lie in [0, {p})")
        lanes = src.astype(self._lane_dtype)
        lanes *= p
        return np.add(lanes, dst, out=lanes, casting="unsafe")

    def exchange_by_vertex(
        self,
        src_vertices: np.ndarray,
        dst_vertices: np.ndarray,
        record_bytes: int,
        *,
        phase_kind: str = "other",
        deliver=None,
    ) -> None:
        """Account an exchange of per-vertex records.

        Each record travels from ``owner(src)`` to ``owner(dst)``;
        same-rank records are dropped from the network accounting. The
        ledger copies both vertex arrays into its route buffers and
        resolves their owners when it folds
        (:func:`~repro.runtime.metrics.route_lanes`).
        ``deliver`` (a :class:`~repro.runtime.metrics.ComputeKind`) also
        charges each record's application at its destination, one unit of
        that kind counted as a relaxation — both as one fact
        (:meth:`~repro.runtime.metrics.Metrics.queue_delivery`).
        """
        if deliver is None:
            self.metrics.queue_route(src_vertices, dst_vertices, record_bytes, phase_kind)
        else:
            self.metrics.queue_delivery(
                src_vertices, dst_vertices, record_bytes, deliver, phase_kind
            )

    def exchange_by_rank(
        self,
        src_ranks: np.ndarray,
        dst_ranks: np.ndarray,
        record_bytes: int,
        *,
        phase_kind: str = "other",
    ) -> None:
        """Account an exchange given explicit per-record rank endpoints."""
        lanes = self.lanes(src_ranks, dst_ranks)
        self.metrics.queue_exchange(lanes, record_bytes, phase_kind=phase_kind)

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
        ignored. It folds at once: its row is written on the spot, as
        :meth:`~repro.runtime.metrics.Metrics.add_exchange`'s is.

        No solve calls it: both mailboxes account a superstep through
        :meth:`exchange_by_rank`. It stays because the benchmark's
        accounting probe (``benchmarks/stack/cold.py::_probe_accounting``)
        wraps it by name.
        """
        lanes = self.lanes(src_ranks, dst_ranks)
        cnt = np.asarray(counts, dtype=np.float64)  # the fold's bincount weights
        if cnt.shape != lanes.shape:
            raise ValueError("src_ranks, dst_ranks and counts must align")
        if cnt.size and cnt.min() < 0:
            raise ValueError("counts must be non-negative")
        if record_bytes < 0:
            raise ValueError("record_bytes must be non-negative")
        p = self.machine.num_ranks
        msgs, byt = traffic(lanes, cnt, (lanes.size,), (record_bytes,), p)
        self.metrics.add_exchange(msgs[0], byt[0], phase_kind=phase_kind)

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
