"""A driver is a transport: the one seam between the kernels and the ranks.

The phase kernels run once, over the one whole-graph
:class:`~repro.core.views.VertexView`, and everything one rank learns from
another goes through three calls (:class:`Transport`):

- ``send(src, dst, *cols)`` — queue one record per entry, from the owner of
  vertex ``src[i]`` to the owner of vertex ``dst[i]`` (global ids; ``dst``
  is also the first payload column, ``cols`` the rest). The records of a
  batch are grouped by sending rank, ranks ascending — sorted frontiers
  are, and so is whatever an ``exchange`` handed back;
- ``exchange(record_bytes, phase_kind=, num_columns=)`` — close the
  superstep and return the record columns as the receivers see them;
  ``deliver(record_bytes, kind, ...)`` also charges one unit of work of
  ``kind`` per delivered record at its destination, counted as a
  relaxation — how a relaxing superstep closes;
- ``allreduce_sum(value)`` / ``allreduce_min(value)`` — a scalar collective
  over per-rank contributions. The one view holds every rank's block, so
  the kernel folds the contributions itself and the transport counts the
  collective.

The locality rule the kernels keep: a record is computed from the state of
its *source* vertex alone, and a vertex's state is written only from
records addressed to it that an ``exchange`` returned.

Two implementations are the two drivers. :class:`DeclaredTransport` moves
nothing: it *declares* the exchange a distributed run would perform to the
accounting communicator (one
:meth:`~repro.runtime.comm.Communicator.exchange_by_vertex` per
``exchange``) and hands the columns back unreordered. The
:class:`~repro.spmd.mailbox.Mailbox` family routes the records rank to
rank for real, which is where faults act on them.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.comm import Communicator

__all__ = ["Transport", "DeclaredTransport"]


class Transport:
    """The call shape of a transport over an accounting communicator."""

    comm: Communicator

    def send(self, src: np.ndarray, dst: np.ndarray, *cols: np.ndarray) -> None:
        raise NotImplementedError

    def exchange(
        self, record_bytes: int, *, phase_kind: str = "other", num_columns: int = 2
    ) -> tuple[np.ndarray, ...]:
        raise NotImplementedError

    def deliver(
        self, record_bytes: int, kind, *, phase_kind: str = "other", num_columns: int = 2
    ) -> tuple[np.ndarray, ...]:
        """:meth:`exchange`, then charge one unit of ``kind`` per delivered
        record at its destination (the first column), counted as a
        relaxation."""
        cols = self.exchange(record_bytes, phase_kind=phase_kind, num_columns=num_columns)
        self.comm.metrics.queue_charge(kind, cols[0], None, phase_kind, count_as_relax=True)
        return cols

    def allreduce_sum(self, value, *, phase_kind: str = "bucket"):
        """Count one allreduce and hand ``value`` — already folded over the
        ranks' blocks — back."""
        self.comm.allreduce(1, phase_kind=phase_kind)
        return value

    allreduce_min = allreduce_sum


class DeclaredTransport(Transport):
    """Exchanges priced, not moved."""

    def __init__(self, comm: Communicator) -> None:
        self.comm = comm
        self._posted: list[tuple[np.ndarray, ...]] = []

    def send(self, src: np.ndarray, dst: np.ndarray, *cols: np.ndarray) -> None:
        self._posted.append((src, dst, *cols))

    def exchange(
        self, record_bytes: int, *, phase_kind: str = "other", num_columns: int = 2
    ) -> tuple[np.ndarray, ...]:
        """Declare the exchange and return the record columns (destination
        first) in posting order."""
        return self.deliver(
            record_bytes, None, phase_kind=phase_kind, num_columns=num_columns
        )

    def deliver(
        self, record_bytes: int, kind, *, phase_kind: str = "other", num_columns: int = 2
    ) -> tuple[np.ndarray, ...]:
        """:meth:`exchange`, declared with its delivery charge (none when
        ``kind`` is ``None``) as one accounting fact."""
        posted, self._posted = self._posted, []
        if len(posted) == 1:
            src, *cols = posted[0]
        elif posted:
            src, *cols = (np.concatenate(col) for col in zip(*posted))
        else:
            src, *cols = (np.empty(0, np.int64) for _ in range(num_columns + 1))
        if len(cols) != num_columns:
            raise ValueError(
                f"posted {len(cols)} columns, exchange expects {num_columns}"
            )
        self.comm.exchange_by_vertex(
            src, cols[0], record_bytes, phase_kind=phase_kind, deliver=kind
        )
        return tuple(cols)
