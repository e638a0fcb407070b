"""The declaring transport: exchanges priced, not moved.

Phase kernels talk to other vertex blocks through one small call shape —
``send(view, src_local, dst, *cols)``, ``deliver(record_bytes, ...)``,
``allreduce_sum/allreduce_min(values)`` — with two implementations. The
:class:`~repro.spmd.mailbox.Mailbox` family routes records between rank
views for real. :class:`DeclaredTransport` serves a single whole-graph
view, where every record already sits next to its destination: it holds the
posted columns, *declares* the exchange a distributed run would perform to
the accounting communicator (one
:meth:`~repro.runtime.comm.Communicator.exchange_by_vertex` per
``deliver``), and hands the columns back unreordered.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.comm import Communicator

__all__ = ["DeclaredTransport"]


class DeclaredTransport:
    """Transport of one whole-graph view over an accounting communicator."""

    def __init__(self, comm: Communicator) -> None:
        self.comm = comm
        self._posted: list[tuple[np.ndarray, ...]] = []

    def send(self, view, src_local: np.ndarray, dst: np.ndarray, *cols) -> None:
        """Queue records from the view's ``src_local`` vertices to the
        owners of ``dst`` (global ids); ``cols`` are the payload columns."""
        self._posted.append((view.to_global(src_local), dst, *cols))

    def deliver(
        self,
        record_bytes: int,
        *,
        phase_kind: str = "other",
        num_columns: int = 2,
    ) -> list[tuple[np.ndarray, ...]]:
        """Close the superstep: declare the exchange and return, for the one
        view, the record columns (destination first) in posting order."""
        posted, self._posted = self._posted, []
        if len(posted) == 1:
            src, *cols = posted[0]
        elif posted:
            src, *cols = (np.concatenate(col) for col in zip(*posted))
        else:
            src, *cols = (np.empty(0, np.int64) for _ in range(num_columns + 1))
        if len(cols) != num_columns:
            raise ValueError(
                f"posted {len(cols)} columns, deliver expects {num_columns}"
            )
        self.comm.exchange_by_vertex(
            src, cols[0], record_bytes, phase_kind=phase_kind
        )
        return [tuple(cols)]

    def allreduce_sum(self, values, *, phase_kind: str = "bucket"):
        """The one view's value (counted as one allreduce)."""
        (value,) = values
        self.comm.allreduce(1, phase_kind=phase_kind)
        return value

    # Over one view the value is its own sum and its own minimum.
    allreduce_min = allreduce_sum
