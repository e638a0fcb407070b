"""Contiguous vertex partitioning across ranks.

The paper distributes vertices over processors with a block distribution
(Section II, "Distributed Implementation"): rank ``r`` owns the contiguous
range ``[start[r], start[r+1])``. Owner lookup goes through a one-time
per-vertex rank table (:attr:`ContiguousPartition.owner_map`, and its
narrow copy :attr:`~ContiguousPartition.narrow_owner_map` for message
routing) — a single gather per query batch.

Two strategies are provided:

- :class:`BlockPartition` — equal vertex counts per rank (the paper's);
- :class:`DegreeBalancedPartition` — boundaries chosen so the *aggregate
  degree* per rank balances instead, an ablation of the paper's observation
  that degree skew, not vertex count, drives load imbalance (Section III-E).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["BlockPartition", "DegreeBalancedPartition", "ContiguousPartition"]


class ContiguousPartition:
    """Interface/base for contiguous partitions defined by boundaries.

    Subclasses provide :attr:`boundaries` (``int64[P + 1]`` with
    ``b[0] == 0`` and ``b[P] == n``); all lookups are shared.
    """

    num_vertices: int
    num_ranks: int

    @property
    def boundaries(self) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    # ------------------------------------------------------------------
    @cached_property
    def owner_map(self) -> np.ndarray:
        """Per-vertex owning rank (``int64[n]``, read-only).

        Message routing resolves owners for every record of every exchange;
        a one-time O(n) table turns each query into a single gather instead
        of a ``searchsorted`` over the boundaries. Zero-size blocks vanish
        from the repeat, so the table matches the searchsorted semantics
        (a vertex at an empty block's boundary belongs to the block that
        actually contains it).
        """
        table = np.repeat(
            np.arange(self.num_ranks, dtype=np.int64), np.diff(self.boundaries)
        )
        table.flags.writeable = False
        return table

    @cached_property
    def narrow_owner_map(self) -> np.ndarray:
        """:attr:`owner_map` in the narrowest unsigned type that holds
        ``P − 1`` (read-only): a byte per vertex up to 256 ranks.

        The mailbox reads both rank columns of every record it queues from
        it; a gather from an n-byte table stays in cache where the n-word
        one does not, and the columns it yields live until the exchange.
        """
        table = self.owner_map.astype(np.min_scalar_type(self.num_ranks - 1))
        table.flags.writeable = False
        return table

    def owner(self, vertices: np.ndarray | int) -> np.ndarray | int:
        """Rank owning each vertex (vectorised; ids must be in range)."""
        v = np.asarray(vertices, dtype=np.int64)
        if v.ndim == 0:
            return int(self.owner_map[v])
        return self.owner_map[v]

    def rank_range(self, rank: int) -> tuple[int, int]:
        """Half-open vertex range ``[lo, hi)`` owned by ``rank``."""
        if not 0 <= rank < self.num_ranks:
            raise IndexError(f"rank {rank} out of range")
        b = self.boundaries
        return int(b[rank]), int(b[rank + 1])

    def rank_size(self, rank: int) -> int:
        """Number of vertices owned by ``rank``."""
        lo, hi = self.rank_range(rank)
        return hi - lo


@dataclass(frozen=True)
class BlockPartition(ContiguousPartition):
    """Equal-vertex-count blocks (the paper's distribution).

    The blocks are as equal as possible: the first ``n % P`` ranks get
    ``ceil(n / P)`` vertices, the rest ``floor(n / P)``.
    """

    num_vertices: int
    num_ranks: int

    def __post_init__(self) -> None:
        if self.num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        if self.num_vertices < 0:
            raise ValueError("num_vertices must be >= 0")

    @cached_property
    def boundaries(self) -> np.ndarray:
        """``int64[P + 1]`` block boundaries; rank r owns [b[r], b[r+1])."""
        n, p = self.num_vertices, self.num_ranks
        base, extra = divmod(n, p)
        sizes = np.full(p, base, dtype=np.int64)
        sizes[:extra] += 1
        out = np.zeros(p + 1, dtype=np.int64)
        np.cumsum(sizes, out=out[1:])
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BlockPartition(n={self.num_vertices}, P={self.num_ranks})"


class DegreeBalancedPartition(ContiguousPartition):
    """Contiguous blocks balanced by aggregate degree instead of count.

    Boundary ``b[r]`` is placed where the degree prefix sum crosses
    ``r / P`` of the total — each rank then holds roughly ``2m / P`` arc
    endpoints regardless of where the hubs sit. With scrambled vertex ids
    (Graph 500) the difference to :class:`BlockPartition` is modest; on
    unscrambled R-MAT graphs (hubs concentrated at low ids) it is dramatic
    — figure `ablation-partition` of `benchmarks/figures` quantifies both.
    """

    def __init__(self, degrees: np.ndarray, num_ranks: int) -> None:
        degrees = np.asarray(degrees, dtype=np.int64)
        if num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        if degrees.ndim != 1:
            raise ValueError("degrees must be one-dimensional")
        self.num_vertices = int(degrees.size)
        self.num_ranks = int(num_ranks)
        prefix = np.zeros(self.num_vertices + 1, dtype=np.int64)
        np.cumsum(degrees, out=prefix[1:])
        total = int(prefix[-1])
        targets = (np.arange(1, num_ranks, dtype=np.int64) * total) // num_ranks
        cuts = np.searchsorted(prefix, targets, side="left")
        b = np.empty(num_ranks + 1, dtype=np.int64)
        b[0] = 0
        b[1:-1] = np.clip(cuts, 0, self.num_vertices)
        b[-1] = self.num_vertices
        # enforce monotonicity when many empty-degree prefixes collide
        np.maximum.accumulate(b, out=b)
        self._boundaries = b
        self._degree_totals = prefix[b[1:]] - prefix[b[:-1]]

    @property
    def boundaries(self) -> np.ndarray:
        return self._boundaries

    @property
    def degree_totals(self) -> np.ndarray:
        """Aggregate degree per rank (the balanced quantity)."""
        return self._degree_totals

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DegreeBalancedPartition(n={self.num_vertices}, "
            f"P={self.num_ranks})"
        )
