"""Per-thread work attribution.

The simulated step time is driven by the busiest hardware thread, so
algorithms must say *which thread* performs each unit of work. Vertices are
block-distributed over the threads of their owning rank (Section III-E), so
a vertex maps to a global thread index; heavy vertices can instead have
their work spread across all threads of the rank (intra-node load
balancing).
"""

from __future__ import annotations

import numpy as np

from repro.graph.partition import BlockPartition
from repro.runtime.machine import MachineConfig
from repro.runtime.metrics import fold_compute

__all__ = ["thread_index", "work_fact", "thread_work"]


def thread_index(
    vertices: np.ndarray,
    partition: BlockPartition,
    machine: MachineConfig,
    *,
    thread_map: np.ndarray | None = None,
) -> np.ndarray:
    """Global hardware-thread index owning each vertex.

    Thread ``t`` of rank ``r`` has global index ``r * T + t``. Within a
    rank, vertices are block-distributed over the rank's threads.
    ``thread_map`` is an optional precomputed per-vertex thread table
    (``thread_index(np.arange(n), ...)``): charging is on the per-record
    hot path, and a one-time O(n) table turns each charge into a single
    gather.
    """
    v = np.asarray(vertices, dtype=np.int64)
    if thread_map is not None:
        return thread_map[v]
    t_per_rank = machine.threads_per_rank
    b = partition.boundaries
    ranks = np.clip(np.searchsorted(b, v, side="right") - 1, 0, partition.num_ranks - 1)
    lo = b[ranks]
    size = b[ranks + 1] - lo
    local = v - lo
    # Block distribution of `size` vertices over T threads: the first
    # size % T threads get ceil(size/T), the rest floor(size/T).
    base = size // t_per_rank
    extra = size % t_per_rank
    big = extra * (base + 1)
    in_big = local < big
    thread = np.where(
        in_big,
        local // np.maximum(base + 1, 1),
        np.where(base > 0, extra + (local - big) // np.maximum(base, 1), 0),
    )
    return ranks * t_per_rank + thread


def work_fact(
    vertices: np.ndarray,
    units: np.ndarray | None,
    partition: BlockPartition,
    machine: MachineConfig,
    heavy_threshold: float = float("inf"),
    *,
    thread_map: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """The compute fact ``(idx, units, spread)`` of per-vertex work (see
    :func:`repro.runtime.metrics.fold_compute`), in arrays of its own.

    ``units[i]`` work units (1 each when ``None``) go to the thread owning
    ``vertices[i]``; work of a vertex whose unit count exceeds
    ``heavy_threshold`` is instead spread evenly over all threads of its
    owning rank (the paper's intra-node strategy: a heavy vertex's edges
    are partitioned among the node's threads).
    """
    v = np.asarray(vertices, dtype=np.int64)
    idx = thread_index(v, partition, machine, thread_map=thread_map)
    u = None if units is None else np.array(units, dtype=np.float64)
    if heavy_threshold == float("inf"):
        return idx, u, None
    if u is None:
        u = np.ones(v.size, dtype=np.float64)
    heavy = u > heavy_threshold
    if not heavy.any():
        return idx, u, None
    ranks = np.asarray(partition.owner(v[heavy]), dtype=np.int64)
    spread = np.bincount(ranks, weights=u[heavy], minlength=machine.num_ranks)
    return idx[~heavy], u[~heavy], spread


def thread_work(
    vertices, units, partition, machine, heavy_threshold=float("inf"), *, thread_map=None
) -> np.ndarray:
    """Work-unit histogram over all hardware threads (flat ``float64`` of
    length ``num_ranks * threads_per_rank``): the one-fact fold of
    :func:`work_fact`, whose arguments it takes."""
    fact = work_fact(
        vertices, units, partition, machine, heavy_threshold, thread_map=thread_map
    )
    return fold_compute([fact], machine.total_threads, machine.threads_per_rank)[0]

