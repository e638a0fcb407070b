"""Per-thread work attribution.

The simulated step time is driven by the busiest hardware thread, so
algorithms must say *which thread* performs each unit of work. Vertices are
block-distributed over the threads of their owning rank (Section III-E), so
a vertex maps to a global thread index; heavy vertices can instead have
their work spread across all threads of the rank (intra-node load
balancing). A solve charges vertices and the step ledger maps them when it
folds (:func:`repro.runtime.metrics.work_grid`); :func:`thread_work` is
that fold for one charge on its own.
"""

from __future__ import annotations

import numpy as np

from repro.graph.partition import BlockPartition
from repro.runtime.machine import MachineConfig
from repro.runtime.metrics import VertexMaps, work_grid

__all__ = ["thread_index", "thread_work"]


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
    (``thread_index(np.arange(n), ...)``), which turns the lookup into a
    single gather.
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


def thread_work(
    vertices, units, partition, machine, heavy_threshold=float("inf"), *, thread_map=None
) -> np.ndarray:
    """Work-unit histogram over all hardware threads (flat ``float64`` of
    length ``num_ranks * threads_per_rank``): the fold of one charge.

    ``units[i]`` work units (1 each when ``None``) go to the thread owning
    ``vertices[i]``; work of a vertex whose unit count exceeds
    ``heavy_threshold`` is instead spread evenly over all threads of its
    owning rank (the paper's intra-node strategy: a heavy vertex's edges
    are partitioned among the node's threads).
    """
    if thread_map is None:
        thread_map = thread_index(np.arange(partition.num_vertices), partition, machine)
    v = np.asarray(vertices, dtype=np.int64)
    u = None if units is None else np.asarray(units, dtype=np.float64)
    maps = VertexMaps(thread_map, partition.owner_map, heavy_threshold)
    t = machine.threads_per_rank
    return work_grid(v, u, (v.size,), machine.total_threads, t, maps)[0]
