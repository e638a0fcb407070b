"""What the benchmark programs share: the cached R-MAT graph, the standard
simulated machine shape, table printing and result JSON.

Used by ``benchmarks/figures`` (the paper-figure table), ``gates.py`` and
``bench_serving.py``.
"""

from __future__ import annotations

import functools
import json

from repro.graph.csr import CSRGraph
from repro.graph.rmat import RMAT1, RMAT2, RMATParams, rmat_graph
from repro.runtime.machine import MachineConfig
from repro.util.tables import format_table

__all__ = ["cached_rmat", "default_machine", "print_table", "write_bench_json"]


@functools.lru_cache(maxsize=16)
def cached_rmat(scale: int, family: str = "rmat1", seed: int = 1) -> CSRGraph:
    """Generate (once) and weight-sort an R-MAT graph for benches.

    Returning the weight-sorted graph means every ``solve_sssp`` call reuses
    the preprocessing instead of re-sorting per run.
    """
    params: RMATParams = RMAT1 if family == "rmat1" else RMAT2
    return rmat_graph(scale=scale, seed=seed, params=params).sorted_by_weight()


def write_bench_json(path: str, payload: dict) -> None:
    """Write benchmark results as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def default_machine(num_ranks: int, threads_per_rank: int = 16) -> MachineConfig:
    """The harness's standard simulated machine shape."""
    return MachineConfig(num_ranks=num_ranks, threads_per_rank=threads_per_rank)


def print_table(rows, title: str) -> None:
    """Print a paper-style table, flushed so output stays in order."""
    print()
    print(format_table(rows, title), flush=True)
