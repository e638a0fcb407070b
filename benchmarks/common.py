"""Shared infrastructure for the paper-figure benchmark harness.

Every ``bench_*.py`` module reproduces one table or figure of the paper:
it prints the same rows/series the paper reports (against the simulated
machine's cost model) and registers at least one pytest-benchmark timing of
the underlying kernel. Each module also runs standalone::

    python benchmarks/bench_fig09_delta_sweep.py

Graph scales are shrunk from the paper's 2^23 vertices/node (Blue Gene/Q)
to laptop scale; the weak-scaling protocol, parameter sets and algorithm
compositions are unchanged. EXPERIMENTS.md records paper-vs-measured for
every figure.
"""

from __future__ import annotations

import functools
import json
import os

from repro.core.solver import SsspResult, solve_sssp
from repro.graph.csr import CSRGraph
from repro.graph.grid import grid_graph
from repro.graph.rmat import RMAT1, RMAT2, RMATParams, rmat_graph
from repro.graph.roots import choose_root, choose_roots
from repro.runtime.machine import MachineConfig
from repro.util.tables import format_table

__all__ = [
    "BENCH_SCALE",
    "VERTICES_PER_RANK_LOG2",
    "cached_rmat",
    "cached_grid",
    "default_machine",
    "print_table",
    "run_algorithm",
    "format_table",
    "choose_root",
    "choose_roots",
    "write_bench_json",
    "RMAT1",
    "RMAT2",
]

#: Base graph scale for fixed-size experiments. Override with REPRO_BENCH_SCALE.
BENCH_SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "14"))

#: log2(vertices per simulated node) for weak-scaling experiments
#: (the paper uses 23 on Blue Gene/Q; shrunk for laptop runtimes).
VERTICES_PER_RANK_LOG2 = int(os.environ.get("REPRO_BENCH_VPR", "11"))


@functools.lru_cache(maxsize=16)
def cached_rmat(
    scale: int, family: str = "rmat1", seed: int = 1
) -> CSRGraph:
    """Generate (once) and weight-sort an R-MAT graph for benches.

    Returning the weight-sorted graph means every ``solve_sssp`` call reuses
    the preprocessing instead of re-sorting per run.
    """
    params: RMATParams = RMAT1 if family == "rmat1" else RMAT2
    return rmat_graph(scale=scale, seed=seed, params=params).sorted_by_weight()


@functools.lru_cache(maxsize=16)
def cached_grid(scale: int, *, seed: int = 7) -> CSRGraph:
    """Generate (once) and weight-sort a 2-D grid with ~``2**scale`` vertices.

    Grids are the large-diameter / many-buckets regime — the opposite end of
    the spectrum from R-MAT — so hot-path benchmarks cover both.
    """
    rows = 2 ** (scale // 2)
    cols = 2 ** (scale - scale // 2)
    return grid_graph(rows, cols, seed=seed).sorted_by_weight()


def write_bench_json(path: str, payload: dict) -> None:
    """Write benchmark results as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def default_machine(num_ranks: int, threads_per_rank: int = 16) -> MachineConfig:
    """The harness's standard simulated machine shape."""
    return MachineConfig(num_ranks=num_ranks, threads_per_rank=threads_per_rank)


def run_algorithm(
    graph: CSRGraph,
    root: int,
    name: str,
    delta: int,
    machine: MachineConfig,
    **kwargs,
) -> SsspResult:
    """One benchmark run of a named algorithm preset."""
    return solve_sssp(
        graph, root, algorithm=name, delta=delta, machine=machine, **kwargs
    )


def print_table(rows, title: str) -> None:
    """Print a paper-style table, flushed so pytest -s shows it in order."""
    print()
    print(format_table(rows, title), flush=True)
