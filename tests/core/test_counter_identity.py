"""Counter-identity gate: the full per-step accounting record, pinned.

The paper's figures are computed from ``Metrics.records`` — one
:class:`~repro.runtime.metrics.StepRecord` per compute, exchange and
allreduce event, in program order. Other tests pin the aggregates
(``Metrics.summary()``, cost, GTEPS); this one pins *every field of every
record* of fixed seeded solves on both engines, so a change that is only
meant to move host time (a kernel rewrite, a context refactor) cannot shift
a single counter without failing here.

The digests below are literals. They were produced by
:func:`record_digest` on the commit *before* the sort-free relax path and
the fork-per-solve context landed, and must only ever be regenerated for a
change that intends to alter what is counted — say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.config import preset
from repro.core.solver import solve_sssp
from repro.graph.grid import grid_graph
from repro.graph.rmat import RMAT1, rmat_graph
from repro.runtime.machine import MachineConfig
from repro.spmd.engine import spmd_delta_stepping

MACHINE = MachineConfig(num_ranks=8, threads_per_rank=8)
DELTA = 25

GRAPHS = {
    "rmat10": lambda: rmat_graph(scale=10, seed=7, params=RMAT1),
    "grid24": lambda: grid_graph(24, 24, seed=7),
}
ROOTS = {"rmat10": 3, "grid24": 0}

#: (graph, preset) -> (number of records, SHA-256 of their fields); both
#: engines must emit exactly this record stream
EXPECTED = {
    ("rmat10", "delta"): (230, "379f60741bb44a93f9df"),
    ("rmat10", "opt"): (105, "1972e996cac5a45d5b02"),
    ("rmat10", "lb-opt"): (105, "74929211387d298f5e7e"),
    ("grid24", "delta"): (1508, "9068599c59afea32e41d"),
    ("grid24", "opt"): (1022, "13fdae88fa5e3bed4b1e"),
    ("grid24", "lb-opt"): (1022, "13fdae88fa5e3bed4b1e"),
}


def record_digest(metrics) -> tuple[int, str]:
    rows = [
        (
            str(r.kind), r.phase_kind, float(r.comp_max), float(r.comp_total),
            int(r.msgs_max), int(r.bytes_max), int(r.bytes_total),
            int(r.allreduces),
        )
        for r in metrics.records
    ]
    return len(rows), hashlib.sha256(repr(rows).encode()).hexdigest()[:20]


def solve_metrics(graph_name: str, algorithm: str, engine: str):
    graph = GRAPHS[graph_name]()
    root = ROOTS[graph_name]
    config = preset(algorithm, DELTA)
    if engine == "core":
        return solve_sssp(graph, root, config=config, machine=MACHINE).metrics
    _, ctx = spmd_delta_stepping(graph, root, MACHINE, config=config)
    return ctx.metrics


@pytest.mark.parametrize("engine", ["core", "spmd"])
@pytest.mark.parametrize("case", sorted(EXPECTED), ids="-".join)
def test_every_step_record_is_unchanged(case, engine):
    assert record_digest(solve_metrics(*case, engine)) == EXPECTED[case]
