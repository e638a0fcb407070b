"""What a figure is, and what the figures of one run share.

A :class:`Figure` states one experiment of the paper's evaluation once; a
:class:`Lab` is one run of the harness — its two size parameters and the
solves made under them, each made once however many figures read it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from benchmarks.common import cached_rmat, default_machine
from repro.analysis.oracle import evaluate_decision_sequences
from repro.core.config import preset
from repro.core.solver import SsspResult, solve_sssp
from repro.graph.roots import choose_root

Tables = dict[str, list[dict]]

#: The sizes every pinned digest and every EXPERIMENTS.md row was taken at:
#: 2^14 vertices for fixed-size experiments, 2^11 per simulated node for weak
#: scaling (the paper: 2^23 per Blue Gene/Q node).
DEFAULT_SCALE, DEFAULT_VPR = 14, 11


@dataclass(frozen=True)
class Figure:
    """One experiment of the evaluation, stated once.

    ``claim`` is the paper's claim in a sentence; ``tables(lab)`` returns
    title -> rows as :func:`repro.util.tables.format_table` prints them;
    ``check(tables)`` asserts the claim's shape on them; ``counters`` is the
    :func:`counters_digest` of the tables at the default sizes. Everything in
    them is simulated, so the digest is host-independent; a PR that moves a
    counter on purpose updates the literal (benchmarks/MANIFEST.md).
    """

    claim: str
    tables: Callable[["Lab"], Tables]
    check: Callable[[Tables], None]
    counters: str


class Lab:
    """One run of the harness: its sizes and its memoised R-MAT solves."""

    def __init__(self, scale: int = DEFAULT_SCALE, vpr: int = DEFAULT_VPR):
        self.scale = scale
        self.vpr = vpr
        self._solves: dict[tuple, SsspResult] = {}

    def weak_scale(self, nodes: int) -> int:
        """Graph scale of the weak-scaling point with ``nodes`` simulated nodes."""
        return nodes.bit_length() - 1 + self.vpr

    def solve(self, family: str, scale: int, nodes: int, algorithm: str,
              delta: int) -> SsspResult:
        """The preset ``algorithm`` at Δ = ``delta`` on the R-MAT graph of that
        family and scale, from its seed-0 root, on ``nodes`` × 16 threads."""
        key = (family, scale, nodes, algorithm, delta)
        if key not in self._solves:
            graph = cached_rmat(scale, family)
            self._solves[key] = solve_sssp(
                graph, choose_root(graph, seed=0), algorithm=algorithm, delta=delta,
                machine=default_machine(nodes),
            )
        return self._solves[key]

    def weak(self, family: str, nodes: int, algorithm: str, delta: int) -> SsspResult:
        """:meth:`solve` at the weak-scaling point with ``nodes`` nodes."""
        return self.solve(family, self.weak_scale(nodes), nodes, algorithm, delta)


def oracle_score(graph, roots, **overrides) -> tuple[int, float, int]:
    """The push/pull heuristic of OPT-25 (with ``overrides``) against the
    exhaustive 2^k decision oracle over ``roots``: how many roots it was
    optimal on, its worst slowdown against the best sequence, total buckets."""
    config = preset("opt", 25).evolve(**overrides)
    optimal, worst, buckets = 0, 1.0, 0
    for root in roots:
        report = evaluate_decision_sequences(
            graph, int(root), config=config, num_ranks=4, threads_per_rank=4)
        optimal += report.heuristic_is_optimal
        worst = max(worst, report.slowdown_vs_best)
        buckets += report.num_buckets
    return optimal, worst, buckets


def only(tables: Tables) -> list[dict]:
    """The rows of a one-table figure."""
    (rows,) = tables.values()
    return rows


def plain(tables: Tables) -> Tables:
    """The same tables with NumPy scalars as Python numbers: what is printed,
    checked, digested and written."""
    return {
        title: [{column: value.item() if isinstance(value, np.generic) else value
                 for column, value in row.items()} for row in rows]
        for title, rows in tables.items()
    }


def counters_digest(tables: Tables) -> str:
    """SHA-256 over the integer-valued cells of :func:`plain` tables, in print
    order."""
    digest = hashlib.sha256()
    for ordinal, rows in enumerate(tables.values()):
        for index, row in enumerate(rows):
            for column, value in row.items():
                if isinstance(value, int) and not isinstance(value, bool):
                    digest.update(f"{ordinal}.{index}.{column}={value}\n".encode())
    return digest.hexdigest()
