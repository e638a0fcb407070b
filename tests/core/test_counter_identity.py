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

The second block of literals (radius, ρ, forced pull, the hybrid tail,
and the resumed runs) was produced the same way on commit ``ca4c952``,
the last one with separate orchestrated and SPMD phase bodies, before
both engines became drivers over one kernel set.
"""

from __future__ import annotations

import glob
import hashlib
import os

import numpy as np
import pytest

from repro.core.config import preset
from repro.core.context import make_context
from repro.core.delta_stepping import DeltaSteppingEngine
from repro.graph.grid import grid_graph
from repro.graph.rmat import RMAT1, rmat_graph
from repro.runtime.machine import MachineConfig
from repro.spmd.engine import spmd_delta_stepping

MACHINE = MachineConfig(num_ranks=8, threads_per_rank=8)
DELTA = 25

GRAPHS = {
    "rmat10": lambda: rmat_graph(scale=10, seed=7, params=RMAT1),
    "grid24": lambda: grid_graph(24, 24, seed=7),
    "rmat13": lambda: rmat_graph(scale=13, seed=7, params=RMAT1),
}
ROOTS = {"rmat10": 3, "grid24": 0, "rmat13": 3}

#: (graph, preset) -> (number of records, SHA-256 of their fields); both
#: engines must emit exactly this record stream
EXPECTED = {
    ("rmat10", "delta"): (230, "379f60741bb44a93f9df"),
    ("rmat10", "opt"): (105, "1972e996cac5a45d5b02"),
    ("rmat10", "lb-opt"): (105, "74929211387d298f5e7e"),
    ("grid24", "delta"): (1508, "9068599c59afea32e41d"),
    ("grid24", "opt"): (1022, "13fdae88fa5e3bed4b1e"),
    ("grid24", "lb-opt"): (1022, "13fdae88fa5e3bed4b1e"),
    ("rmat10", "radius"): (88, "b3509cfdf0713859302b"),
    ("rmat10", "rho"): (69, "50eb08ef54222b1eadfa"),
    ("rmat10", "prune-pull"): (258, "fa79396066a5fe9f4899"),
    ("rmat10", "delta-hybrid"): (100, "1e38fc3a7705e1bce3bc"),
    ("grid24", "radius"): (705, "c30ce9d3d4901e9c9ebc"),
    ("grid24", "rho"): (391, "ee51e9c32e16b024443c"),
    # Scale 13: supersteps past ``LARGE_FACT``, which fold as they are
    # queued; produced on commit 088494a, before a delivery became one fold.
    ("rmat13", "opt"): (112, "dc86f4c03af7811705c0"),
    ("rmat13", "prune-pull"): (291, "13c0487dc88c0c661aa0"),
    # Produced on commit 33f3a2d, before the short phase read its inner
    # arcs as a prefix: Δ = 300 past the largest weight (every arc short,
    # the bound clamped), and the IOS push gather at scale 13.
    ("rmat10", "opt-wide"): (70, "d0a74643cac273772e7c"),
    ("rmat13", "prune"): (281, "f8b2a78d1a9dbe092d93"),
}

#: names in ``EXPECTED`` that are a preset plus overrides
VARIANTS = {
    "prune-pull": ("prune", {"pushpull_mode": "pull"}),
    "delta-hybrid": ("delta", {"use_hybrid": True}),
    "opt-wide": ("opt", {"delta": 300}),
}

#: (graph, preset) -> the record stream of a run resumed from the epoch-2
#: checkpoint of a full run; the same on both engines
EXPECTED_RESUMED = {
    ("rmat10", "opt"): (52, "5f78f9c1a1613e803e74"),
    ("grid24", "opt"): (994, "60caafc8da9b31eca42a"),
}

#: (graph, preset) -> (buckets, SHA-256 of their published statistics):
#: bucket, members, mode, relaxations and both push/pull cost estimates by
#: ``float.hex``. Produced by :func:`bucket_stats_digest` on commit
#: ``5df3031``, the last one whose expectation estimator gathered its
#: degrees from ``indptr`` per epoch; the same on both engines.
EXPECTED_BUCKET_STATS = {
    ("grid24", "opt"): (59, "e24efeba28b881af6134"),
    ("rmat10", "opt"): (3, "2af65d0a1249189e79cf"),
    ("rmat10", "prune"): (14, "8ab4db24941a0abd979d"),
    ("rmat10", "lb-opt"): (3, "2af65d0a1249189e79cf"),
    # Produced on commit 088494a, like the scale-13 records above.
    ("rmat13", "opt"): (3, "bd2789fd7d68658409b0"),
    ("rmat13", "prune"): (16, "c43fb074643d8ad7da43"),
    # Produced on commit 33f3a2d, like the ``opt-wide`` records above.
    ("rmat10", "opt-wide"): (1, "b5073847c7a410ad5ec1"),
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


def bucket_stats_digest(metrics) -> tuple[int, str]:
    rows = [
        (
            int(s["bucket"]), int(s["members"]), s["mode"], int(s["relaxations"]),
            *(
                float(s[key]).hex() if key in s else None
                for key in ("est_push_cost", "est_pull_cost")
            ),
        )
        for s in metrics.per_bucket_stats
    ]
    return len(rows), hashlib.sha256(repr(rows).encode()).hexdigest()[:20]


def solve(graph_name: str, algorithm: str, engine: str, **defence):
    """Distances and metrics of one solve; ``defence`` is the checkpoint
    keywords both engines take."""
    graph = GRAPHS[graph_name]()
    root = ROOTS[graph_name]
    base, overrides = VARIANTS.get(algorithm, (algorithm, {}))
    config = preset(base, DELTA).evolve(**overrides)
    if engine == "core":
        ctx = make_context(graph, MACHINE, config)
        return DeltaSteppingEngine(ctx).run(root, **defence), ctx.metrics
    d, ctx = spmd_delta_stepping(graph, root, MACHINE, config=config, **defence)
    return d, ctx.metrics


@pytest.mark.parametrize("engine", ["core", "spmd"])
@pytest.mark.parametrize("case", sorted(EXPECTED), ids="-".join)
def test_every_step_record_is_unchanged(case, engine):
    assert record_digest(solve(*case, engine)[1]) == EXPECTED[case]


@pytest.mark.parametrize("engine", ["core", "spmd"])
@pytest.mark.parametrize("case", sorted(EXPECTED_BUCKET_STATS), ids="-".join)
def test_every_bucket_estimate_is_unchanged(case, engine):
    metrics = solve(*case, engine)[1]
    assert all("est_push_cost" in s for s in metrics.per_bucket_stats)
    assert bucket_stats_digest(metrics) == EXPECTED_BUCKET_STATS[case]


@pytest.mark.parametrize("engine", ["core", "spmd"])
@pytest.mark.parametrize("case", sorted(EXPECTED_RESUMED), ids="-".join)
def test_resumed_run_records_are_unchanged(case, engine, tmp_path):
    d_full, metrics = solve(
        *case, engine, checkpoint_dir=tmp_path, checkpoint_keep=100
    )
    assert record_digest(metrics) == EXPECTED[case]
    for path in glob.glob(str(tmp_path / "*.npz")):
        if not path.endswith("ckpt-00000002.npz"):
            os.unlink(path)
    d, metrics = solve(*case, engine, checkpoint_dir=tmp_path, resume=True)
    assert np.array_equal(d, d_full)
    assert record_digest(metrics) == EXPECTED_RESUMED[case]
