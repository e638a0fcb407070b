"""The repair drain under every strategy, and the dirty gate's domain.

The drain is one label-correcting fixpoint that reads no strategy, so
the ``delta``, ``rho`` and ``radius`` presets must give the row set
``tests/dynamic/test_damage_closure.py::PINNED`` holds for ``opt``, one
table for all four. :data:`WINDOWED_BY_STRATEGY` holds
``(steps, relax_records)`` of the windowed drain it replaced, per
strategy, which :func:`tests.dynamic.oracles.windowed_repair` must still
reproduce: it is the reference the fixpoint is held to in
``tests/dynamic/test_fixpoint_drain.py``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.config import preset
from repro.core.context import make_context
from repro.core.reference import dijkstra_reference
from repro.core.solver import solve_sssp
from repro.dynamic.repair import repair_sssp
from repro.dynamic.updates import UpdateBatch, apply_batch, random_update_batch
from repro.dynamic.versioner import GraphVersioner
from repro.graph.rmat import rmat_graph
from repro.runtime.machine import MachineConfig
from repro.serve.broker import QueryBroker
from tests.dynamic.oracles import windowed_repair
from tests.dynamic.test_damage_closure import PINNED

MACHINE = MachineConfig(num_ranks=4, threads_per_rank=4)

#: ``(steps, relax_records)`` of the repairs ``PINNED`` holds, drained
#: window by window.
WINDOWED_BY_STRATEGY = {
    "delta": {
        23: [(8, 211), (12, 805), (12, 949)],
        29: [(5, 66), (12, 906), (8, 85)],
        31: [(7, 61), (6, 179), (7, 38)],
    },
    "rho": {
        23: [(1, 221), (1, 819), (2, 1452)],
        29: [(1, 66), (1, 1410), (1, 91)],
        31: [(1, 61), (1, 221), (1, 38)],
    },
    "radius": {
        23: [(5, 211), (7, 805), (7, 822)],
        29: [(4, 66), (7, 829), (4, 91)],
        31: [(4, 61), (3, 179), (3, 38)],
    },
}


@pytest.mark.parametrize("seed", [23, 29, 31])
@pytest.mark.parametrize("algorithm", WINDOWED_BY_STRATEGY)
def test_repair_counters_unchanged(algorithm, seed):
    graph = rmat_graph(8, seed=11)
    root = int(np.flatnonzero(graph.degrees > 0)[0])
    versioner = GraphVersioner(
        graph, machine=MACHINE, config=preset(algorithm, 25), retention=8
    )
    d = solve_sssp(graph, root, algorithm=algorithm, delta=25, machine=MACHINE).distances
    rng = np.random.default_rng(seed)
    rows, windowed = [], []
    for _ in range(3):
        snap, _ = versioner.apply(
            random_update_batch(versioner.current.graph, rng, churn_fraction=0.02)
        )
        ctx = versioner.context_for(snap.snapshot_id)
        result = repair_sssp(ctx, root, d, snap.delta)
        assert not result.fallback
        oracle_d, *counts = windowed_repair(ctx, root, d, snap.delta)
        d = result.distances
        np.testing.assert_array_equal(d, dijkstra_reference(snap.graph, root))
        np.testing.assert_array_equal(d, oracle_d)
        rows.append((result.dirty, result.seeds, result.frontier, result.steps,
                     result.relax_records))
        windowed.append(tuple(counts))
    assert rows == PINNED[seed]
    assert windowed == WINDOWED_BY_STRATEGY[algorithm][seed]


class TestDirtyFractionDomain:
    """NaN would switch the gate off (every comparison with it is false),
    a negative fraction would send every repair to fallback: both are
    rejected before any work. Fractions from 1 up never trip."""

    @pytest.fixture
    def setup(self):
        graph = rmat_graph(8, seed=11)
        root = int(np.flatnonzero(graph.degrees > 0)[0])
        new_graph, delta = apply_batch(
            graph,
            random_update_batch(graph, np.random.default_rng(5), churn_fraction=0.02),
        )
        ctx = make_context(new_graph, MACHINE, preset("opt", 25))
        return ctx, root, dijkstra_reference(graph, root), delta

    @pytest.mark.parametrize("fraction", [math.nan, -0.01, -math.inf])
    def test_rejected_at_entry(self, setup, fraction):
        ctx, root, d, delta = setup
        before = d.copy()
        with pytest.raises(ValueError, match="max_dirty_fraction"):
            repair_sssp(ctx, root, d, delta, max_dirty_fraction=fraction)
        np.testing.assert_array_equal(d, before)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, math.inf])
    def test_legal_fractions(self, setup, fraction):
        ctx, root, d, delta = setup
        result = repair_sssp(ctx, root, d, delta, max_dirty_fraction=fraction)
        assert result.fallback == (fraction == 0.0)
        if not result.fallback:
            np.testing.assert_array_equal(
                result.distances, dijkstra_reference(ctx.graph, root)
            )

    def test_zero_fraction_passes_an_empty_delta(self, setup):
        ctx, root, _, _ = setup
        _, empty = apply_batch(ctx.graph, UpdateBatch.build())
        d = dijkstra_reference(ctx.graph, root)
        result = repair_sssp(ctx, root, d, empty, max_dirty_fraction=0.0)
        assert not result.fallback
        np.testing.assert_array_equal(result.distances, d)

    @pytest.mark.parametrize("fraction", [math.nan, -1.0])
    def test_broker_rejects_before_applying(self, fraction):
        graph = rmat_graph(8, seed=11)
        broker = QueryBroker(graph, num_workers=0, num_ranks=2, threads_per_rank=2)
        try:
            batch = random_update_batch(
                graph, np.random.default_rng(1), churn_fraction=0.02
            )
            with pytest.raises(ValueError, match="max_dirty_fraction"):
                broker.apply_updates(batch, max_dirty_fraction=fraction)
            assert broker.report()["snapshot_id"] == 0
            assert broker.versioner.current.snapshot_id == 0
        finally:
            broker.shutdown()
