"""A snapshot's context derived from its parent's ≡ ``make_context(snapshot.graph)``.

While the parent's context is resident ``GraphVersioner.context_for``
splices the delta into the parent's weight-sorted graph instead of
sorting the new snapshot; whenever it cannot (seed, parent evicted,
other machine/config) it sorts from scratch. Either way the context must
be field for field the one a cold start builds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import preset
from repro.core.context import make_context
from repro.core.reference import dijkstra_reference
from repro.core.solver import BatchSolver
from repro.dynamic.updates import UpdateBatch, random_update_batch
from repro.dynamic.versioner import GraphVersioner
from repro.graph.csr import CSRGraph
from repro.graph.rmat import rmat_graph
from repro.runtime.machine import MachineConfig

MACHINE = MachineConfig(num_ranks=4, threads_per_rank=4)


@pytest.fixture
def sorts(monkeypatch):
    """Counts the weight sorts that actually sort (not the flagged no-op)."""
    calls = []
    real = CSRGraph.sorted_by_weight

    def counting(self):
        if not self._sorted_by_weight:
            calls.append(self.num_arcs)
        return real(self)

    monkeypatch.setattr(CSRGraph, "sorted_by_weight", counting)
    return calls


def assert_same_context(ctx, want):
    for name in ("indptr", "adj", "weights"):
        np.testing.assert_array_equal(getattr(ctx.graph, name), getattr(want.graph, name), name)
    assert ctx.graph.undirected == want.graph.undirected
    assert ctx.graph._sorted_by_weight and want.graph._sorted_by_weight
    for name in ("short_offsets", "long_degrees", "thread_map"):
        np.testing.assert_array_equal(getattr(ctx, name), getattr(want, name), name)
    assert ctx.heavy_threshold == want.heavy_threshold
    assert type(ctx.partition) is type(want.partition)
    np.testing.assert_array_equal(ctx.partition.boundaries, want.partition.boundaries)
    assert ctx.machine is want.machine and ctx.config == want.config


@pytest.mark.parametrize("partition", ["block", "degree"])
def test_lineage_contexts_equal_cold_ones(partition, sorts):
    """Six snapshots at retention=2 with one pin released late: the seed
    path, the derived path (parent in the window, parent kept by a pin)
    and the evicted-parent path all run."""
    config = preset("opt", 25).evolve(partition=partition)
    versioner = GraphVersioner(
        rmat_graph(8, seed=11), machine=MACHINE, config=config, retention=2
    )
    rng = np.random.default_rng(3)

    def advance():
        snap, _ = versioner.apply(
            random_update_batch(versioner.current.graph, rng, churn_fraction=0.03)
        )
        return snap.snapshot_id

    def check(sid, expect_sorts):
        before = len(sorts)
        ctx = versioner.context_for(sid)
        assert len(sorts) - before == expect_sorts, f"snapshot {sid}"
        assert_same_context(ctx, make_context(versioner.get(sid).graph, MACHINE, config))
        return ctx

    check(0, 1)                      # seed: the one sort of the lineage
    assert advance() == 1
    check(1, 0)                      # parent 0 in the window
    versioner.pin(1)
    advance(), advance()             # window {2, 3}; 1 survives on its pin
    check(2, 0)                      # parent 1 resident only through the pin
    assert versioner.unpin(1) == [1]
    check(3, 0)                      # parent 2 in the window
    advance(), advance()             # window {4, 5}; 3 and its context are gone
    assert versioner.ids() == [4, 5]
    check(4, 1)                      # parent evicted: sorts like a cold start
    ctx = check(5, 0)                # and the lineage carries on from there

    # The derived context is a working one: reference distances and the
    # same simulated-machine account as a cold solver's.
    graph = versioner.get(5).graph
    root = int(np.flatnonzero(graph.degrees > 0)[0])
    derived = BatchSolver.from_context(ctx, algorithm="opt").solve(root)
    cold = BatchSolver(graph, algorithm="opt", config=config, machine=MACHINE).solve(root)
    np.testing.assert_array_equal(derived.distances, dijkstra_reference(graph, root))
    assert derived.metrics.summary() == cold.metrics.summary()


def test_other_config_or_unsorted_parent_sorts_from_scratch(sorts):
    graph = rmat_graph(7, seed=5)
    versioner = GraphVersioner(graph, machine=MACHINE, config=preset("opt", 25), retention=4)
    versioner.context_for(0)
    rng = np.random.default_rng(1)
    snap, _ = versioner.apply(random_update_batch(graph, rng, churn_fraction=0.05))
    before = len(sorts)
    rho = preset("rho")
    ctx = versioner.context_for(snap.snapshot_id, config=rho)  # parent's is "opt"
    assert len(sorts) - before == 1
    assert_same_context(ctx, make_context(snap.graph, MACHINE, rho))

    # A seed whose rows are weight-sorted but not head-sorted within equal
    # weights does not increase under (tail, weight, head): observed, not
    # assumed, and answered by the from-scratch sort.
    g = graph.sorted_by_weight()
    adj, weights = g.adj.copy(), g.weights.copy()
    row = int(np.argmax(g.degrees))
    lo, hi = int(g.indptr[row]), int(g.indptr[row + 1])
    adj[lo:hi], weights[lo:hi] = adj[lo:hi][::-1], weights[lo:hi][::-1]
    order = np.argsort(weights[lo:hi], kind="stable")
    adj[lo:hi], weights[lo:hi] = adj[lo:hi][order], weights[lo:hi][order]
    assert not np.array_equal(adj, g.adj)  # the row had weight ties to flip
    shuffled = CSRGraph(g.indptr, adj, weights, True, _sorted_by_weight=True)
    versioner = GraphVersioner(shuffled, machine=MACHINE, config=preset("opt", 25))
    versioner.context_for(0)
    snap, _ = versioner.apply(random_update_batch(shuffled, rng, churn_fraction=0.05))
    before = len(sorts)
    ctx = versioner.context_for(snap.snapshot_id)
    assert len(sorts) - before == 1
    assert_same_context(ctx, make_context(snap.graph, MACHINE, preset("opt", 25)))


def test_key_beyond_62_bits_sorts_from_scratch(sorts):
    graph = rmat_graph(7, seed=5)
    config = preset("opt", 25)
    versioner = GraphVersioner(graph, machine=MACHINE, config=config)
    versioner.context_for(0)
    tail = int(np.flatnonzero(graph.degrees > 0)[0])
    heavy = UpdateBatch.build(reweights=([tail], [int(graph.neighbors(tail)[0])], [2**50]))
    snap, _ = versioner.apply(heavy)  # (tail, weight, head) no longer packs
    before = len(sorts)
    ctx = versioner.context_for(snap.snapshot_id)
    assert len(sorts) - before == 1
    assert_same_context(ctx, make_context(snap.graph, MACHINE, config))
