"""The fixpoint drain against the windowed drain it replaced and Dijkstra.

``repair_sssp`` drains its frontier as one label-correcting fixpoint;
:func:`tests.dynamic.oracles.windowed_repair` is the same repair drained
window by window under a strategy's window rule. On random churn over an
R-MAT graph and a grid — deletes that orphan whole subtrees, reweights
down to zero, inserts — the fixpoint and the windowed drain of every
strategy must give :func:`dijkstra_reference`'s distances, and dropping
the settle order may cost at most :data:`MAX_RECORD_RATIO` times the
relaxation records of the Δ-stepping drain the serving path ran. (Radius
stepping's tighter windows relax fewer records still: against it the
ratio reaches about 5 on the R-MAT graph, so it is not the bound's
reference.)
"""

from __future__ import annotations

from functools import cache

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.config import preset
from repro.core.context import make_context
from repro.core.reference import dijkstra_reference
from repro.dynamic.repair import repair_sssp
from repro.dynamic.updates import UpdateBatch, apply_batch, random_update_batch
from repro.graph.grid import grid_graph
from repro.graph.rmat import rmat_graph
from repro.runtime.machine import MachineConfig
from tests.dynamic.oracles import windowed_repair

MACHINE = MachineConfig(num_ranks=4, threads_per_rank=4)
MAX_RECORD_RATIO = 4
STRATEGIES = ("opt", "rho", "radius")

GRAPHS = {
    "rmat": lambda: rmat_graph(8, seed=11),
    "grid": lambda: grid_graph(24, 24, max_weight=9, seed=3),
}


@cache
def graph_of(kind):
    return GRAPHS[kind]()


def churn(graph, d, root, rng, *, fraction, orphans, zeros):
    """Random churn plus ``orphans`` deleted tree arcs (each cuts the
    subtree below its head loose) and ``zeros`` share of the reweights
    pulled down to weight 0."""
    batch = random_update_batch(graph, rng, churn_fraction=fraction, max_weight=9)
    n = graph.num_vertices
    tails, heads, weights = graph.to_edge_list()
    named = np.concatenate([
        np.minimum(t, h) * n + np.maximum(t, h)
        for t, h in ((batch.delete_tails, batch.delete_heads),
                     (batch.reweight_tails, batch.reweight_heads))
    ])
    keys = np.minimum(tails, heads) * n + np.maximum(tails, heads)
    tree = np.flatnonzero(
        (d[tails] < d[heads]) & (d[tails] + weights == d[heads]) & ~np.isin(keys, named)
    )
    tree = tree[np.unique(keys[tree], return_index=True)[1]]
    cut = rng.choice(tree, size=min(orphans, tree.size), replace=False)
    rw = batch.reweight_weights.copy()
    rw[rng.random(rw.size) < zeros] = 0
    return UpdateBatch.build(
        inserts=(batch.insert_tails, batch.insert_heads, batch.insert_weights),
        deletes=(np.concatenate([batch.delete_tails, tails[cut]]),
                 np.concatenate([batch.delete_heads, heads[cut]])),
        reweights=(batch.reweight_tails, batch.reweight_heads, rw),
    )


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(sorted(GRAPHS)),
    root_pick=st.integers(0, 2**16),
    seed=st.integers(0, 2**32 - 1),
    fraction=st.sampled_from([0.005, 0.02, 0.06]),
    orphans=st.integers(0, 6),
    zeros=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_fixpoint_equals_windowed_drain_and_dijkstra(
    kind, root_pick, seed, fraction, orphans, zeros
):
    graph = graph_of(kind)
    connected = np.flatnonzero(graph.degrees > 0)
    root = int(connected[root_pick % connected.size])
    d = dijkstra_reference(graph, root)
    rng = np.random.default_rng(seed)
    # Two batches in a row: the second repairs a graph the first may have
    # left with zero-weight arcs.
    for _ in range(2):
        batch = churn(graph, d, root, rng, fraction=fraction, orphans=orphans, zeros=zeros)
        graph, delta = apply_batch(graph, batch)
        ctxs = {a: make_context(graph, MACHINE, preset(a, 25)) for a in STRATEGIES}
        result = repair_sssp(ctxs["opt"], root, d, delta, max_dirty_fraction=1.0)
        windowed = {a: windowed_repair(ctx, root, d, delta) for a, ctx in ctxs.items()}
        d = dijkstra_reference(graph, root)
        np.testing.assert_array_equal(result.distances, d)
        for windowed_d, _, _ in windowed.values():
            np.testing.assert_array_equal(windowed_d, d)
        assert result.relax_records <= MAX_RECORD_RATIO * windowed["opt"][2]
