"""Information crosses a rank boundary only through the transport.

While the rank driver ran one view per rank this held by construction: a
rank could not index another rank's arrays. The kernels now run over the
one whole-graph view, so the rule (``repro/core/transport.py``) is held by
this test instead: a mailbox that *drops every cross-rank record* cuts the
ranks off from one another, and the solve must then compute exactly the
distances of the graph with its cross-rank arcs removed. A kernel that read
another rank's ``d`` or ``settled`` directly — instead of learning it from
a record that ``exchange`` returned — would carry a distance across the cut
and fail the comparison.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import preset
from repro.core.context import make_context
from repro.core.distances import INF
from repro.core.phases import drive
from repro.core.reference import dijkstra_reference
from repro.core.views import rooted_whole_view
from repro.graph.builder import from_edges
from repro.graph.grid import grid_graph
from repro.graph.rmat import rmat_graph
from repro.runtime.machine import MachineConfig
from repro.spmd.mailbox import Mailbox

MACHINE = MachineConfig(num_ranks=4, threads_per_rank=2)
CONFIGS = {
    name: preset(name, 25)
    for name in ["delta", "prune", "opt", "radius", "rho", "bellman-ford"]
}
# ``auto`` may never choose the pull model on a cut-up graph: force it, so
# the request and response rounds are held to the rule too.
CONFIGS["prune-pull"] = preset("prune", 25).evolve(pushpull_mode="pull")
CONFIGS["opt-pull"] = preset("opt", 25).evolve(pushpull_mode="pull")
GRAPHS = {
    # 32 rows of 32 over 4 block ranks: every rank owns 8 whole rows, so its
    # subgraph is connected and a leak has somewhere to go.
    "grid32": (lambda: grid_graph(32, 32, seed=4), [0, 500, 1023]),
    "rmat10": (lambda: rmat_graph(10, seed=3), [3, 300, 900]),
}


class RankLocalMailbox(Mailbox):
    """A mailbox whose wire loses every record that changes rank."""

    def send(self, src, dst, *cols):
        owner = self.comm.partition.owner
        stays = owner(src) == owner(dst)
        super().send(src[stays], dst[stays], *(col[stays] for col in cols))


def without_cross_rank_arcs(graph, partition):
    tails, heads, weights = graph.to_edge_list()
    stays = partition.owner(tails) == partition.owner(heads)
    assert 0 < stays.sum() < stays.size  # there is a cut, and something left
    return from_edges(
        tails[stays], heads[stays], weights[stays], graph.num_vertices,
        undirected=False,
    )


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def case(request):
    build, roots = GRAPHS[request.param]
    return build(), roots


@pytest.mark.parametrize("algorithm", sorted(CONFIGS))
def test_dropping_cross_rank_records_cuts_the_ranks_apart(case, algorithm):
    graph, roots = case
    for root in roots:
        ctx = make_context(graph, MACHINE, CONFIGS[algorithm])
        d = drive(
            ctx, rooted_whole_view(ctx, root),
            RankLocalMailbox(MACHINE.num_ranks, ctx.comm), root, "spmd-delta",
            perfect=None,
        )
        cut = without_cross_rank_arcs(ctx.graph, ctx.partition)
        assert np.array_equal(d, dijkstra_reference(cut, root)), (algorithm, root)
        lo, hi = ctx.partition.rank_range(ctx.partition.owner(root))
        outside = np.ones(d.size, dtype=bool)
        outside[lo:hi] = False
        assert np.all(d[outside] == INF)  # nothing left the root's rank
        assert ctx.metrics.total_bytes == 0  # nor was any traffic charged


def test_the_cut_is_what_makes_the_difference(case):
    """Same call with the plain mailbox: the full graph's distances."""
    graph, roots = case
    ctx = make_context(graph, MACHINE, preset("opt", 25))
    d = drive(
        ctx, rooted_whole_view(ctx, roots[0]), Mailbox(MACHINE.num_ranks, ctx.comm),
        roots[0], "spmd-delta", perfect=None,
    )
    assert np.array_equal(d, dijkstra_reference(graph, roots[0]))
