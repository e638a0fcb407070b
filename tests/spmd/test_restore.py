"""A crash restore is a slice assignment; "everything reached is settled"
has one spelling.

With one whole-graph view a rank's state is the range ``[lo, hi)`` of the
view's arrays. Rolling rank ``r`` back to the defence's in-memory snapshot
must write that range and nothing else — the other ranks did not crash —
keep the active set sorted (the per-rank facts are ``searchsorted`` cuts of
it), and leave the view's unsettled set equal to a from-scratch scan of the
restored state. A resumed faulted solve holds one snapshot: the restored
checkpoint's.
And the three places a Bellman-Ford fixpoint closes (hybrid tail, degraded
deadline, healing sweep) all end in :meth:`VertexView.settle_reached`, which
writes ``settled`` in place and retakes ``num_unsettled``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import preset
from repro.core.context import make_context
from repro.core.defence import Defence
from repro.core.distances import INF
from repro.core.phases import drive
from repro.core.reference import dijkstra_reference
from repro.core.stepping import DeltaStepping, Step
from repro.core.transport import DeclaredTransport
from repro.core.views import active_per_rank, rooted_whole_view
from repro.graph.builder import from_undirected_edges
from repro.graph.rmat import rmat_graph
from repro.runtime.machine import MachineConfig
from repro.runtime.watchdog import DeadlineConfig
from repro.spmd.checkpoint import CheckpointManager
from repro.spmd.faults import FaultPlan, FaultyMailbox
from repro.spmd.mailbox import Mailbox
from tests.core.oracles import NO_BUCKET, bucket_members, next_bucket

MACHINE = MachineConfig(num_ranks=4, threads_per_rank=2)
DELTA = 25
ROOT = 3


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(10, seed=3)


def advance(ctx, view, rng, rounds):
    """Move the state the way a solve does: lower distances through
    ``apply``, settle a few reached vertices, take the changed set active."""
    n = view.d.size
    for _ in range(rounds):
        dst = rng.integers(0, n, 300)
        nd = rng.integers(0, 40 * DELTA, 300)
        settled_before = view.settled.copy()
        keep = ~settled_before[dst]  # settled vertices are final
        view.active = view.apply(dst[keep], nd[keep])
        reached = np.flatnonzero(~view.settled & (view.d < 3 * DELTA))
        view.settle(reached[: reached.size // 2])


def assert_set_is_a_fresh_scan(ctx, view):
    """The unsettled set, every live bucket's members and the next step
    read as the from-scratch scans kept in ``tests/core/oracles.py``."""
    d, settled = view.d, view.settled
    np.testing.assert_array_equal(
        np.sort(view.unsettled()), np.flatnonzero(~settled & (d < INF))
    )
    strategy = DeltaStepping(preset("delta", DELTA))
    step = strategy.next_step(ctx, view, DeclaredTransport(ctx.comm), 0)
    assert (step.key if step else NO_BUCKET) == next_bucket(d, settled, DELTA)
    live = np.unique(d[(d < INF) & ~settled] // DELTA)
    for k in [*live.tolist(), int(live.max(initial=0)) + 1]:
        np.testing.assert_array_equal(
            view.members(Step(k, k * DELTA, (k + 1) * DELTA)),
            bucket_members(d, settled, k, DELTA),
        )
    assert view.num_unsettled == d.size - int(settled.sum())


def armed_defence(ctx, view, plan, **options):
    """The rank driver's defence over a fault-injecting mailbox."""
    mailbox = FaultyMailbox(MACHINE.num_ranks, ctx.comm, plan)
    return Defence(ctx, view, mailbox, ROOT, "spmd-delta", faults=plan, **options)


@pytest.mark.parametrize("rank", range(MACHINE.num_ranks))
def test_restore_writes_the_crashed_ranks_range_and_nothing_else(graph, rank):
    ctx = make_context(graph, MACHINE, preset("delta", DELTA))
    view = rooted_whole_view(ctx, ROOT)
    rng = np.random.default_rng(rank)
    advance(ctx, view, rng, 3)
    defence = armed_defence(ctx, view, FaultPlan())  # snapshots here
    snap_d, snap_settled, snap_active = (a.copy() for a in defence._snap)
    advance(ctx, view, rng, 4)
    d, settled, active = view.d.copy(), view.settled.copy(), view.active.copy()
    assert not np.array_equal(d, snap_d) and not np.array_equal(settled, snap_settled)

    defence.restore_rank(rank)

    lo, hi = ctx.partition.rank_range(rank)
    outside = np.ones(d.size, dtype=bool)
    outside[lo:hi] = False
    # Every other rank's bytes are what they were.
    assert view.d[outside].tobytes() == d[outside].tobytes()
    assert view.settled[outside].tobytes() == settled[outside].tobytes()
    mine = (view.active >= lo) & (view.active < hi)
    was_mine = (active >= lo) & (active < hi)
    assert view.active[~mine].tobytes() == active[~was_mine].tobytes()
    # The crashed rank's range is the snapshot's.
    assert view.d[lo:hi].tobytes() == snap_d[lo:hi].tobytes()
    assert view.settled[lo:hi].tobytes() == snap_settled[lo:hi].tobytes()
    snap_mine = (snap_active >= lo) & (snap_active < hi)
    np.testing.assert_array_equal(view.active[mine], snap_active[snap_mine])
    # Sorted, so the per-rank facts are still cuts at the boundaries.
    assert np.all(np.diff(view.active) > 0)
    counts = active_per_rank(ctx, view).tolist()
    assert counts[rank] == int(snap_mine.sum()) and sum(counts) == view.active.size
    assert_set_is_a_fresh_scan(ctx, view)
    # The snapshot itself is untouched: the next crash restores from it too.
    assert defence._snap[0].tobytes() == snap_d.tobytes()
    assert ctx.metrics.recovery.rank_restarts == 1


def test_full_restore_is_the_same_call_over_every_vertex(graph):
    """What a checkpoint resume does: the default range is ``[0, n)``."""
    ctx = make_context(graph, MACHINE, preset("delta", DELTA))
    view = rooted_whole_view(ctx, ROOT)
    rng = np.random.default_rng(9)
    advance(ctx, view, rng, 3)
    snap = view.d.copy(), view.settled.copy(), view.active.copy()
    advance(ctx, view, rng, 3)
    view.restore(*snap)
    for mine, theirs in zip((view.d, view.settled, view.active), snap):
        assert mine.tobytes() == theirs.tobytes() and mine is not theirs
    assert_set_is_a_fresh_scan(ctx, view)


def test_a_resumed_faulted_solve_holds_one_snapshot_the_checkpoints(graph, tmp_path):
    """The crash snapshot is taken once, after the resume wrote the
    checkpoint back, so a restart rolls back to what the run resumed."""
    ctx = make_context(graph, MACHINE, preset("delta", DELTA))
    view = rooted_whole_view(ctx, ROOT)
    advance(ctx, view, np.random.default_rng(5), 3)
    CheckpointManager(
        tmp_path, graph=ctx.graph, config=ctx.config, machine=MACHINE,
        root=ROOT, engine="spmd-delta",
    ).save(epoch=3, stage="bucket", bucket_ordinal=2, superstep=7, d=view.d,
           settled=view.settled, active=view.active)

    ctx = make_context(graph, MACHINE, preset("delta", DELTA))
    defence = armed_defence(
        ctx, rooted_whole_view(ctx, ROOT), FaultPlan(), checkpoint_dir=tmp_path,
        resume=True,
    )

    assert defence.start is not None
    assert ctx.metrics.recovery.checkpoints_taken == 1
    for snap, restored in zip(
        defence._snap, (defence.start.d, defence.start.settled, defence.start.active)
    ):
        assert snap.tobytes() == restored.tobytes()


# ----------------------------------------------------------------------
# settle_reached: after a degrade and after a heal
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def islands():
    """An R-MAT graph plus vertices nothing reaches."""
    tails, heads, weights = rmat_graph(9, seed=5).to_edge_list()
    return from_undirected_edges(tails, heads, weights, 512 + 40)


def assert_reached_is_settled(view, graph, root):
    unreached = int(np.count_nonzero(view.d == INF))
    assert unreached >= 40
    np.testing.assert_array_equal(view.settled, view.d < INF)
    assert view.num_unsettled == unreached
    np.testing.assert_array_equal(view.d, dijkstra_reference(graph, root))


def test_after_a_degraded_deadline(islands):
    ctx = make_context(islands, MACHINE, preset("delta", DELTA))
    view = rooted_whole_view(ctx, ROOT)
    settled = view.settled  # whoever shares the array sees the result
    drive(
        ctx, view, Mailbox(MACHINE.num_ranks, ctx.comm), ROOT, "spmd-delta",
        perfect=lambda: Mailbox(MACHINE.num_ranks, ctx.comm),
        deadline=DeadlineConfig.degraded(max_supersteps=2),
    )
    assert ctx.metrics.degraded_to_bf
    assert view.settled is settled
    assert_reached_is_settled(view, islands, ROOT)


@pytest.mark.parametrize("spec", ["seed=0", "loss=0.05,crash=1@4,seed=3"])
def test_after_a_heal(islands, spec):
    ctx = make_context(islands, MACHINE, preset("opt", DELTA))
    view = rooted_whole_view(ctx, ROOT)
    settled = view.settled
    plan = FaultPlan.from_spec(spec)
    mailbox = FaultyMailbox(MACHINE.num_ranks, ctx.comm, plan)
    drive(ctx, view, mailbox, ROOT, "spmd-delta", perfect=None, faults=plan)
    assert view.settled is settled
    assert_reached_is_settled(view, islands, ROOT)


def test_after_the_hybrid_tail(islands):
    ctx = make_context(islands, MACHINE, preset("opt", DELTA))
    view = rooted_whole_view(ctx, ROOT)
    drive(ctx, view, Mailbox(MACHINE.num_ranks, ctx.comm), ROOT, "spmd-delta",
          perfect=None)
    assert ctx.metrics.hybrid_switch_bucket is not None
    assert_reached_is_settled(view, islands, ROOT)
