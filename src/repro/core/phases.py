"""One solve, the stepping loop and the epoch body, written once for both
drivers.

:func:`drive` is a solve from root span to final guards; inside it
execution is bulk-synchronous. The loop asks the
:class:`~repro.core.stepping.SteppingStrategy` for the next window; every
epoch then runs a first stage of iterative *short phases* (relaxing short —
under IOS only inner short — arcs of active vertices) until the window
drains, settles the window members, and, for the Δ strategy, relaxes the
remaining arcs in one *long phase* by push or pull
(:mod:`repro.core.pruning`, chosen by :func:`~repro.core.pushpull.decide_mode`).
With hybridization the loop hands over to the Bellman-Ford tail
(:func:`~repro.core.bellman_ford.bellman_ford_stage`) once the settled
fraction passes τ.

Everything here takes ``(ctx, view, transport)``: the one whole-graph
:class:`~repro.core.views.VertexView` and either a
:class:`~repro.core.transport.DeclaredTransport` (the whole-graph driver:
traffic declared) or a :class:`~repro.spmd.mailbox.Mailbox` (the rank
driver: records routed rank to rank, faults and all). Nothing in here asks
which: a phase is one kernel pass over the sorted frontier, its records go
out in one ``send``, and what the pass learns about other vertices is what
``exchange`` returns. The functions that build a frontier's records are
separate (:func:`short_records`, :mod:`repro.core.pruning`'s gatherers) so
that their frontier-sized temporaries are gone before the exchange
allocates its own.
"""

from __future__ import annotations

import numpy as np

from repro.core.bellman_ford import bellman_ford_stage
from repro.core.context import ExecutionContext
from repro.core.defence import Defence
from repro.core.distances import INF
from repro.core.hybrid import should_switch
from repro.core.pruning import (
    bucket_census, inner_prefix, long_phase_pull, long_phase_push,
)
from repro.core.pushpull import PullRebuild, decide_mode
from repro.core.stepping import Step, make_strategy
from repro.core.views import VertexView, active_per_rank, relax_round
from repro.runtime.metrics import ComputeKind
from repro.runtime.watchdog import DeadlineExceeded
from repro.util.ranges import concat_ranges

__all__ = ["drive", "run_stepping", "process_epoch", "short_records"]


def drive(
    ctx: ExecutionContext,
    view: VertexView,
    transport,
    root: int,
    engine: str,
    *,
    perfect,
    faults=None,
    **defence_options,
) -> np.ndarray:
    """One solve from ``root``, start to finish; returns the distances.

    The body both drivers share: each hands in a fresh view rooted at
    ``root`` and its transport. ``engine`` tags the root span and the
    checkpoints; ``faults`` and ``defence_options`` are :class:`Defence`'s.
    ``perfect()`` makes a fresh fault-free transport for the pass that
    resolves a tripped deadline; an undisturbed run closes with the
    defence's self-healing sweep.
    """
    cfg = ctx.config
    tr = ctx.tracer
    solve_span = (
        tr.begin(
            "solve", cat="solve", engine=engine, root=int(root),
            n=int(ctx.graph.num_vertices), delta=int(cfg.delta),
        )
        if tr is not None
        else None
    )
    defence = Defence(
        ctx, view, transport, root, engine, faults=faults, **defence_options
    )
    if cfg.is_bellman_ford:
        # Δ = ∞: the whole solve is the Bellman-Ford stage.
        defence.stage = "bf"
    if faults is None:
        # Records arrive as sent, so a certified bucket's pull estimate can
        # be rebuilt from the final distances (pushpull.PullRebuild).
        ctx.metrics.resolver = PullRebuild(ctx)
    try:
        run_stepping(ctx, view, transport, defence)
    except DeadlineExceeded as exc:
        defence.resolve_deadline(exc, perfect())
    else:
        defence.heal(root)
    # Settle the ledger (no result pins a frontier array), then the
    # end-of-solve guards and the close of the root span.
    ctx.metrics.settle()
    d = view.d
    if faults is None:
        ctx.metrics.resolver.seal(d)
    if ctx.guards is not None:
        ctx.guards.check_final(d, root)
        ctx.guards.check_recovery_separation(
            ctx.metrics,
            allowed=ctx.metrics.degraded_to_bf
            or (faults is not None and faults.injects_anything),
        )
    if tr is not None:
        tr.end(solve_span, settled=int(view.settled.sum()))
        tr.finish(metrics=ctx.metrics)
    return d


def run_stepping(
    ctx: ExecutionContext, view: VertexView, transport, defence: Defence
) -> None:
    """Step until no window remains (or the hybrid switch fires).

    ``defence`` supplies the resume point and is called before every
    epoch (its crash snapshot) and after it (checkpoint, watchdog tick);
    its ``bf_hook`` does both for every Bellman-Ford iteration.
    """
    cfg = ctx.config
    if defence.stage == "bf":
        # Resuming past the hybrid switch (or from a forced timeout
        # checkpoint): run the Bellman-Ford tail directly.
        bellman_ford_stage(ctx, view, transport, epoch_hook=defence.bf_hook)
        view.settle_reached()
        return
    strategy = make_strategy(cfg)
    strategy.prepare(ctx.graph)
    ordinal = defence.bucket_ordinal
    n = ctx.graph.num_vertices
    while True:
        # Next step: every rank scans its unsettled vertices for its
        # window candidate, then the strategy's selection collective
        # combines them.
        ctx.scan_all_ranks(view.num_unsettled)
        step = strategy.next_step(ctx, view, transport, ordinal)
        if step is None:
            break
        if ctx.guards is not None:
            ctx.guards.on_bucket_start(step.key)
        defence.before_epoch()
        process_epoch(ctx, view, transport, step, ordinal, strategy)
        ordinal += 1
        defence.bucket_ordinal = ordinal
        if cfg.use_hybrid:
            # Settled-fraction aggregate for the switch decision.
            settled_total = transport.allreduce_sum(n - view.num_unsettled)
            if should_switch(settled_total, n, cfg.tau, tracer=ctx.tracer):
                ctx.metrics.hybrid_switch_bucket = step.key
                view.active = np.nonzero(~view.settled & (view.d < INF))[0]
                defence.stage = "bf"
                defence.on_epoch()
                bellman_ford_stage(ctx, view, transport, epoch_hook=defence.bf_hook)
                view.settle_reached()
                break
        defence.on_epoch()


def short_records(
    ctx: ExecutionContext, view: VertexView, active: np.ndarray, short: np.ndarray,
    hi: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The short-phase records ``(src, dst, nd)`` of the ``active``
    vertices, whose short-arc counts are ``short``: one per short arc —
    under IOS only per *inner* short arc, whose proposed distance lands
    inside the window ending at ``hi``; outer short arcs wait for the long
    phase. The inner arcs are a prefix of the weight-sorted row
    (:func:`~repro.core.pruning.inner_prefix`), so only they are
    expanded."""
    starts = view.indptr[active]
    count = short
    if ctx.config.use_ios:
        count = inner_prefix(view, active, hi)
        if ctx.guards is not None:
            ctx.guards.check_ios_split(
                starts, short, count, view.d[active], view.weights, hi
            )
    arcs, owner_idx = concat_ranges(starts, starts + count)
    src = active[owner_idx]
    return src, view.adj[arcs], view.d[src] + view.weights[arcs]


def process_epoch(
    ctx: ExecutionContext,
    view: VertexView,
    transport,
    step: Step,
    bucket_ordinal: int,
    strategy,
) -> None:
    """Process one step's window to completion: short stage, settle, and
    (for the delta strategy) the long phase."""
    cfg = ctx.config
    k, lo, hi = step.key, step.lo, step.hi
    tr = ctx.tracer
    guards = ctx.guards
    epoch_span = (
        tr.begin(
            f"bucket {k}", cat="epoch", bucket=int(k), ordinal=int(bucket_ordinal)
        )
        if tr is not None
        else None
    )

    # Epoch start: identify the window members. Each rank owns a pass over
    # its unsettled block in the accounting model, though the view answers
    # from its unsettled set instead of touching all n vertices.
    ctx.scan_all_ranks(view.num_unsettled)
    view.active = view.members(step)

    # --- Stage 1: iterative short phases until the window drains.
    while True:
        total_active = transport.allreduce_sum(view.active.size)
        if total_active == 0:
            break
        short_span = (
            tr.begin("short", cat="phase", bucket=int(k), active=int(total_active))
            if tr is not None
            else None
        )
        ctx.charge_scan(active_per_rank(ctx, view))
        active = view.active
        short = view.short_offsets[active]
        transport.send(*short_records(ctx, view, active, short, hi))
        view.active, relaxed = relax_round(
            ctx, view, transport, ComputeKind.SHORT_RELAX, active,
            short, phase_kind="short", window=(lo, hi),
        )
        if guards is not None:
            guards.after_relaxations(view.d, view.active, (lo, hi))
        if tr is not None:
            tr.end(short_span, relaxed=relaxed)

    # --- Settle the window.
    members = view.members(step)
    view.settle(members)
    members_count = int(members.size)
    if guards is not None:
        guards.check_settled(view.d, view.settled)

    stats: dict[str, int | str] = {}
    if cfg.collect_census:
        stats.update(bucket_census(ctx, view, members, k))

    # --- Stage 2: one long phase, push or pull. The windowed strategies
    # classify every edge short, so their long phase is structurally empty
    # and skipped outright.
    estimate = None
    if strategy.short_phase_only:
        mode = "none"
        stats.update({"mode": "none", "relaxations": 0})
    else:
        long_span = (
            tr.begin("long", cat="phase", bucket=int(k), active=members_count)
            if tr is not None
            else None
        )
        mode, estimate = decide_mode(ctx, view, members, k, bucket_ordinal)
        if mode == "push":
            phase_stats = long_phase_push(ctx, view, transport, members, k)
        else:
            phase_stats = long_phase_pull(ctx, view, transport, k)
        if tr is not None:
            tr.end(long_span, mode=mode, relaxed=int(phase_stats["relaxations"]))
        if guards is not None:
            guards.after_relaxations(view.d)
        stats.update(phase_stats)
    if guards is not None:
        guards.check_unsettled_set(view.unsettled(), view.d, view.settled)
    stats["bucket"] = k
    stats["members"] = members_count
    if estimate is not None:
        stats["est_push_cost"] = estimate.push_cost
        if estimate.pull_cost is not None:
            stats["est_pull_cost"] = estimate.pull_cost
    # A certified push's pull estimate is rebuilt when the row is read.
    deferred = estimate is not None and estimate.pull_cost is None
    ctx.metrics.note_bucket(stats, deferred)
    if tr is not None:
        tr.end(epoch_span, members=members_count, mode=mode)
