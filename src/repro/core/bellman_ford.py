"""Distributed Bellman-Ford (Section II-A).

Used in three places: as the whole solve of the Δ = ∞ baseline
(``config.is_bellman_ford``), as the tail stage of the hybridization
strategy (Section III-D), which collapses all buckets past the switch point
into one and finishes with Bellman-Ford iterations, and — charged to the
recovery phase — as the one recovery fixpoint of
:class:`~repro.core.defence.Defence`, run by the watchdog's ``degrade``
policy and by the self-healing sweep of a faulted solve.

Each iteration relaxes *all* incident arcs of every active vertex (a vertex
is active when its tentative distance changed in the previous iteration);
iterations are bulk-synchronous with one termination allreduce each.
"""

from __future__ import annotations

import numpy as np

from repro.core.context import ExecutionContext
from repro.core.views import VertexView, active_per_rank, relax_round
from repro.runtime.comm import RECOVERY_PHASE
from repro.runtime.metrics import ComputeKind
from repro.util.ranges import concat_ranges

__all__ = ["bellman_ford_stage"]


def _all_arc_records(
    view: VertexView, active: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One record ``(src, dst, nd)`` per incident arc of ``active``."""
    arcs, owner_idx = concat_ranges(view.indptr[active], view.indptr[active + 1])
    src = active[owner_idx]
    return src, view.adj[arcs], view.d[src] + view.weights[arcs]


def bellman_ford_stage(
    ctx: ExecutionContext,
    view: VertexView,
    transport,
    *,
    phase_kind: str = "bf",
    epoch_hook=None,
) -> int:
    """Bellman-Ford iterations from the view's current active set.

    ``phase_kind`` is ``"bf"`` for the algorithm's own stage and
    ``"recovery"`` for degradation passes and self-healing sweeps (their
    cost then lands in the recovery accounting instead of the paper-facing
    phases). ``epoch_hook`` is called at the top of every iteration, when
    the distances are a consistent epoch boundary — the defence layer's
    crash snapshot, checkpoint and watchdog tick live there. Returns the
    number of iterations executed.
    """
    sync_kind = RECOVERY_PHASE if phase_kind == RECOVERY_PHASE else "bucket"
    tr = ctx.tracer
    iteration = 0
    while True:
        # Global check whether any rank still has active vertices.
        total_active = transport.allreduce_sum(view.active.size, phase_kind=sync_kind)
        if total_active == 0:
            break
        if epoch_hook is not None:
            epoch_hook()
        iteration += 1
        span = (
            tr.begin(
                "bf", cat="phase", iteration=iteration, kind=phase_kind,
                active=int(total_active),
            )
            if tr is not None
            else None
        )
        # Building the active list is a scan over last phase's changed set.
        ctx.charge_scan(active_per_rank(ctx, view))
        active = view.active
        transport.send(*_all_arc_records(view, active))
        view.active, relaxed = relax_round(
            ctx, view, transport, ComputeKind.BF_RELAX, active,
            ctx.graph.degrees[active], phase_kind=phase_kind,
        )
        if ctx.guards is not None:
            ctx.guards.after_relaxations(view.d, view.active)
        if tr is not None:
            tr.end(span, relaxed=relaxed)
    return iteration

