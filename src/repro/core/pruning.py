"""Long-edge phase: push and pull relaxation models (Section III-B).

After a bucket's short phases converge, its vertices are settled and one
long-edge phase runs. Two mechanisms exist:

**Push** — every just-settled vertex ``u`` sends ``d(u) + w`` along each of
its long arcs (plus, under IOS, its outer short arcs). Simple, but relaxes
self and backward arcs redundantly.

**Pull** — every *later-bucket* vertex ``v`` sends a request along each
incident arc satisfying eq. (1), ``w(e) < d(v) - kΔ``; owners of
current-bucket sources respond with the proposed distance. Self and
backward arcs are pruned for free (their endpoints are settled, so they
send no requests), at the price of request/response round trips.

Both phase functions are written once over ``(ctx, views, transport)`` —
a whole-graph view with a declaring transport, or rank views with a
mailbox — and min-apply the delivered records to the views; relaxation
counting follows the paper's fair-count convention (push: one per record;
pull: requests *and* responses each count one).

The record-gathering helpers materialise one view's record sets without
mutating any state. The phases send what they return; the exact push/pull
cost estimator (:mod:`repro.core.pushpull`) and the census price and count
the same sets on a whole-graph view.
"""

from __future__ import annotations

import numpy as np

from repro.core.context import ExecutionContext
from repro.core.views import (
    VertexView,
    charge_generated,
    charge_received,
    relax_round,
)
from repro.runtime.comm import RELAX_RECORD_BYTES, REQUEST_RECORD_BYTES
from repro.runtime.metrics import ComputeKind
from repro.util.ranges import concat_ranges

__all__ = [
    "gather_push_records",
    "gather_pull_requests",
    "pull_responders",
    "long_phase_push",
    "long_phase_pull",
    "bucket_census",
]


# ----------------------------------------------------------------------
# Record gathering (shared by execution, exact cost estimation and census)
# ----------------------------------------------------------------------
def gather_push_records(
    ctx: ExecutionContext,
    view: VertexView,
    members: np.ndarray,
    k: int,
) -> tuple[list[tuple[np.ndarray, np.ndarray, np.ndarray]], np.ndarray]:
    """Materialise the push-model records of ``view``'s bucket-``k`` members.

    Returns ``(batches, scanned_units)``: each batch is ``(src, dst, nd)``
    with ``src`` local and ``dst`` global ids — the long records, then under
    IOS a second batch of outer-short records — and ``scanned_units`` is
    the per-member count of arcs examined (long arcs, plus short arcs when
    IOS must find the outer ones).
    """
    hi = (k + 1) * ctx.config.delta
    long_starts = view.indptr[members] + view.short_offsets[members]
    long_ends = view.indptr[members + 1]
    arcs, owner_idx = concat_ranges(long_starts, long_ends)
    src = members[owner_idx]
    batches = [(src, view.adj[arcs], view.d[src] + view.weights[arcs])]
    scanned_units = (long_ends - long_starts).astype(np.float64)
    if ctx.config.use_ios:
        # Outer short arcs: proposed distance falls past the current bucket
        # (the inner ones were already relaxed during the short phases).
        s_arcs, s_owner = concat_ranges(view.indptr[members], long_starts)
        s_src = members[s_owner]
        s_nd = view.d[s_src] + view.weights[s_arcs]
        outer = s_nd >= hi
        if ctx.guards is not None:
            ctx.guards.check_ios_coverage(int(s_arcs.size), int(s_nd.size))
            ctx.guards.check_ios_partition(s_nd, hi, ~outer)
        batches.append((s_src[outer], view.adj[s_arcs][outer], s_nd[outer]))
        scanned_units += view.short_offsets[members].astype(np.float64)
    return batches, scanned_units


def gather_pull_requests(
    ctx: ExecutionContext,
    view: VertexView,
    later: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Materialise the pull-model requests of ``view``'s ``later`` vertices.

    Returns ``(req_v, req_u, req_w, gen_units)``: one request per *incoming*
    arc of a later-bucket vertex passing the eq. (1) filter
    ``w(e) < d(v) - kΔ`` (``req_v`` local, ``req_u`` global), and the
    per-later-vertex generation work (matches + 1, the binary-search cost
    on weight-sorted adjacency). On undirected graphs the symmetrized rows
    double as the in-arc lists; a whole-graph view of a directed graph
    carries the reverse graph's. Under IOS requests cover short arcs too
    (that is how outer short edges are relaxed in the pull model); without
    IOS the short phases already relaxed every short arc, so only long arcs
    participate.
    """
    lo = k * ctx.config.delta
    in_indptr, in_adj, in_weights, in_short = view.pull_rows()
    starts = in_indptr[later]
    if not ctx.config.use_ios:
        starts = starts + in_short[later]
    arcs, owner_idx = concat_ranges(starts, in_indptr[later + 1])
    req_w = in_weights[arcs]
    passes = req_w < view.d[later[owner_idx]] - lo
    owner_idx = owner_idx[passes]
    gen_units = np.bincount(owner_idx, minlength=later.size).astype(np.float64)
    gen_units += 1.0
    return later[owner_idx], in_adj[arcs][passes], req_w[passes], gen_units


def pull_responders(
    ctx: ExecutionContext, view: VertexView, u: np.ndarray, k: int
) -> np.ndarray:
    """Mask over requested sources ``u`` (local ids): the ones that answer.

    The bucket members are settled before the long phase and everything
    settled earlier lies below the bucket, so the responders are exactly
    the settled vertices whose distance is in bucket ``k``'s range.
    """
    lo = k * ctx.config.delta
    d_u = view.d[u]
    return view.settled[u] & (d_u >= lo) & (d_u < lo + ctx.config.delta)


# ----------------------------------------------------------------------
# Phase execution
# ----------------------------------------------------------------------
def long_phase_push(
    ctx: ExecutionContext,
    views: list[VertexView],
    transport,
    members_per_view: list[np.ndarray],
    k: int,
) -> dict[str, int | str]:
    """Push-model long phase for bucket ``k``; returns the phase stats.

    ``members_per_view`` are the just-settled bucket members (local ids).
    """
    if not any(m.size for m in members_per_view):
        ctx.metrics.note_phase("long", 0)
        return {"mode": "push", "relaxations": 0}
    gen = []
    for v, members in zip(views, members_per_view):
        batches, scanned = gather_push_records(ctx, v, members, k)
        for batch in batches:
            transport.send(v, *batch)
        gen.append((v.to_global(members), scanned))
    inboxes, relaxed = relax_round(
        ctx, transport, ComputeKind.LONG_PUSH_RELAX, gen, RELAX_RECORD_BYTES,
        phase_kind="long",
    )
    for v, (dst, nd) in zip(views, inboxes):
        v.apply(dst, nd)
    return {"mode": "push", "relaxations": relaxed}


def long_phase_pull(
    ctx: ExecutionContext,
    views: list[VertexView],
    transport,
    k: int,
) -> dict[str, int | str]:
    """Pull-model long phase for bucket ``k``: a request round and a
    response round; returns the phase stats. The bucket members must
    already be settled."""
    hi = (k + 1) * ctx.config.delta
    laters = [v.later(hi) for v in views]
    if not any(later.size for later in laters):
        ctx.metrics.note_phase("long", 0)
        return {"mode": "pull", "relaxations": 0, "requests": 0, "responses": 0}

    # Round 1: later-bucket vertices issue requests along eq.-(1) arcs.
    gen = []
    for v, later in zip(views, laters):
        req_v, req_u, req_w, gen_units = gather_pull_requests(ctx, v, later, k)
        transport.send(v, req_v, req_u, v.to_global(req_v), req_w)
        gen.append((v.to_global(later), gen_units))
    charge_generated(ctx, ComputeKind.PULL_REQUEST, gen, phase_kind="long")
    req_inboxes = transport.deliver(
        REQUEST_RECORD_BYTES, phase_kind="long", num_columns=3
    )
    # Request service at the source owner: check bucket membership of u.
    requests = charge_received(
        ctx, ComputeKind.PULL_REQUEST, req_inboxes, phase_kind="long"
    )

    # Round 2: owners of current-bucket sources respond.
    for v, (req_u, req_v, req_w) in zip(views, req_inboxes):
        u = v.to_local(req_u)
        respond = pull_responders(ctx, v, u, k)
        u = u[respond]
        transport.send(v, u, req_v[respond], v.d[u] + req_w[respond])
    resp_inboxes = transport.deliver(RELAX_RECORD_BYTES, phase_kind="long")
    responses = charge_received(
        ctx, ComputeKind.PULL_RESPONSE, resp_inboxes, phase_kind="long"
    )
    ctx.metrics.note_phase("long", requests + responses)
    for v, (dst, nd) in zip(views, resp_inboxes):
        v.apply(dst, nd)
    return {
        "mode": "pull",
        "relaxations": requests + responses,
        "requests": requests,
        "responses": responses,
    }


# ----------------------------------------------------------------------
# Census (Fig. 7)
# ----------------------------------------------------------------------
def bucket_census(
    ctx: ExecutionContext,
    view: VertexView,
    members: np.ndarray,
    k: int,
) -> dict[str, int]:
    """Exact per-bucket statistics of Fig. 7, from a whole-graph view.

    Counts the long arcs of the current bucket's members split into self /
    backward / forward by the destination's bucket, and the exact number of
    pull requests eq. (1) would generate. The members must already be
    settled.
    """
    delta = ctx.config.delta
    lo = k * delta
    hi = lo + delta
    d, settled = view.d, view.settled
    out: dict[str, int] = {"bucket": k, "members": int(members.size)}

    starts = view.indptr[members] + view.short_offsets[members]
    arcs, _ = concat_ranges(starts, view.indptr[members + 1])
    dst = view.adj[arcs]
    dd = d[dst]
    in_cur = (dd >= lo) & (dd < hi)
    # Destination classification: self = in current bucket range;
    # backward = settled and strictly before it; forward = the rest.
    self_ct = int((in_cur & settled[dst]).sum())
    backward_ct = int((settled[dst] & (dd < lo)).sum())
    out.update(
        self_edges=self_ct,
        backward_edges=backward_ct,
        forward_edges=int(dst.size - self_ct - backward_ct),
        push_relaxations=int(dst.size),
    )

    _, req_u, _, _ = gather_pull_requests(ctx, view, view.later(hi), k)
    out["pull_requests"] = int(req_u.size)
    out["pull_responses"] = int(pull_responders(ctx, view, req_u, k).sum())
    return out
