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

Both phase functions are written once over ``(ctx, view, transport)`` and
min-apply the exchanged records to the view; relaxation counting follows
the paper's fair-count convention (push: one per record; pull: requests
*and* responses each count one).

The record-gathering helpers materialise the record sets without mutating
any state (and let go of their frontier-sized temporaries before the
exchange allocates its own). The phases send what they return; the exact
push/pull cost estimator (:mod:`repro.core.pushpull`) and the census price
and count the same sets.
"""

from __future__ import annotations

import numpy as np

from repro.core.context import ExecutionContext
from repro.core.views import VertexView, relax_round
from repro.runtime.comm import RELAX_RECORD_BYTES, REQUEST_RECORD_BYTES
from repro.runtime.metrics import ComputeKind
from repro.util.ranges import concat_ranges

__all__ = [
    "inner_prefix",
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
def inner_prefix(view: VertexView, vertices: np.ndarray, hi: int) -> np.ndarray:
    """Per vertex of ``vertices``, how many of its short arcs are *inner*
    at window end ``hi`` (``d(u) + w < hi``): on a weight-sorted row they
    are a prefix of it, whose length is one gather from the view's prefix
    table at bound ``hi - d(u)``, clamped to the table's last column (the
    short degree). Every vertex must lie below ``hi`` — the short phase's
    active vertices and the long phase's members do."""
    table = view.inner_counts
    bound = hi - view.d[vertices]
    np.minimum(bound, table.shape[1] - 1, out=bound)
    return table[vertices, bound]


def gather_push_records(
    ctx: ExecutionContext,
    view: VertexView,
    members: np.ndarray,
    k: int,
) -> tuple[list[tuple[np.ndarray, np.ndarray, np.ndarray]], np.ndarray]:
    """Materialise the push-model records of the bucket-``k`` members.

    Returns ``(batches, scanned_units)``: each batch is ``(src, dst, nd)``
    — the long records, then under IOS a second batch of outer-short
    records — and ``scanned_units`` is
    the per-member count of arcs examined (long arcs, plus short arcs when
    IOS must find the outer ones).
    """
    starts, ends = view.indptr[members], view.indptr[members + 1]
    short = view.short_offsets[members]
    long_starts = starts + short
    if not ctx.config.use_ios:
        arcs, owner_idx = concat_ranges(long_starts, ends)
        src = members[owner_idx]
        batch = (src, view.adj[arcs], view.d[src] + view.weights[arcs])
        return [batch], (ends - long_starts).astype(np.float64)
    # Under IOS a member's row past its inner prefix (relaxed in the short
    # phases) is its outer short arcs, then its long arcs. Every member's
    # long range, then every member's outer range, is expanded in one pass,
    # whose two halves are the two batches. The charge still prices every
    # arc, as a member examines its whole row.
    hi = (k + 1) * ctx.config.delta
    inner = inner_prefix(view, members, hi)
    if ctx.guards is not None:
        ctx.guards.check_ios_split(
            starts, short, inner, view.d[members], view.weights, hi
        )
    arcs, owner_idx = concat_ranges(
        np.concatenate((long_starts, starts + inner)),
        np.concatenate((ends, long_starts)),
    )
    src = np.concatenate((members, members))[owner_idx]
    dst, nd = view.adj[arcs], view.d[src] + view.weights[arcs]
    cut = owner_idx.searchsorted(members.size)
    batches = [(src[:cut], dst[:cut], nd[:cut]), (src[cut:], dst[cut:], nd[cut:])]
    return batches, ctx.graph.degrees[members].astype(np.float64)


def gather_pull_requests(
    ctx: ExecutionContext,
    view: VertexView,
    later: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Materialise the pull-model requests of the ``later`` vertices.

    Returns ``(req_v, req_u, req_w, gen_units)``: one request per *incoming*
    arc of a later-bucket vertex passing the eq. (1) filter
    ``w(e) < d(v) - kΔ``, and the per-later-vertex generation work
    (matches + 1, the binary-search cost on weight-sorted adjacency). On
    undirected graphs the symmetrized rows double as the in-arc lists; the
    view of a directed graph carries the reverse graph's. Under IOS
    requests cover short arcs too
    (that is how outer short edges are relaxed in the pull model); without
    IOS the short phases already relaxed every short arc, so only long arcs
    participate.

    The rows are weight-sorted, so a row's passing arcs are a prefix of it.
    A row whose bound ``d(v) - kΔ`` exceeds the graph's largest weight — an
    unreached vertex's always does — passes whole, untested; only the other
    rows are scanned for their prefix length, and the passing prefixes are
    gathered once.
    """
    lo = k * ctx.config.delta
    in_indptr, in_adj, in_weights, in_short = view.pull_rows()
    starts, ends = in_indptr[later], in_indptr[later + 1]
    if not ctx.config.use_ios:
        starts = starts + in_short[later]
    bound = view.d[later] - lo
    part = np.flatnonzero(bound <= ctx.graph.max_weight)
    if part.size:
        # A tested row whose first arc fails passes nothing (an empty row
        # may test a neighbour's arc: it has nothing to scan either way).
        # The rest are scanned; a row's prefix length is its passes,
        # summed off the running total at the row cuts.
        first = np.minimum(starts[part], in_weights.size - 1)
        scan = part[in_weights[first] < bound[part]]
        scan_ends = ends[scan]
        ends[part] = starts[part]
        arcs, owner_idx = concat_ranges(starts[scan], scan_ends)
        passes = in_weights[arcs] < bound[scan][owner_idx]
        total = np.zeros(arcs.size + 1, dtype=np.int64)
        np.cumsum(passes, out=total[1:])
        cuts = total[np.add.accumulate(scan_ends - starts[scan])]
        ends[scan] += np.diff(cuts, prepend=0)
    arcs, owner_idx = concat_ranges(starts, ends)
    gen_units = (ends - starts).astype(np.float64)
    gen_units += 1.0
    return later[owner_idx], in_adj[arcs], in_weights[arcs], gen_units


def pull_responders(
    ctx: ExecutionContext, view: VertexView, u: np.ndarray, k: int
) -> np.ndarray:
    """Mask over requested sources ``u``: the ones that answer.

    The bucket members are settled before the long phase and everything
    settled earlier lies below the bucket, so the responders are exactly
    the settled vertices whose distance is in bucket ``k``'s range: one
    per-vertex mask of them, read with one byte gather per request.
    """
    lo = k * ctx.config.delta
    d = view.d
    members = (d >= lo) & (d < lo + ctx.config.delta)
    members &= view.settled
    return members[u]


# ----------------------------------------------------------------------
# Phase execution
# ----------------------------------------------------------------------
def long_phase_push(
    ctx: ExecutionContext,
    view: VertexView,
    transport,
    members: np.ndarray,
    k: int,
) -> dict[str, int | str]:
    """Push-model long phase for bucket ``k``; returns the phase stats.

    ``members`` are the just-settled bucket members.
    """
    if not members.size:
        ctx.metrics.note_phase("long", 0)
        return {"mode": "push", "relaxations": 0}
    batches, scanned = gather_push_records(ctx, view, members, k)
    for batch in batches:
        transport.send(*batch)
    del batch, batches  # the transport keeps what it needs of them
    _, relaxed = relax_round(
        ctx, view, transport, ComputeKind.LONG_PUSH_RELAX, members, scanned,
        phase_kind="long",
    )
    return {"mode": "push", "relaxations": relaxed}


def long_phase_pull(
    ctx: ExecutionContext,
    view: VertexView,
    transport,
    k: int,
) -> dict[str, int | str]:
    """Pull-model long phase for bucket ``k``: a request round and a
    response round; returns the phase stats. The bucket members must
    already be settled."""
    later = view.later((k + 1) * ctx.config.delta)
    if not later.size:
        ctx.metrics.note_phase("long", 0)
        return {"mode": "pull", "relaxations": 0, "requests": 0, "responses": 0}

    # Round 1: later-bucket vertices issue requests along eq.-(1) arcs, as
    # ``(u, v, w)`` records addressed to ``u``.
    req_v, req_u, req_w, gen_units = gather_pull_requests(ctx, view, later, k)
    transport.send(req_v, req_u, req_v, req_w)
    del req_v, req_u, req_w  # the transport keeps what it needs of them
    ctx.charge(ComputeKind.PULL_REQUEST, later, gen_units, phase_kind="long")
    # Delivered with its service charge at the source owner (the bucket
    # membership check of u).
    req_u, req_v, req_w = transport.deliver(
        REQUEST_RECORD_BYTES, ComputeKind.PULL_REQUEST, phase_kind="long",
        num_columns=3,
    )
    requests = int(req_u.size)

    # Round 2: owners of current-bucket sources respond.
    respond = pull_responders(ctx, view, req_u, k)
    u = req_u[respond]
    transport.send(u, req_v[respond], view.d[u] + req_w[respond])
    del req_u, req_v, req_w, respond, u  # gone before the response exchange
    dst, nd = transport.deliver(
        RELAX_RECORD_BYTES, ComputeKind.PULL_RESPONSE, phase_kind="long"
    )
    responses = int(dst.size)
    ctx.metrics.note_phase("long", requests + responses)
    view.apply(dst, nd)
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
    """Exact per-bucket statistics of Fig. 7.

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
