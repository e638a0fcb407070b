"""Push–pull decision heuristic (Section III-C).

At the end of each bucket's short stage the algorithm must pick the model
for the long-edge phase. Three estimators are provided, selected by
``SolverConfig.pushpull_estimator``:

**expectation** (the paper's heuristic) — prices each model from cheap
aggregates: the push volume is the (preprocessed) long-degree sum of the
bucket members, exact by construction; the pull volume uses the
uniform-weight expectation trick for the number of eq. (1) requests and
bounds responses by requests. A *maximum-per-rank* term models the request
imbalance the paper added after finding the pure volume heuristic picks
wrong for ~15 % of the cases; ``imbalance_weight`` scales it (0 recovers
the volume-only variant, used as an ablation).

**exact** — prices both models with the cost model itself, from exactly
materialised record sets (the binary-search/histogram strategies the paper
sketches, taken to their limit). Since push and pull relax the same useful
edges, per-bucket costs are independent, so the greedy exact choice is the
globally optimal decision sequence — this is the configuration that
reproduces the paper's Section IV-G result (heuristic optimal on all test
cases).

Either way the decision consumes two small allreduces (sum and max
aggregates), which are charged against the run.

**The certificate.** The expectation estimate would price pull over every
*later* vertex to decide a phase that may move a few dozen records. Under
IOS an unreached vertex prices at exactly its in-degree and a reached
later one at ``>= 0``, so with ``U`` the unreached in-degree sum the pull
cost is at least ``β·U·(request + relax bytes) + 2αP +
imbalance_weight·t_request·U/P``: a push cost at most that times
``1 − 1e-9`` (the margin covers the float error of the pairwise sums)
decides push without pricing pull (:func:`certify_push`; one ``dot``,
and the push partials it computed are the estimate's when it fails).
Such a bucket publishes its push cost at once and its pull cost when its
row is first read: :class:`PullRebuild` rebuilds the bucket's state from
the final distances ``d*`` — settled ``d* < hi``, members ``lo <= d* <
hi``, a later vertex at the least ``d*(u) + w`` over its arcs from ``d*(u)
< lo``, else INF — and runs the unchanged :func:`estimate_models` on it.
A traced solve decides the same way; its decision instant carries the
push cost, ``certified`` and a null pull cost. ``estimate_models`` runs at
the decision in four cases: the certificate fails; a fault plan is armed
(a rank restored from its checkpoint decides on tentative distances the
rebuild from ``d*`` does not reproduce, so a rebuilt row could price pull
below the push it certified); IOS is off; another estimator is configured.

When it runs it is kept to the passes the formula needs (DESIGN.md §9,
rule 5): its per-vertex degrees — long out-arcs for push, the in-arcs a
request may ride for pull — are one gather each of an existing table
(``long_degrees`` / ``in_long_degrees``, the in-graph's ``degrees``), and
the request share is computed in place on the one array the later
distances are converted into. Each rank's pull partial stays the pairwise
sum of its own contiguous block, in rank order — what a rank of a
distributed run adds up before the allreduce: that is what pins the
estimate's floats (``tests/core/test_counter_identity.py`` holds them by
literal). The push partials are sums of whole numbers, exact in any order,
so they are one ``bincount`` of the members' long degrees by owner.
"""

from __future__ import annotations

import dataclasses
import zlib
from dataclasses import dataclass

import numpy as np

from repro.core.context import ExecutionContext
from repro.core.distances import INF
from repro.core.pruning import (
    gather_pull_requests,
    gather_push_records,
    pull_responders,
)
from repro.core.relax import apply_relaxations
from repro.core.views import VertexView, rank_cuts, whole_graph_view
from repro.runtime.comm import RELAX_RECORD_BYTES, REQUEST_RECORD_BYTES
from repro.runtime.metrics import route_lanes, traffic, work_grid
from repro.util.ranges import concat_ranges

__all__ = [
    "PushPullEstimate",
    "estimate_models",
    "estimate_models_histogram",
    "estimate_models_exact",
    "push_partials",
    "certify_push",
    "PullRebuild",
    "decide_mode",
]


@dataclass(frozen=True)
class PushPullEstimate:
    """Cost estimates for the two long-phase models of one bucket; the pull
    fields are ``None`` when push was certified without pricing pull
    (:func:`certify_push`)."""

    push_records: float
    push_max_rank_records: float
    pull_requests: float | None
    pull_max_rank_requests: float | None
    push_cost: float
    pull_cost: float | None
    estimator: str = "expectation"

    @property
    def choice(self) -> str:
        """Model with the lower estimated cost."""
        pull = self.pull_cost
        return "push" if pull is None or self.push_cost <= pull else "pull"


# ----------------------------------------------------------------------
# Expectation estimator (the paper's heuristic)
# ----------------------------------------------------------------------
def _pull_partials(cfg, w_max, lo, d_later, later_in_degrees, later_cuts) -> list[float]:
    """Pull volume per rank: the uniform-weight expectation of eq.-(1)
    requests over its block of later vertices, whose in-degrees are all
    incoming arcs under IOS and the long ones otherwise (integer counts or
    their floats: the terms are the same). The terms are evaluated once,
    in place on the one array ``d_later`` is converted into; rank ``r``
    then sums its block ``[cuts[r], cuts[r+1])`` — a contiguous slice,
    whose pairwise sum is the float a per-rank evaluation gives
    (``np.add.reduceat`` is not)."""
    frac = d_later.astype(np.float64)
    if cfg.use_ios:
        # Requests may ride any incoming arc with w < d(v) - kΔ. A later
        # vertex has d >= (k+1)Δ > lo, so the share is positive, and an
        # unreached one saturates: (INF - lo) / w_max >= 1.
        frac -= lo
        frac /= w_max
    else:
        # Long arcs only: weight window [Δ, d(v) - kΔ), which an unreached
        # vertex fills only up to (w_max - Δ) / (w_max - Δ + 1).
        frac = np.where(frac >= INF, np.float64(w_max), frac - lo)
        frac -= cfg.delta
        frac /= max(w_max - cfg.delta + 1, 1)
        np.maximum(frac, 0.0, out=frac)
    np.minimum(frac, 1.0, out=frac)
    frac *= later_in_degrees
    return _block_sums(frac, later_cuts)


def _block_sums(terms: np.ndarray, cuts: np.ndarray) -> list[float]:
    cuts = cuts.tolist()
    reduce = np.add.reduce  # what ``ndarray.sum`` calls, minus its wrapper
    return [
        float(reduce(terms[a:b])) if a < b else 0.0 for a, b in zip(cuts, cuts[1:])
    ]


def _volume_estimate(
    cfg, machine, push_records, push_max, pull_requests, pull_max, estimator: str
) -> PushPullEstimate:
    """Price both models from their record volumes (totals) and per-rank
    maxima (the imbalance terms)."""
    p = machine.num_ranks
    pull_responses = pull_requests  # paper's upper bound, good in practice
    pull_cost = (
        machine.beta
        * (pull_requests * REQUEST_RECORD_BYTES + pull_responses * RELAX_RECORD_BYTES)
        + machine.alpha * 2 * p
        + cfg.imbalance_weight * machine.t_request * pull_max
    )
    return PushPullEstimate(
        push_records=push_records,
        push_max_rank_records=push_max,
        pull_requests=pull_requests,
        pull_max_rank_requests=pull_max,
        push_cost=_push_cost(cfg, machine, push_records, push_max),
        pull_cost=pull_cost,
        estimator=estimator,
    )


def _push_cost(cfg, machine, push_records, push_max) -> float:
    return (
        machine.beta * push_records * RELAX_RECORD_BYTES
        + machine.alpha * machine.num_ranks
        + cfg.imbalance_weight * machine.t_relax * push_max
    )


def estimate_models(
    ctx: ExecutionContext,
    view: VertexView,
    members: np.ndarray,
    k: int,
    push: list[float] | None = None,
) -> PushPullEstimate:
    """Expectation-based push/pull estimate for bucket ``k`` (members settled).

    Evaluates the push partials over the members (:func:`push_partials`,
    unless the caller hands them in as ``push``) and the pull partials over
    the later vertices, cut at the partition boundaries, and folds the
    per-rank partials in rank order: totals by sum, the imbalance terms by
    per-rank maximum — the allreduce pair the decision charges.
    """
    cfg = ctx.config
    lo = k * cfg.delta
    w_max = max(ctx.graph.max_weight, 1)
    # Incoming arcs a request may ride: all of them under IOS, the long ones
    # otherwise.
    in_degrees = ctx.in_graph.degrees if cfg.use_ios else ctx.in_long_degrees
    later = view.later(lo + cfg.delta)
    pull = _pull_partials(
        cfg, w_max, lo, view.d[later], in_degrees[later], rank_cuts(ctx, later)
    )
    if push is None:
        push = push_partials(ctx, members)
    return _volume_estimate(
        cfg, ctx.machine, sum(push), max(push), sum(pull), max(pull), "expectation"
    )


def push_partials(ctx, members: np.ndarray) -> list[float]:
    """Per-rank long-degree sums of the ``members``: one ``bincount`` by owner."""
    owners, p = ctx.partition.owner_map[members], ctx.machine.num_ranks
    return np.bincount(owners, ctx.long_degrees[members], minlength=p).tolist()


def certify_push(ctx, view: VertexView, push: list[float]) -> PushPullEstimate | None:
    """The expectation estimate's push half, from the members' per-rank
    ``push`` partials (:func:`push_partials`), when it alone proves push
    wins under IOS; ``None`` when it does not.

    Under IOS an unreached unsettled vertex is a later vertex whose
    request share saturates at exactly ``1.0``, so it prices at its
    in-degree, and a reached later vertex adds a term ``>= 0``. With ``U``
    the in-degree sum of those vertices (in a solve no unreached vertex is
    settled) the pull volume is therefore ``>= U``, its responses equal
    its requests, and its busiest rank holds ``>= U / P``: the pull cost
    is at least ``β·U·(request + relax bytes) + 2αP +
    imbalance_weight·t_request·U/P``. A push cost at most that floor times
    ``1 − 1e-9`` (the margin covers the float error of the pairwise sums)
    is one the exact estimate would pick push for. The pull fields of
    the returned estimate are ``None``: nothing priced them.
    """
    cfg, machine = ctx.config, ctx.machine
    records, most = sum(push), max(push)
    push_cost = _push_cost(cfg, machine, records, most)
    unreached = view.d >= INF
    np.greater(unreached, view.settled, out=unreached)  # and not settled
    unreached = int(ctx.in_graph.degrees @ unreached)
    p = machine.num_ranks
    pull_floor = (
        machine.beta * unreached * (REQUEST_RECORD_BYTES + RELAX_RECORD_BYTES)
        + machine.alpha * 2 * p
        + cfg.imbalance_weight * machine.t_request * unreached / p
    )
    if push_cost > pull_floor * (1 - 1e-9):
        return None
    return PushPullEstimate(records, most, None, None, push_cost, None)


class PullRebuild:
    """The resolver of one solve's deferred pull estimates
    (``Metrics.resolver``; :func:`~repro.core.phases.drive` registers it).

    It keeps the per-graph tables of the solve's context — not the context,
    whose per-run state would outlive the solve — and, from :meth:`seal`
    on, the final distances ``d*`` with their CRC-32: a caller that writes
    into them cannot move a rebuilt estimate. Nothing is kept per bucket: a
    certified bucket's state is rebuilt from ``d*`` when its row is first
    read (:meth:`__call__`). The tables hold the graph, so the serving
    broker drops the resolver from the answers it hands out: an answer
    outlives its snapshot.
    """

    def __init__(self, ctx: ExecutionContext) -> None:
        self.tables = dataclasses.replace(
            ctx, metrics=None, comm=None, guards=None, tracer=None
        )
        self.d = self.crc = None

    def seal(self, d: np.ndarray) -> None:
        """Take the solve's final distances (not copied) and their CRC-32."""
        self.d, self.crc = d, zlib.crc32(d)

    def __call__(self, rows: list[dict]) -> None:
        """Fill ``est_pull_cost`` into the certified buckets' ``rows``
        (solve order): one sweep of increasing ``k`` rebuilds each bucket's
        state at its decision — settled is ``d* < hi``, the members are
        ``lo <= d* < hi``, and a later vertex's tentative distance is the
        least ``d*(u) + w`` over its in-arcs from ``d*(u) < lo`` (under IOS
        every arc of an earlier bucket has been relaxed, and no short
        record of this bucket lands at or past ``hi``), else INF — and
        runs :func:`estimate_models` on it. Raises when the solve did not
        finish or its distances were written since."""
        d = self.d
        if d is None:
            raise RuntimeError("the solve did not finish: no distances to rebuild from")
        if zlib.crc32(d) != self.crc:
            raise RuntimeError(
                "the solve's distances were written after it finished; "
                "its deferred pull estimates cannot be rebuilt"
            )
        ctx = self.tables
        graph, delta = ctx.graph, ctx.config.delta
        order = np.argsort(d, kind="stable")
        cuts = d[order].searchsorted([row["bucket"] * delta for row in rows]).tolist()
        tentative = np.full(d.size, INF, dtype=np.int64)
        done = 0
        for row, cut in zip(rows, cuts):
            k = row["bucket"]
            tails, done = order[done:cut], cut
            starts = graph.indptr[tails]
            arcs, owners = concat_ranges(starts, graph.indptr[tails + 1])
            nd = d[tails[owners]] + graph.weights[arcs]
            apply_relaxations(tentative, graph.adj[arcs], nd)
            settled = d < (k + 1) * delta
            members = np.flatnonzero(settled & (d >= k * delta))
            view = whole_graph_view(ctx, np.where(settled, d, tentative), settled)
            row["est_pull_cost"] = estimate_models(ctx, view, members, k).pull_cost


def _max_per_rank(ctx, vertices: np.ndarray, weights=None) -> float:
    """Largest per-rank total of ``weights`` (one each when ``None``) over
    the owners of ``vertices``."""
    if not vertices.size:
        return 0.0
    owners = np.asarray(ctx.partition.owner(vertices), dtype=np.int64)
    p = ctx.machine.num_ranks
    return float(np.bincount(owners, weights=weights, minlength=p).max())


# ----------------------------------------------------------------------
# Histogram estimator (the paper's suggested alternative, Section III-C)
# ----------------------------------------------------------------------
def estimate_models_histogram(
    ctx: ExecutionContext,
    view: VertexView,
    members: np.ndarray,
    k: int,
) -> PushPullEstimate:
    """Histogram-based push/pull estimate for bucket ``k``.

    Like :func:`estimate_models` but the per-vertex request counts come
    from precomputed weight histograms (``#{arcs with w < d(v) - kΔ}``
    answered in O(1) per vertex) instead of the uniform-distribution
    expectation — the "histograms could be used" strategy of Section III-C.
    Requires ``make_context`` to have built ``ctx.weight_histogram``.
    """
    if ctx.weight_histogram is None:
        raise ValueError(
            "histogram estimator requires pushpull_estimator='histogram' at "
            "context construction"
        )
    cfg = ctx.config
    lo = k * cfg.delta
    later = view.later(lo + cfg.delta)
    w_max = max(ctx.graph.max_weight, 1)
    d_later = view.d[later].astype(np.float64)
    window = np.where(d_later >= INF, np.float64(w_max + 1), d_later - lo)
    req_per_vertex = ctx.weight_histogram.count_below(later, window)
    if not cfg.use_ios:
        # Short arcs (w < Δ) never ride requests without IOS.
        req_per_vertex = np.maximum(req_per_vertex - ctx.in_short_offsets[later], 0.0)
    push = push_partials(ctx, members)
    return _volume_estimate(
        cfg, ctx.machine, sum(push), max(push), float(req_per_vertex.sum()),
        _max_per_rank(ctx, later, req_per_vertex), "histogram",
    )


# ----------------------------------------------------------------------
# Exact estimator (cost-model pricing of materialised record sets)
# ----------------------------------------------------------------------
def _compute_cost_max(
    ctx: ExecutionContext,
    vertices: np.ndarray,
    units: np.ndarray | None,
    t_unit: float,
) -> float:
    """Busiest-thread compute time of what ``ctx.charge`` would record:
    the fold of that one charge."""
    machine = ctx.machine
    work = work_grid(
        vertices, units, (vertices.size,), machine.total_threads,
        machine.threads_per_rank, ctx.metrics.maps,
    )
    return float(work.max()) * t_unit


def _exchange_cost(
    ctx: ExecutionContext,
    src_vertices: np.ndarray,
    dst_vertices: np.ndarray,
    record_bytes: int,
) -> float:
    """α–β price of what ``Communicator.exchange_by_vertex`` would record:
    the fold of that one route."""
    p = ctx.machine.num_ranks
    lanes = route_lanes(src_vertices, dst_vertices, ctx.metrics.maps.rank, p)
    msgs, byt = traffic(lanes, None, (lanes.size,), (record_bytes,), p)
    return ctx.machine.alpha * int(msgs.max()) + ctx.machine.beta * int(byt.max())


def estimate_models_exact(
    ctx: ExecutionContext,
    view: VertexView,
    members: np.ndarray,
    k: int,
) -> PushPullEstimate:
    """Price both long-phase models exactly with the machine cost model.

    Materialises the push records and pull requests/responses (without
    touching the distance array) and sums the
    same compute/exchange terms the accounting runtime would record for
    each branch.
    """
    machine = ctx.machine

    batches, scanned = gather_push_records(ctx, view, members, k)
    src = np.concatenate([batch[0] for batch in batches])
    dst = np.concatenate([batch[1] for batch in batches])
    push_cost = (
        _compute_cost_max(ctx, members, scanned, machine.t_relax)
        + _exchange_cost(ctx, src, dst, RELAX_RECORD_BYTES)
        + _compute_cost_max(ctx, dst, None, machine.t_relax)
    )

    later = view.later((k + 1) * ctx.config.delta)
    req_v, req_u, _, gen_units = gather_pull_requests(ctx, view, later, k)
    respond = pull_responders(ctx, view, req_u, k)
    resp_v = req_v[respond]
    resp_u = req_u[respond]
    pull_cost = (
        _compute_cost_max(ctx, later, gen_units, machine.t_request)
        + _exchange_cost(ctx, req_v, req_u, REQUEST_RECORD_BYTES)
        + _compute_cost_max(ctx, req_u, None, machine.t_request)
        + _exchange_cost(ctx, resp_u, resp_v, RELAX_RECORD_BYTES)
        + _compute_cost_max(ctx, resp_v, None, machine.t_relax)
    )

    return PushPullEstimate(
        push_records=float(dst.size),
        push_max_rank_records=max(push_partials(ctx, members)),
        pull_requests=float(req_v.size),
        pull_max_rank_requests=_max_per_rank(ctx, req_v),
        push_cost=push_cost,
        pull_cost=pull_cost,
        estimator="exact",
    )


# ----------------------------------------------------------------------
# Decision
# ----------------------------------------------------------------------
def decide_mode(
    ctx: ExecutionContext,
    view: VertexView,
    members: np.ndarray,
    k: int,
    bucket_ordinal: int,
) -> tuple[str, PushPullEstimate | None]:
    """Pick the long-phase model for this bucket.

    Honors forced modes and oracle replay sequences; in ``auto`` mode runs
    the configured estimator (charging its two decision allreduces). The
    expectation estimator under IOS first tries :func:`certify_push`, when
    the solve has a resolver to rebuild the unpriced pull estimate from
    (``ctx.metrics.resolver``, a :class:`PullRebuild`) — traced or not: an
    armed tracer records the decision and does not steer it.
    """
    cfg = ctx.config
    if not cfg.use_pruning:
        return "push", None
    if cfg.pushpull_mode == "push":
        return "push", None
    if cfg.pushpull_mode == "pull":
        return "pull", None
    if cfg.pushpull_mode == "sequence" and bucket_ordinal < len(
        cfg.pushpull_sequence
    ):
        return cfg.pushpull_sequence[bucket_ordinal], None
    if (
        cfg.pushpull_estimator == "expectation" and cfg.use_ios
        and ctx.metrics.resolver is not None
    ):
        push = push_partials(ctx, members)
        est = certify_push(ctx, view, push) or estimate_models(
            ctx, view, members, k, push
        )
    else:
        estimator = {
            "expectation": estimate_models,
            "exact": estimate_models_exact,
            "histogram": estimate_models_histogram,
        }[cfg.pushpull_estimator]
        est = estimator(ctx, view, members, k)
    # The decision aggregates are part of the pruning long-phase machinery,
    # not of bucket identification, so they bill to OtherTime.
    ctx.comm.allreduce(2, phase_kind="long")
    if ctx.tracer is not None:
        ctx.tracer.instant(
            "pushpull-decision",
            bucket=int(k),
            mode=est.choice,
            estimator=est.estimator,
            push_cost=est.push_cost,
            pull_cost=est.pull_cost,
            certified=est.pull_cost is None,
        )
    return est.choice, est
