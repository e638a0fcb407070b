"""Push–pull decision heuristic (Section III-C).

At the end of each bucket's short stage the algorithm must pick the model
for the long-edge phase. Two estimators are provided, selected by
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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.context import ExecutionContext
from repro.core.distances import INF
from repro.core.pruning import (
    gather_pull_requests,
    gather_push_records,
    pull_responders,
)
from repro.core.views import VertexView, rank_cuts
from repro.runtime.comm import RELAX_RECORD_BYTES, REQUEST_RECORD_BYTES
from repro.runtime.work import thread_work, thread_work_balanced
from repro.util.ranges import sorted_unique_ids

__all__ = [
    "PushPullEstimate",
    "expectation_partials",
    "combine_expectation_costs",
    "estimate_models",
    "estimate_models_histogram",
    "estimate_models_exact",
    "decide_mode",
]


@dataclass(frozen=True)
class PushPullEstimate:
    """Cost estimates for the two long-phase models of one bucket."""

    push_records: float
    push_max_rank_records: float
    pull_requests: float
    pull_max_rank_requests: float
    push_cost: float
    pull_cost: float
    estimator: str = "expectation"

    @property
    def choice(self) -> str:
        """Model with the lower estimated cost."""
        return "push" if self.push_cost <= self.pull_cost else "pull"


# ----------------------------------------------------------------------
# Expectation estimator (the paper's heuristic)
# ----------------------------------------------------------------------
def expectation_partials(
    cfg,
    w_max: int,
    lo: int,
    member_long_degrees: np.ndarray,
    d_later: np.ndarray,
    later_total_in_degrees: np.ndarray | None,
    later_long_in_degrees: np.ndarray | None,
) -> tuple[float, float]:
    """One rank's (push, pull) partial sums of the expectation estimator.

    The per-vertex volume formulas, evaluated per rank block whatever the
    view layout (see :func:`estimate_models`). Push volume is the
    long-degree sum over the rank's bucket members; pull volume is the
    uniform-weight expectation of eq.-(1) requests over the rank's later
    vertices. Pass
    ``later_total_in_degrees`` (all incoming arcs) under IOS and
    ``later_long_in_degrees`` (long incoming arcs) otherwise — the unused
    one may be ``None``.
    """
    push = float(np.asarray(member_long_degrees).astype(np.float64).sum())
    d_later = np.asarray(d_later)
    if d_later.size == 0:
        return push, 0.0
    d_later_f = d_later.astype(np.float64)
    window = np.where(d_later_f >= INF, np.float64(w_max), d_later_f - lo)
    if cfg.use_ios:
        # Requests may ride any incoming arc with w < d(v) - kΔ.
        deg = np.asarray(later_total_in_degrees).astype(np.float64)
        frac = np.clip(window / w_max, 0.0, 1.0)
    else:
        # Long arcs only: weight window [Δ, d(v) - kΔ).
        deg = np.asarray(later_long_in_degrees).astype(np.float64)
        frac = np.clip(
            (window - cfg.delta) / max(w_max - cfg.delta + 1, 1), 0.0, 1.0
        )
    return push, float((deg * frac).sum())


def combine_expectation_costs(
    cfg,
    machine,
    push_partials: list[float],
    pull_partials: list[float],
) -> PushPullEstimate:
    """Fold per-rank partials into the two model costs (sum/max aggregate).

    The combination is the allreduce pair the decision charges: totals by
    sum, the imbalance terms by per-rank maximum.
    """
    p = machine.num_ranks
    push_records = sum(push_partials)
    push_max = max(push_partials)
    pull_requests = sum(pull_partials)
    pull_max = max(pull_partials)
    pull_responses = pull_requests  # paper's upper bound, good in practice

    push_cost = (
        machine.beta * push_records * RELAX_RECORD_BYTES
        + machine.alpha * p
        + cfg.imbalance_weight * machine.t_relax * push_max
    )
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
        push_cost=push_cost,
        pull_cost=pull_cost,
        estimator="expectation",
    )


def estimate_models(
    ctx: ExecutionContext,
    views: list[VertexView],
    members_per_view: list[np.ndarray],
    k: int,
) -> PushPullEstimate:
    """Expectation-based push/pull estimate for bucket ``k`` (members settled).

    Evaluates :func:`expectation_partials` once per rank — a rank view's
    own members and later vertices, or the chunks a whole-graph view cuts
    at the partition boundaries — and folds the partials in rank order
    with :func:`combine_expectation_costs`, so the estimate is the same
    float for float whichever way the vertices are laid out.
    """
    cfg = ctx.config
    lo = k * cfg.delta
    hi = lo + cfg.delta
    w_max = max(ctx.graph.max_weight, 1)
    push_partials: list[float] = []
    pull_partials: list[float] = []
    for v, members in zip(views, members_per_view):
        later = v.later(hi)
        in_indptr, _, _, in_short = v.pull_rows()
        member_long = v.local_degrees(members) - v.short_offsets[members]
        d_later = v.d[later]
        total_in = long_in = None
        if cfg.use_ios:
            total_in = in_indptr[later + 1] - in_indptr[later]
        else:
            long_in = in_indptr[later + 1] - in_indptr[later] - in_short[later]
        m_cuts = rank_cuts(ctx, views, members)
        l_cuts = rank_cuts(ctx, views, later)
        for r in range(m_cuts.size - 1):
            m_r = slice(m_cuts[r], m_cuts[r + 1])
            l_r = slice(l_cuts[r], l_cuts[r + 1])
            push_r, pull_r = expectation_partials(
                cfg,
                w_max,
                lo,
                member_long[m_r],
                d_later[l_r],
                total_in[l_r] if total_in is not None else None,
                long_in[l_r] if long_in is not None else None,
            )
            push_partials.append(push_r)
            pull_partials.append(pull_r)
    return combine_expectation_costs(cfg, ctx.machine, push_partials, pull_partials)


# ----------------------------------------------------------------------
# Histogram estimator (the paper's suggested alternative, Section III-C)
# ----------------------------------------------------------------------
def estimate_models_histogram(
    ctx: ExecutionContext,
    view: VertexView,
    members: np.ndarray,
    k: int,
) -> PushPullEstimate:
    """Histogram-based push/pull estimate for bucket ``k`` (whole-graph view).

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
    machine = ctx.machine
    delta = cfg.delta
    lo = k * delta
    hi = lo + delta
    p = machine.num_ranks
    d = view.d

    push_per_vertex = ctx.long_degrees[members].astype(np.float64)
    push_records = float(push_per_vertex.sum())
    if members.size:
        owners = np.asarray(ctx.partition.owner(members), dtype=np.int64)
        push_max = float(
            np.bincount(owners, weights=push_per_vertex, minlength=p).max()
        )
    else:
        push_max = 0.0

    later = view.later(hi)
    if later.size:
        hist = ctx.weight_histogram
        w_max = max(ctx.graph.max_weight, 1)
        d_later = d[later].astype(np.float64)
        window = np.where(d_later >= INF, np.float64(w_max + 1), d_later - lo)
        req_per_vertex = hist.count_below(later, window)
        if not cfg.use_ios:
            # Short arcs (w < Δ) never ride requests without IOS.
            req_per_vertex = np.maximum(
                req_per_vertex - ctx.in_short_offsets[later], 0.0
            )
        pull_requests = float(req_per_vertex.sum())
        owners = np.asarray(ctx.partition.owner(later), dtype=np.int64)
        pull_max = float(
            np.bincount(owners, weights=req_per_vertex, minlength=p).max()
        )
    else:
        pull_requests = 0.0
        pull_max = 0.0
    pull_responses = pull_requests

    push_cost = (
        machine.beta * push_records * RELAX_RECORD_BYTES
        + machine.alpha * p
        + cfg.imbalance_weight * machine.t_relax * push_max
    )
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
        push_cost=push_cost,
        pull_cost=pull_cost,
        estimator="histogram",
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
    """Busiest-thread compute time, mirroring ``ExecutionContext.charge``."""
    if ctx.config.intra_lb:
        tw = thread_work_balanced(
            vertices,
            units,
            ctx.partition,
            ctx.machine,
            ctx.heavy_threshold,
            thread_map=ctx.thread_map,
        )
    else:
        tw = thread_work(
            vertices, units, ctx.partition, ctx.machine, thread_map=ctx.thread_map
        )
    return float(tw.max()) * t_unit if tw.size else 0.0


def _exchange_cost(
    ctx: ExecutionContext,
    src_vertices: np.ndarray,
    dst_vertices: np.ndarray,
    record_bytes: int,
) -> float:
    """α–β price of an exchange, mirroring ``Communicator.exchange_by_vertex``."""
    p = ctx.machine.num_ranks
    src = np.asarray(ctx.partition.owner(src_vertices), dtype=np.int64)
    dst = np.asarray(ctx.partition.owner(dst_vertices), dtype=np.int64)
    off = src != dst
    src, dst = src[off], dst[off]
    if src.size == 0:
        return 0.0
    out_bytes = np.bincount(src, minlength=p) * record_bytes
    in_bytes = np.bincount(dst, minlength=p) * record_bytes
    bytes_max = int((out_bytes + in_bytes).max())
    pairs = sorted_unique_ids(src * p + dst, p * p)
    msgs_max = int(np.bincount(pairs // p, minlength=p).max())
    return ctx.machine.alpha * msgs_max + ctx.machine.beta * bytes_max


def estimate_models_exact(
    ctx: ExecutionContext,
    view: VertexView,
    members: np.ndarray,
    k: int,
) -> PushPullEstimate:
    """Price both long-phase models exactly with the machine cost model.

    Materialises the push records and pull requests/responses of a
    whole-graph view (without touching the distance array) and sums the
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

    p = machine.num_ranks
    push_max = (
        float(
            np.bincount(
                np.asarray(ctx.partition.owner(members), dtype=np.int64),
                weights=ctx.long_degrees[members].astype(np.float64),
                minlength=p,
            ).max()
        )
        if members.size
        else 0.0
    )
    pull_max = (
        float(
            np.bincount(
                np.asarray(ctx.partition.owner(req_v), dtype=np.int64), minlength=p
            ).max()
        )
        if req_v.size
        else 0.0
    )
    return PushPullEstimate(
        push_records=float(dst.size),
        push_max_rank_records=push_max,
        pull_requests=float(req_v.size),
        pull_max_rank_requests=pull_max,
        push_cost=push_cost,
        pull_cost=pull_cost,
        estimator="exact",
    )


# ----------------------------------------------------------------------
# Decision
# ----------------------------------------------------------------------
def decide_mode(
    ctx: ExecutionContext,
    views: list[VertexView],
    members_per_view: list[np.ndarray],
    k: int,
    bucket_ordinal: int,
) -> tuple[str, PushPullEstimate | None]:
    """Pick the long-phase model for this bucket.

    Honors forced modes and oracle replay sequences; in ``auto`` mode runs
    the configured estimator (charging its two decision allreduces). The
    exact and histogram estimators price materialised record sets from
    global arrays, so they need a whole-graph view.
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
    if cfg.pushpull_estimator == "expectation":
        est = estimate_models(ctx, views, members_per_view, k)
    else:
        (whole,), (members,) = views, members_per_view
        estimator = (
            estimate_models_exact
            if cfg.pushpull_estimator == "exact"
            else estimate_models_histogram
        )
        est = estimator(ctx, whole, members, k)
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
        )
    return est.choice, est
