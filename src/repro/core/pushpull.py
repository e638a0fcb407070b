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

The expectation estimate runs once per bucket, over every *later* vertex,
to price a phase that may move a few dozen records, so it is kept to the
passes the formula needs (DESIGN.md §9, rule 5). Its per-vertex degrees —
long out-arcs for push, the in-arcs a request may ride for pull — are one
gather each of a table that already exists (the context's
``long_degrees`` / ``in_long_degrees``, the in-graph's ``degrees``), not
differences of ``indptr`` gathered per epoch; the request share is
computed in place on the one array the later distances are converted
into. Each rank's pull partial stays the pairwise sum of its own
contiguous block, in rank order — what a rank of a distributed run adds up
before the allreduce: that, not the arithmetic before it, is what pins the
estimate's floats (``tests/core/test_counter_identity.py`` holds them by
literal). The push partials are sums of whole numbers, exact in any order,
so they are one ``bincount`` of the members' long degrees by owner.
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
from repro.runtime.metrics import route_lanes, traffic, work_grid

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
    member_cuts: np.ndarray,
    d_later: np.ndarray,
    later_in_degrees: np.ndarray,
    later_cuts: np.ndarray,
) -> tuple[list[float], list[float]]:
    """Per-rank (push, pull) partial sums of the expectation estimator,
    rank ``r`` holding the members ``[member_cuts[r], member_cuts[r+1])``
    and the later vertices ``[later_cuts[r], later_cuts[r+1])``.

    Push volume is the long-degree sum over a rank's members. The terms
    are whole numbers (integers or their floats, every partial below
    2**53), so one ``bincount`` by rank adds them exactly, in any order —
    the floats a pairwise per-rank sum gives. Pull volume is
    :func:`_pull_partials` of the later vertices.
    """
    num_ranks = member_cuts.size - 1
    ranks = np.repeat(np.arange(num_ranks), np.diff(member_cuts))
    push = np.bincount(ranks, member_long_degrees, minlength=num_ranks).tolist()
    return push, _pull_partials(cfg, w_max, lo, d_later, later_in_degrees, later_cuts)


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
        estimator=estimator,
    )


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
    return _volume_estimate(
        cfg, machine, sum(push_partials), max(push_partials),
        sum(pull_partials), max(pull_partials), "expectation",
    )


def estimate_models(
    ctx: ExecutionContext,
    view: VertexView,
    members: np.ndarray,
    k: int,
) -> PushPullEstimate:
    """Expectation-based push/pull estimate for bucket ``k`` (members settled).

    Evaluates the push partials over the members, one ``bincount`` by
    owner, and the pull partials over the later vertices, cut at the
    partition boundaries (as :func:`expectation_partials` does over given
    blocks), and folds the per-rank partials in rank order with
    :func:`combine_expectation_costs`.
    """
    cfg = ctx.config
    lo = k * cfg.delta
    w_max = max(ctx.graph.max_weight, 1)
    # Incoming arcs a request may ride: all of them under IOS, the long ones
    # otherwise.
    in_degrees = ctx.in_graph.degrees if cfg.use_ios else ctx.in_long_degrees
    later = view.later(lo + cfg.delta)
    owners, p = ctx.partition.owner_map[members], ctx.machine.num_ranks
    push = np.bincount(owners, ctx.long_degrees[members], minlength=p).tolist()
    pull = _pull_partials(
        cfg, w_max, lo, view.d[later], in_degrees[later], rank_cuts(ctx, later)
    )
    return combine_expectation_costs(cfg, ctx.machine, push, pull)


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
    machine = ctx.machine
    delta = cfg.delta
    lo = k * delta
    hi = lo + delta
    d = view.d

    push_per_vertex = ctx.long_degrees[members].astype(np.float64)
    push_records = float(push_per_vertex.sum())
    push_max = _max_per_rank(ctx, members, push_per_vertex)

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
        pull_max = _max_per_rank(ctx, later, req_per_vertex)
    else:
        pull_requests = 0.0
        pull_max = 0.0
    return _volume_estimate(
        cfg, machine, push_records, push_max, pull_requests, pull_max, "histogram"
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
        push_max_rank_records=_max_per_rank(
            ctx, members, ctx.long_degrees[members].astype(np.float64)
        ),
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
    the configured estimator (charging its two decision allreduces).
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
        )
    return est.choice, est
