"""Test-only oracles for the solver kernels: what a hot path did before it
was trimmed, kept as the reference the trimmed path is held equal to.

- :func:`estimate_models_oracle` — the expectation estimator as it stood
  before it read its degrees off tables: in-degrees from two ``indptr``
  gathers and a short-offset subtraction per epoch, the explicit ``INF``
  branch and both ``np.clip`` calls, out of place.
"""

from __future__ import annotations

import numpy as np

from repro.core.distances import INF
from repro.core.pushpull import PushPullEstimate, combine_expectation_costs
from repro.core.views import rank_cuts


def expectation_partials_oracle(
    cfg, w_max, lo, member_long_degrees, member_cuts, d_later, later_in_degrees,
    later_cuts,
) -> tuple[list[float], list[float]]:
    push_terms = member_long_degrees.astype(np.float64)
    d_later_f = d_later.astype(np.float64)
    window = np.where(d_later_f >= INF, np.float64(w_max), d_later_f - lo)
    if cfg.use_ios:
        frac = np.clip(window / w_max, 0.0, 1.0)
    else:
        frac = np.clip(
            (window - cfg.delta) / max(w_max - cfg.delta + 1, 1), 0.0, 1.0
        )
    pull_terms = later_in_degrees.astype(np.float64) * frac
    return _block_sums(push_terms, member_cuts), _block_sums(pull_terms, later_cuts)


def _block_sums(terms, cuts) -> list[float]:
    cuts = cuts.tolist()
    return [
        float(terms[a:b].sum()) if a < b else 0.0 for a, b in zip(cuts, cuts[1:])
    ]


def estimate_models_oracle(ctx, views, members_per_view, k) -> PushPullEstimate:
    cfg = ctx.config
    lo = k * cfg.delta
    hi = lo + cfg.delta
    w_max = max(ctx.graph.max_weight, 1)
    push_partials: list[float] = []
    pull_partials: list[float] = []
    for v, members in zip(views, members_per_view):
        later = v.later(hi)
        in_indptr, _, _, in_short = v.pull_rows()
        in_degrees = in_indptr[later + 1] - in_indptr[later]
        if not cfg.use_ios:
            in_degrees -= in_short[later]
        member_long = v.local_degrees(members) - v.short_offsets[members]
        push, pull = expectation_partials_oracle(
            cfg, w_max, lo, member_long, rank_cuts(ctx, views, members),
            v.d[later], in_degrees, rank_cuts(ctx, views, later),
        )
        push_partials += push
        pull_partials += pull
    return combine_expectation_costs(cfg, ctx.machine, push_partials, pull_partials)
