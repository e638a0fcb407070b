"""Test-only oracles for the solver kernels: what a hot path did before it
was trimmed, kept as the reference the trimmed path is held equal to.

- :func:`estimate_models_oracle` — the expectation estimator as it stood
  before it read its degrees off tables: in-degrees from two ``indptr``
  gathers and a short-offset subtraction per epoch, the explicit ``INF``
  branch and both ``np.clip`` calls, out of place — and evaluated rank by
  rank, each on its own block of the arrays alone, the way one view per
  rank did before a rank became a range of the one view.
- :func:`short_records_oracle` and :func:`gather_push_records_oracle` —
  the short-phase records and the push gather as they stood before the
  inner arcs were read as a prefix off the prefix table: every short arc
  (under IOS every arc of a member) expanded, its proposal computed and
  the per-arc filter ``d(u) + w < hi`` applied.
- :func:`bucket_index`, :func:`bucket_members` and :func:`next_bucket` —
  the from-scratch bucket scans over the whole distance array (bucket ``k``
  holds the vertices with ``d in [kΔ, (k+1)Δ)``, Section II-A) that the
  engine kept before a view's unsettled set and the bucket index answered
  those questions incrementally.
"""

from __future__ import annotations

import numpy as np

from repro.core.distances import INF
from repro.core.pushpull import PushPullEstimate, _volume_estimate
from repro.util.ranges import concat_ranges


def short_records_oracle(ctx, view, active, short, hi):
    starts = view.indptr[active]
    arcs, owner_idx = concat_ranges(starts, starts + short)
    src = active[owner_idx]
    dst = view.adj[arcs]
    nd = view.d[src] + view.weights[arcs]
    if not ctx.config.use_ios:
        return src, dst, nd
    inner = nd < hi
    return src[inner], dst[inner], nd[inner]


def gather_push_records_oracle(ctx, view, members, k):
    starts, ends = view.indptr[members], view.indptr[members + 1]
    long_starts = starts + view.short_offsets[members]
    if not ctx.config.use_ios:
        arcs, owner_idx = concat_ranges(long_starts, ends)
        src = members[owner_idx]
        batch = (src, view.adj[arcs], view.d[src] + view.weights[arcs])
        return [batch], (ends - long_starts).astype(np.float64)
    hi = (k + 1) * ctx.config.delta
    arcs, owner_idx = concat_ranges(starts, ends)
    src = members[owner_idx]
    dst, nd = view.adj[arcs], view.d[src] + view.weights[arcs]
    long = arcs >= long_starts[owner_idx]
    outer = nd >= hi
    outer &= ~long
    batches = [(src[long], dst[long], nd[long]), (src[outer], dst[outer], nd[outer])]
    return batches, ctx.graph.degrees[members].astype(np.float64)


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


def estimate_models_oracle(ctx, view, members, k) -> PushPullEstimate:
    cfg = ctx.config
    lo = k * cfg.delta
    hi = lo + cfg.delta
    w_max = max(ctx.graph.max_weight, 1)
    in_indptr, _, _, in_short = view.pull_rows()
    push_partials: list[float] = []
    pull_partials: list[float] = []
    for rank in range(ctx.machine.num_ranks):
        start, stop = ctx.partition.rank_range(rank)
        d, settled = view.d[start:stop], view.settled[start:stop]
        later = np.nonzero(~settled & (d >= hi))[0] + start
        mine = members[(members >= start) & (members < stop)]
        in_degrees = in_indptr[later + 1] - in_indptr[later]
        if not cfg.use_ios:
            in_degrees -= in_short[later]
        member_long = view.indptr[mine + 1] - view.indptr[mine] - view.short_offsets[mine]
        push, pull = expectation_partials_oracle(
            cfg, w_max, lo, member_long, np.array([0, mine.size]),
            view.d[later], in_degrees, np.array([0, later.size]),
        )
        push_partials += push
        pull_partials += pull
    return _volume_estimate(
        cfg, ctx.machine, sum(push_partials), max(push_partials),
        sum(pull_partials), max(pull_partials), "expectation",
    )


NO_BUCKET = -1
"""Returned by :func:`next_bucket` when only B-infinity remains."""


def bucket_index(d: np.ndarray, delta: int) -> np.ndarray:
    """Bucket index ``floor(d / Δ)`` per vertex (-1 for unreached)."""
    out = np.where(d < INF, d // delta, np.int64(NO_BUCKET))
    # np.where on int64 operands already yields int64: hand it back without
    # the silent full-array astype copy this function used to pay per call.
    assert out.dtype == np.int64
    return out


def window_members(
    d: np.ndarray, settled: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """Unsettled vertices with ``d in [lo, hi)`` (sorted ids).

    The generalised membership scan: a Δ-bucket is the window
    ``[kΔ, (k+1)Δ)``; the radius/ρ strategies pick non-uniform windows.
    """
    mask = (d >= lo) & (d < hi) & ~settled
    return np.nonzero(mask)[0].astype(np.int64)


def bucket_members(
    d: np.ndarray, settled: np.ndarray, k: int, delta: int
) -> np.ndarray:
    """Unsettled vertices currently in bucket ``k`` (sorted ids)."""
    lo = k * delta
    return window_members(d, settled, lo, lo + delta)


def next_bucket(d: np.ndarray, settled: np.ndarray, delta: int) -> int:
    """Smallest bucket index holding an unsettled reached vertex.

    Returns :data:`NO_BUCKET` when every reached vertex is settled (the
    algorithm terminates: only B-infinity is non-empty).
    """
    mask = (d < INF) & ~settled
    if not mask.any():
        return NO_BUCKET
    return int(d[mask].min() // delta)
