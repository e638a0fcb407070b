"""Push/pull decision parity: SPMD and orchestrated engines never drift.

The per-bucket push-vs-pull decision is computed from per-rank partial sums
of the expectation estimator. Historically the SPMD engine carried its own
copy of those formulas, which can drift from the orchestrated estimator one
refactor at a time; both now run the one
:func:`~repro.core.pushpull.estimate_models`, which evaluates the per-vertex
terms once and sums them per rank block. These are the regression tests:
that must equal, float for float, the estimator evaluated rank by rank on
each rank's own slices (kept here as the oracle), and the two engines must
make the same mode decision for every bucket of every preset (rows of the
one differential, ``test_transport_parity.assert_parity``). Until PR 21 the
oracle was compared against two view layouts — one whole-graph view and one
view per rank; a rank is now a range of the one view, and the ``layout``
parameter is gone with the second layout.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import preset
from repro.core.context import make_context
from repro.core.distances import INF
from repro.core.pushpull import _volume_estimate, estimate_models
from repro.core.views import whole_graph_view
from repro.runtime.machine import MachineConfig
from tests.core.test_transport_parity import assert_parity

MACHINE = MachineConfig(num_ranks=4, threads_per_rank=2)
PRESETS = ["delta", "prune", "opt", "lb-opt"]


def rank_partials_oracle(
    cfg, w_max, lo, member_long_degrees, d_later, total_in_degrees, long_in_degrees
):
    """One rank's (push, pull) partials, evaluated on that rank's slices
    alone — the formulation the estimator had before it evaluated the
    per-vertex terms once; kept here as the oracle."""
    push = float(np.asarray(member_long_degrees).astype(np.float64).sum())
    d_later = np.asarray(d_later)
    if d_later.size == 0:
        return push, 0.0
    d_later_f = d_later.astype(np.float64)
    window = np.where(d_later_f >= INF, np.float64(w_max), d_later_f - lo)
    if cfg.use_ios:
        deg = np.asarray(total_in_degrees).astype(np.float64)
        frac = np.clip(window / w_max, 0.0, 1.0)
    else:
        deg = np.asarray(long_in_degrees).astype(np.float64)
        frac = np.clip(
            (window - cfg.delta) / max(w_max - cfg.delta + 1, 1), 0.0, 1.0
        )
    return push, float((deg * frac).sum())


def random_state(ctx, seed, *, reached=0.5, empty_ranks=()):
    """(d, settled) with a ``reached`` share of finite distances, the rest
    at INF; vertices of ``empty_ranks`` are all settled (no members, no
    later vertices there)."""
    n = ctx.graph.num_vertices
    rng = np.random.default_rng(seed)
    d = np.full(n, INF, dtype=np.int64)
    hit = rng.random(n) < reached
    d[hit] = rng.integers(0, 200, int(hit.sum()))
    settled = rng.random(n) < 0.2
    for r in empty_ranks:
        lo, hi = ctx.partition.rank_range(r)
        settled[lo:hi] = True
    return d, settled


def oracle_estimate(ctx, d, settled, k):
    """Per-rank oracle partials folded in rank order."""
    cfg = ctx.config
    lo, hi = k * cfg.delta, (k + 1) * cfg.delta
    members = np.nonzero((d >= lo) & (d < hi) & ~settled)[0]
    later = np.nonzero((d >= hi) & ~settled)[0]
    w_max = max(ctx.graph.max_weight, 1)
    push_parts, pull_parts = [], []
    for r in range(ctx.machine.num_ranks):
        start, stop = ctx.partition.rank_range(r)
        m = members[(members >= start) & (members < stop)]
        lt = later[(later >= start) & (later < stop)]
        total_in = ctx.in_graph.indptr[lt + 1] - ctx.in_graph.indptr[lt]
        push, pull = rank_partials_oracle(
            cfg, w_max, lo, ctx.long_degrees[m], d[lt],
            total_in, ctx.in_long_degrees[lt],
        )
        push_parts.append(push)
        pull_parts.append(pull)
    return members, _volume_estimate(
        cfg, ctx.machine, sum(push_parts), max(push_parts),
        sum(pull_parts), max(pull_parts), "expectation",
    )


class TestSharedPartials:
    @pytest.mark.parametrize("use_ios", [False, True])
    def test_partials_compose_to_estimate_models(self, rmat1_small, use_ios):
        """Terms evaluated once and summed per rank block must reproduce,
        bit for bit, the estimator evaluated rank by rank."""
        cfg = preset("opt", 25).evolve(use_ios=use_ios)
        ctx = make_context(rmat1_small, MACHINE, cfg)
        d, settled = random_state(ctx, 0)
        members, oracle = oracle_estimate(ctx, d, settled, 1)
        whole = estimate_models(ctx, whole_graph_view(ctx, d, settled), members, 1)
        assert whole == oracle

    @pytest.mark.parametrize("use_ios", [False, True])
    @pytest.mark.parametrize(
        "machine", [MACHINE, MachineConfig(num_ranks=7)], ids="P{0.num_ranks}".format
    )
    @pytest.mark.parametrize(
        "reached, empty_ranks", [(0.5, ()), (0.05, (1,)), (0.9, (0, 3)), (0.0, ())]
    )
    def test_rank_cut_view_matches_the_per_rank_oracle(
        self, rmat1_small, use_ios, machine, reached, empty_ranks
    ):
        """The view cut at the rank boundaries gives the floats of the
        oracle, which evaluates every rank on its own slices — with
        unreached (INF) vertices, ranks holding no member and no later
        vertex, nothing reached at all, and a rank count that does not
        divide n."""
        cfg = preset("opt", 25).evolve(use_ios=use_ios)
        ctx = make_context(rmat1_small, machine, cfg)
        d, settled = random_state(ctx, 7, reached=reached, empty_ranks=empty_ranks)
        view = whole_graph_view(ctx, d, settled)
        for k in (0, 1, 3):
            members, oracle = oracle_estimate(ctx, d, settled, k)
            assert estimate_models(ctx, view, members, k) == oracle


class TestEngineDecisionParity:
    @pytest.mark.parametrize("algorithm", PRESETS)
    @pytest.mark.parametrize("family", ["rmat1", "rmat2"])
    def test_same_mode_every_bucket(
        self, algorithm, family, rmat1_small, rmat2_small
    ):
        """Per-bucket push/pull decisions (and every other accounting
        fact) are identical on both drivers."""
        graph = rmat1_small if family == "rmat1" else rmat2_small
        assert_parity(graph, 0, MACHINE, preset(algorithm, 25))
