"""Push/pull decision parity: SPMD and orchestrated engines never drift.

The per-bucket push-vs-pull decision is computed from per-rank partial sums
of the expectation estimator. Historically the SPMD engine carried its own
copy of those formulas, which can drift from the orchestrated estimator one
refactor at a time; both now call the shared
:func:`~repro.core.pushpull.expectation_partials` /
:func:`~repro.core.pushpull.combine_expectation_costs` pair. These are the
regression tests: the shared helpers must compose to exactly
:func:`~repro.core.pushpull.estimate_models`, and the two engines must make
the same mode decision for every bucket of every preset.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import preset
from repro.core.context import make_context
from repro.core.pushpull import (
    combine_expectation_costs,
    estimate_models,
    expectation_partials,
)
from repro.core.solver import solve_sssp
from repro.core.views import whole_graph_view
from repro.runtime.machine import MachineConfig
from repro.spmd.engine import spmd_delta_stepping

MACHINE = MachineConfig(num_ranks=4, threads_per_rank=2)
PRESETS = ["delta", "prune", "opt", "lb-opt"]


def bucket_modes(metrics) -> list[tuple[int, str]]:
    """(bucket id, chosen mode) sequence; '-' where no long phase ran."""
    return [
        (int(s.get("bucket", -1)), str(s.get("mode", "-")))
        for s in metrics.per_bucket_stats
    ]


class TestSharedPartials:
    @pytest.mark.parametrize("use_ios", [False, True])
    def test_partials_compose_to_estimate_models(self, rmat1_small, use_ios):
        """Summing per-rank partials of the shared helper must reproduce
        the orchestrated estimator bit-for-bit."""
        cfg = preset("opt", 25).evolve(use_ios=use_ios)
        ctx = make_context(rmat1_small, MACHINE, cfg)
        d = np.full(ctx.graph.num_vertices, 2**62, dtype=np.int64)
        rng = np.random.default_rng(0)
        reached = rng.random(d.size) < 0.5
        d[reached] = rng.integers(0, 200, int(reached.sum()))
        settled = np.zeros(d.size, dtype=bool)
        k = 1
        lo, hi = k * cfg.delta, (k + 1) * cfg.delta
        members = np.nonzero((d >= lo) & (d < hi) & ~settled)[0]
        later = np.nonzero((d >= hi) & ~settled)[0]
        whole = estimate_models(
            ctx, [whole_graph_view(ctx, d, settled)], [members], k
        )

        w_max = max(ctx.graph.max_weight, 1)
        push_parts, pull_parts = [], []
        for r in range(MACHINE.num_ranks):
            start = int(ctx.partition.boundaries[r])
            stop = int(ctx.partition.boundaries[r + 1])
            m = members[(members >= start) & (members < stop)]
            lt = later[(later >= start) & (later < stop)]
            if use_ios:
                total_in = ctx.in_graph.indptr[lt + 1] - ctx.in_graph.indptr[lt]
                long_in = None
            else:
                total_in = None
                long_in = ctx.in_long_degrees[lt]
            push, pull = expectation_partials(
                ctx.config, w_max, lo, ctx.long_degrees[m], d[lt],
                total_in, long_in,
            )
            push_parts.append(push)
            pull_parts.append(pull)
        combined = combine_expectation_costs(
            ctx.config, ctx.machine, push_parts, pull_parts
        )
        assert combined == whole


class TestEngineDecisionParity:
    @pytest.mark.parametrize("algorithm", PRESETS)
    @pytest.mark.parametrize("family", ["rmat1", "rmat2"])
    def test_same_mode_every_bucket(
        self, algorithm, family, rmat1_small, rmat2_small
    ):
        """Satellite 1: per-bucket push/pull decisions are identical."""
        graph = rmat1_small if family == "rmat1" else rmat2_small
        cfg = preset(algorithm, 25)
        res = solve_sssp(
            graph, 0, config=cfg, machine=MACHINE,
            num_ranks=MACHINE.num_ranks,
            threads_per_rank=MACHINE.threads_per_rank,
        )
        d_spmd, ctx_spmd = spmd_delta_stepping(graph, 0, MACHINE, config=cfg)
        assert np.array_equal(res.distances, d_spmd)
        assert bucket_modes(res.metrics) == bucket_modes(ctx_spmd.metrics)
        assert res.metrics.summary() == ctx_spmd.metrics.summary()
