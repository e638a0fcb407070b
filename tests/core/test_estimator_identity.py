"""The expectation estimator is the same float it was.

``estimate_models`` prices a long phase from one gather per degree table,
in place, in half the array passes it used to take; the estimate decides
push against pull and is published per bucket, so "half the passes" must
not move a bit. The parent's body lives on as
:func:`tests.core.oracles.estimate_models_oracle`; the property below holds
every field of :class:`~repro.core.pushpull.PushPullEstimate` equal between
the two on random states — IOS on and off, undirected and directed inputs
(reverse rows), one, two and eight ranks (the oracle evaluates each rank on
its own block alone), ``later`` empty, all unreached and mixed,
``w_max = 1``, ``Δ > w_max``, no members.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import preset
from repro.core.context import make_context
from repro.core.distances import INF
from repro.core.pushpull import _pull_partials, estimate_models
from repro.core.views import whole_graph_view
from repro.graph.builder import from_edges
from repro.runtime.machine import MachineConfig
from tests.core.oracles import estimate_models_oracle, expectation_partials_oracle


def random_graph(rng, n, w_max, undirected):
    m = int(rng.integers(n, 6 * n + 1))
    tails, heads = rng.integers(0, n, m), rng.integers(0, n, m)
    keep = tails != heads
    weights = rng.integers(1, w_max + 1, int(keep.sum()))
    return from_edges(tails[keep], heads[keep], weights, n, undirected=undirected)


def random_state(rng, n, delta, later_kind):
    """(d, settled): ``mixed`` has finite and unreached later vertices,
    ``unreached`` only INF ones, ``empty`` none at all."""
    d = np.full(n, INF, dtype=np.int64)
    if later_kind == "unreached":
        near = rng.random(n) < 0.3
        d[near] = rng.integers(0, delta, int(near.sum()))  # bucket 0 only
    else:
        hit = rng.random(n) < 0.7
        d[hit] = rng.integers(0, 6 * delta + 2, int(hit.sum()))
    settled = rng.random(n) < 0.25
    if later_kind == "empty":
        settled |= d >= delta
    return d, settled


def assert_same_estimate(got, want):
    assert got == want
    # ``==`` calls -0.0 and 0.0 equal; the published floats must not differ
    # even there.
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, float):
            assert float(a).hex() == b.hex(), field.name


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    use_ios=st.booleans(),
    undirected=st.booleans(),
    ranks=st.sampled_from([1, 2, 8]),
    w_max=st.sampled_from([1, 7, 255, 2**40]),
    delta=st.sampled_from([1, 5, 25, 300]),
    later_kind=st.sampled_from(["mixed", "mixed", "unreached", "empty"]),
    no_members=st.booleans(),
)
def test_estimate_equals_the_parent_body(
    seed, use_ios, undirected, ranks, w_max, delta, later_kind, no_members
):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(ranks, 90))
    graph = random_graph(rng, n, w_max, undirected)
    cfg = preset("opt", delta).evolve(use_ios=use_ios)
    ctx = make_context(graph, MachineConfig(num_ranks=ranks, threads_per_rank=2), cfg)
    d, settled = random_state(rng, n, delta, later_kind)
    view = whole_graph_view(ctx, d, settled)
    for k in (0, 1, 4):
        members = (
            np.empty(0, dtype=np.int64)
            if no_members
            else np.nonzero((d >= k * delta) & (d < (k + 1) * delta) & ~settled)[0]
        )
        assert_same_estimate(
            estimate_models(ctx, view, members, k),
            estimate_models_oracle(ctx, view, members, k),
        )


@pytest.mark.parametrize("use_ios", [False, True])
@pytest.mark.parametrize("degree_dtype", [np.int64, np.float64])
def test_partials_take_counts_or_floats(use_ios, degree_dtype):
    """``_pull_partials`` on integer in-degree counts (what
    ``estimate_models`` gathers) and on their floats gives the pull half of
    the oracle's partials; it leaves its arguments alone."""
    rng = np.random.default_rng(3)
    cfg = preset("opt", 25).evolve(use_ios=use_ios)
    members_deg = rng.integers(0, 9, 12).astype(degree_dtype)
    d_later = np.sort(rng.integers(50, 900, 40))
    d_later[rng.random(40) < 0.3] = INF
    later_deg = rng.integers(0, 9, 40).astype(degree_dtype)
    cuts_m, cuts_l = np.array([0, 0, 5, 12, 12]), np.array([0, 11, 11, 30, 40])
    args = (cfg, 255, 50, members_deg, cuts_m, d_later, later_deg, cuts_l)
    before = [a.copy() for a in args[3:]]
    pull = _pull_partials(cfg, 255, 50, d_later, later_deg, cuts_l)
    assert pull == expectation_partials_oracle(*args)[1]
    for a, b in zip(args[3:], before):
        assert np.array_equal(a, b)
