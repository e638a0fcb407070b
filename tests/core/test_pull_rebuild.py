"""The push/pull certificate and the pull estimate rebuilt on read.

Under IOS the expectation estimator's pull cost is bounded below by what
the unreached vertices alone request, so ``decide_mode`` certifies push
without pricing pull when the push cost is under that floor
(:func:`~repro.core.pushpull.certify_push`). A certified bucket publishes
its push cost at once; its pull cost is rebuilt from the final distances
when ``Metrics.per_bucket_stats`` is first read
(:class:`~repro.core.pushpull.PullRebuild`). The rebuilt float must be the
one ``estimate_models`` gives on the live view at that bucket, bit for bit,
and the certificate must never fire where that estimate picks pull.
"""

from __future__ import annotations

import dataclasses
import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.phases as phases
import repro.core.pushpull as pushpull
from repro.core.config import preset
from repro.core.context import make_context
from repro.core.delta_stepping import DeltaSteppingEngine
from repro.core.pushpull import certify_push, estimate_models, push_partials
from repro.core.solver import BatchSolver
from repro.core.views import whole_graph_view
from repro.graph.builder import from_edges, from_undirected_edges
from repro.graph.grid import grid_graph
from repro.graph.rmat import RMAT1, rmat_graph
from repro.obs.tracer import TraceConfig
from repro.runtime.machine import MachineConfig
from repro.spmd.engine import spmd_delta_stepping
from repro.spmd.faults import FaultPlan, RankCrash
from tests.core.test_estimator_identity import random_graph, random_state


def solve_capturing(graph, root, machine, config, engine):
    """One solve with ``decide_mode`` spied on: per decided bucket, ``(k,
    the live view's exact expectation estimate, certified?)``; and the
    solve's metrics."""
    decided = []
    decide = phases.decide_mode

    def spy(ctx, view, members, k, bucket_ordinal):
        live = estimate_models(ctx, view, members, k)
        mode, est = decide(ctx, view, members, k, bucket_ordinal)
        decided.append((k, live, est is not None and est.pull_cost is None))
        return mode, est

    with mock.patch.object(phases, "decide_mode", spy):
        if engine == "core":
            ctx = make_context(graph, machine, config)
            DeltaSteppingEngine(ctx).run(root)
        else:
            ctx = spmd_delta_stepping(graph, root, machine, config=config)[1]
    return decided, ctx.metrics


def hexes(*floats):
    return tuple(float(x).hex() for x in floats)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    undirected=st.booleans(),
    zero_weights=st.booleans(),
    ranks=st.sampled_from([1, 2, 8]),
    w_max=st.sampled_from([1, 7, 255]),
    delta=st.sampled_from([1, 5, 25, 300]),
    alpha=st.sampled_from([0.0, 2e-6]),
    algorithm=st.sampled_from(["opt", "prune"]),
    engine=st.sampled_from(["core", "spmd"]),
)
def test_rebuilt_rows_equal_the_live_estimate(
    seed, undirected, zero_weights, ranks, w_max, delta, alpha, algorithm, engine
):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(ranks, 80))
    m = int(rng.integers(n, 5 * n + 1))
    tails, heads = rng.integers(0, n, m), rng.integers(0, n, m)
    keep = tails != heads
    weights = rng.integers(0 if zero_weights else 1, w_max + 1, int(keep.sum()))
    build = from_undirected_edges if undirected else from_edges
    graph = build(tails[keep], heads[keep], weights, n)
    machine = dataclasses.replace(
        MachineConfig(num_ranks=ranks, threads_per_rank=2), alpha=alpha
    )
    root = int(rng.integers(0, n))
    decided, metrics = solve_capturing(
        graph, root, machine, preset(algorithm, delta), engine
    )
    rows = [s for s in metrics.per_bucket_stats if "est_push_cost" in s]
    assert [s["bucket"] for s in rows] == [k for k, _, _ in decided]
    for row, (k, live, certified) in zip(rows, decided):
        assert hexes(row["est_push_cost"], row["est_pull_cost"]) == hexes(
            live.push_cost, live.pull_cost
        ), k
        if certified:
            assert live.choice == "push" and row["mode"] == "push", k


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    undirected=st.booleans(),
    ranks=st.sampled_from([1, 2, 8]),
    w_max=st.sampled_from([1, 7, 255, 2**40]),
    delta=st.sampled_from([1, 5, 25, 300]),
    alpha=st.sampled_from([0.0, 2e-6]),
    later_kind=st.sampled_from(["mixed", "unreached", "empty"]),
)
def test_certificate_never_fires_where_the_estimate_picks_pull(
    seed, undirected, ranks, w_max, delta, alpha, later_kind
):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(ranks, 90))
    graph = random_graph(rng, n, w_max, undirected)
    machine = dataclasses.replace(
        MachineConfig(num_ranks=ranks, threads_per_rank=2), alpha=alpha
    )
    ctx = make_context(graph, machine, preset("opt", delta))
    d, settled = random_state(rng, n, delta, later_kind)
    view = whole_graph_view(ctx, d, settled)
    for k in (0, 1, 4):
        members = np.nonzero((d >= k * delta) & (d < (k + 1) * delta) & ~settled)[0]
        certified = certify_push(ctx, view, push_partials(ctx, members))
        if certified is None:
            continue
        exact = estimate_models(ctx, view, members, k)
        assert exact.choice == "push"
        assert hexes(certified.push_cost) == hexes(exact.push_cost)
        assert (certified.push_records, certified.push_max_rank_records) == (
            exact.push_records, exact.push_max_rank_records
        )


@pytest.fixture
def grid_result():
    solver = BatchSolver(grid_graph(16, 16, seed=3), algorithm="opt", delta=25)
    return solver.solve(0)


class Spy:
    def __init__(self, resolver):
        self.resolver, self.calls = resolver, []

    def __call__(self, rows):
        self.calls.append(len(rows))
        return self.resolver(rows)


def test_counters_resolve_nothing_and_a_second_read_is_the_first(grid_result):
    metrics = grid_result.metrics
    spy = metrics.resolver = Spy(metrics.resolver)
    counts = (metrics.buckets_processed, metrics.push_buckets, metrics.pull_buckets)
    summary = metrics.summary()
    assert spy.calls == []
    assert counts == (summary["buckets"], summary["push_buckets"], summary["pull_buckets"])
    first = [dict(row) for row in metrics.per_bucket_stats]
    assert spy.calls and spy.calls[0] > 0  # some buckets were certified
    second = metrics.per_bucket_stats
    assert len(spy.calls) == 1
    assert [hexes(s["est_push_cost"], s["est_pull_cost"]) for s in first] == [
        hexes(s["est_push_cost"], s["est_pull_cost"]) for s in second
    ]


def test_an_edited_result_refuses_the_rebuild(grid_result):
    """The rebuild reads the solve's final distances, which the result hands
    out writable: an edit made before the rows are read is refused, not
    folded into a published estimate."""
    grid_result.distances[7] += 1
    with pytest.raises(RuntimeError, match="written after"):
        grid_result.metrics.per_bucket_stats
    with pytest.raises(RuntimeError, match="written after"):  # still pending
        grid_result.metrics.per_bucket_stats
    assert grid_result.metrics.buckets_processed  # the counters still read


@functools.cache
def small_graph(kind):
    if kind == "grid":
        return grid_graph(16, 16, seed=3)
    return rmat_graph(scale=9, seed=42, params=RMAT1)


def traced_or_not(graph, root, config, engine, trace):
    """One solve's metrics, ``certify_push``'s answers in call order and
    the ``pushpull-decision`` instants (none untraced)."""
    machine = MachineConfig(num_ranks=2, threads_per_rank=2)
    certify = pushpull.certify_push
    answers = []

    def spy(*args):
        est = certify(*args)
        answers.append(est is not None)
        return est

    trace = TraceConfig() if trace else None
    with mock.patch.object(pushpull, "certify_push", spy):
        if engine == "core":
            config = config.evolve(trace=trace)
            result = BatchSolver(graph, config=config, machine=machine).solve(root)
            metrics, tracer = result.metrics, result.trace
        else:
            _, ctx = spmd_delta_stepping(graph, root, machine, config=config, trace=trace)
            metrics, tracer = ctx.metrics, ctx.tracer
    events = tracer.events if tracer is not None else []
    return metrics, answers, [
        e["args"] for e in events if e.get("name") == "pushpull-decision"
    ]


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(["grid", "rmat"]),
    engine=st.sampled_from(["core", "spmd"]),
    root=st.integers(0, 255),
    delta=st.sampled_from([5, 25, 100]),
)
def test_a_traced_solve_decides_as_an_untraced_one(kind, engine, root, delta):
    """An armed tracer records the decision and does not steer it: the
    certificate fires at the same buckets, every row's mode and rebuilt
    estimate are the untraced solve's, bit for bit, and each certified
    bucket's instant says so, with a null pull cost."""
    def decided(metrics):
        return [
            (s["bucket"], s["mode"], hexes(s["est_push_cost"], s["est_pull_cost"]))
            for s in metrics.per_bucket_stats
            if "est_push_cost" in s
        ]

    graph, config = small_graph(kind), preset("opt", delta)
    plain, want, _ = traced_or_not(graph, root, config, engine, trace=False)
    traced, got, instants = traced_or_not(graph, root, config, engine, trace=True)
    assert got == want
    rows = decided(traced)
    assert rows == decided(plain)
    assert [i["bucket"] for i in instants] == [k for k, _, _ in rows]
    assert [i["certified"] for i in instants] == got
    for event in instants:
        assert (event["pull_cost"] is None) == event["certified"]


@pytest.mark.parametrize("case", ["faults", "crash", "no-ios", "histogram", "exact"])
def test_the_eager_cases_never_certify(case):
    """Under a fault plan ``drive`` registers no resolver: a rank restored
    from its checkpoint (``crash``) decides on tentative distances the
    rebuild from the final ones does not reproduce."""
    graph, machine = grid_graph(12, 12, seed=5), MachineConfig(2, 2)
    config = preset("opt", 25)
    if case == "no-ios":
        config = config.evolve(use_ios=False)
    elif case in ("histogram", "exact"):
        config = config.evolve(pushpull_estimator=case)
    refuse = mock.Mock(side_effect=AssertionError("certified"))
    with mock.patch.object(pushpull, "certify_push", refuse):
        if case in ("faults", "crash"):
            plan = FaultPlan(crashes=(RankCrash(1, 4),) if case == "crash" else ())
            solver = BatchSolver(graph, config=config, machine=machine)
            metrics = solver.solve(0, faults=plan).metrics
        else:
            metrics = BatchSolver(graph, config=config, machine=machine).solve(0).metrics
    assert metrics.per_bucket_stats
    assert all("est_pull_cost" in s for s in metrics.per_bucket_stats)
    refuse.assert_not_called()


def test_a_served_answer_keeps_no_graph():
    """A broker's answer outlives its snapshot, so its metrics drop the
    resolver (which holds the graph): certified rows keep their push cost
    and read without a pull cost; the counters are unchanged."""
    from repro.serve.broker import QueryBroker

    graph = grid_graph(16, 16, seed=3)
    broker = QueryBroker(graph, num_workers=0, num_ranks=2, threads_per_rank=2)
    served = broker.query(0).sssp
    broker.shutdown()
    offline = BatchSolver(graph, config=served.config, machine=served.machine).solve(0)
    assert served.metrics.resolver is None
    rows, full = served.metrics.per_bucket_stats, offline.metrics.per_bucket_stats
    assert [s["mode"] for s in rows] == [s["mode"] for s in full]
    assert any("est_pull_cost" not in s for s in rows)
    for row, want in zip(rows, full):
        assert hexes(row["est_push_cost"]) == hexes(want["est_push_cost"])
        if "est_pull_cost" in row:
            assert hexes(row["est_pull_cost"]) == hexes(want["est_pull_cost"])
