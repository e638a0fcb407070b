"""The view's unsettled set: exact equivalence with the from-scratch scans.

The contract under test (DESIGN.md §9): after any legal relax / settle /
restore history of a :class:`~repro.core.views.VertexView`, its unsettled
set is the reached unsettled vertices, and what every strategy reads off it
equals the from-scratch scans — for Δ, ``next_step``'s key is
:func:`~tests.core.oracles.next_bucket` and every bucket's ``members`` is
:func:`~tests.core.oracles.bucket_members`; for all three strategies the
step is the strategy's ``window`` over the scanned ids and its members are
the scan of that window. The property tests drive randomized histories (the
hypothesis suite shrinks counterexamples); the engine-level tests assert the
paranoid guard exercised that same equivalence every epoch of real solves,
including under fault plans and resume-from-checkpoint.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SolverConfig, preset
from repro.core.context import make_context
from repro.core.distances import INF
from repro.core.stepping import Step, make_strategy
from repro.core.transport import DeclaredTransport
from repro.core.views import whole_graph_view
from repro.graph.builder import from_undirected_edges
from repro.graph.rmat import RMAT1, rmat_graph
from repro.runtime.guards import GuardViolation, InvariantGuards
from repro.runtime.machine import MachineConfig
from repro.spmd.engine import spmd_delta_stepping
from repro.spmd.faults import FaultPlan, RankCrash
from tests.core.oracles import (
    NO_BUCKET,
    bucket_index,
    bucket_members,
    next_bucket,
)

SMALL = MachineConfig(num_ranks=2, threads_per_rank=2)


def make_view(d: np.ndarray, settled: np.ndarray, max_weight: int = 100):
    """A context over a random graph on ``d.size`` vertices and the view of
    ``d``/``settled`` (shared, not copied) over it."""
    n = d.size
    rng = np.random.default_rng(n)
    m = 2 * n
    graph = from_undirected_edges(
        rng.integers(0, n, m), rng.integers(0, n, m),
        rng.integers(1, max_weight + 1, m), n,
    )
    ctx = make_context(graph, SMALL, SolverConfig())
    return ctx, whole_graph_view(ctx, d, settled)


def strategies(ctx, delta: int):
    """The three strategies, prepared on the context's graph."""
    out = [
        make_strategy(SolverConfig(delta=delta)),
        make_strategy(SolverConfig(strategy="radius")),
        make_strategy(SolverConfig(strategy="rho", rho=3)),
    ]
    for strategy in out:
        strategy.prepare(ctx.graph)
    return out


def window_scan(d, settled, step) -> np.ndarray:
    return np.flatnonzero(~settled & (d >= step.lo) & (d < step.hi))


def assert_matches_scans(ctx, view, delta: int, ordinal: int = 0):
    """Full equivalence: the set and its mask, every strategy's step and
    members, Δ's next bucket and every bucket's members."""
    d, settled = view.d, view.settled
    ids = np.flatnonzero(~settled & (d < INF))
    np.testing.assert_array_equal(np.sort(view.unsettled()), ids)
    np.testing.assert_array_equal(view.queued, ~settled & (d < INF))
    transport = DeclaredTransport(ctx.comm)
    for strategy in strategies(ctx, delta):
        step = strategy.next_step(ctx, view, transport, ordinal)
        assert step == strategy.window(d[ids], ids, ordinal)
        if step is not None:
            got = view.members(step)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, window_scan(d, settled, step))
    first = strategies(ctx, delta)[0].next_step(ctx, view, transport, ordinal)
    assert (NO_BUCKET if first is None else first.key) == next_bucket(
        d, settled, delta
    )
    def bucket(k):
        return view.members(Step(k, k * delta, (k + 1) * delta))

    live = np.unique(d[ids] // delta).tolist()
    for k in live:
        np.testing.assert_array_equal(bucket(k), bucket_members(d, settled, k, delta))
    # A bucket nothing lives in must read empty too.
    assert bucket(int(max(live, default=0)) + 3).size == 0


def settle_a_window(ctx, view, delta, rng, ordinal):
    """Settle one window of a randomly chosen strategy, chosen and scanned
    from scratch, as the engines do; ``False`` when nothing is left."""
    d, settled = view.d, view.settled
    ids = np.flatnonzero(~settled & (d < INF))
    strategy = strategies(ctx, delta)[int(rng.integers(0, 3))]
    step = strategy.window(d[ids], ids, ordinal)
    if step is None:
        return False
    view.settle(window_scan(d, settled, step))
    return True


def relax_some(view, rng, picks: int, cap: int, drop) -> None:
    """Lower the distances of a random unsettled subset through ``apply``."""
    d, settled = view.d, view.settled
    cand = np.flatnonzero(~settled)
    pick = np.unique(rng.choice(cand, picks))
    old = np.where(d[pick] < INF, d[pick], cap)
    view.apply(pick, np.maximum(old - drop(pick.size), 0))


class TestBucketIndexUnit:
    def test_initial_state_matches_scan(self):
        d = np.array([0, 7, 25, 60, INF, 26], dtype=np.int64)
        settled = np.zeros(6, dtype=bool)
        ctx, view = make_view(d, settled)
        assert_matches_scans(ctx, view, 25)
        step = strategies(ctx, 25)[0].next_step(
            ctx, view, DeclaredTransport(ctx.comm), 0
        )
        assert step == Step(0, 0, 25)

    def test_settled_vertices_hold_no_bucket(self):
        d = np.array([0, 7, 25, 60], dtype=np.int64)
        settled = np.array([True, False, False, False])
        ctx, view = make_view(d, settled)
        assert not view.queued[0] and 0 not in view.unsettled()
        assert view.num_unsettled == 3
        assert_matches_scans(ctx, view, 25)

    def test_delta_must_be_positive(self):
        """The Δ window has a positive width; the config refuses others."""
        for delta in (0, -3):
            with pytest.raises(ValueError, match="delta"):
                SolverConfig(delta=delta)

    def test_on_relaxed_moves_between_buckets(self):
        d = np.array([0, 80, 80, INF], dtype=np.int64)
        settled = np.zeros(4, dtype=bool)
        ctx, view = make_view(d, settled)
        # bucket 3 -> 0, unreached -> bucket 1
        changed = view.apply(np.array([1, 3]), np.array([10, 30]))
        np.testing.assert_array_equal(changed, [1, 3])
        assert d.tolist() == [0, 10, 80, 30]
        assert_matches_scans(ctx, view, 25)

    def test_on_relaxed_within_bucket_is_noop(self):
        """A lowered vertex already in the set is not queued twice."""
        d = np.array([0, 80], dtype=np.int64)
        settled = np.zeros(2, dtype=bool)
        ctx, view = make_view(d, settled)
        region = view.region
        view.apply(np.array([1]), np.array([76]))  # still bucket 3
        assert view.region is region
        assert_matches_scans(ctx, view, 25)

    def test_on_settled_empties_and_advances_min(self):
        d = np.array([0, 7, 60], dtype=np.int64)
        settled = np.zeros(3, dtype=bool)
        ctx, view = make_view(d, settled)
        transport = DeclaredTransport(ctx.comm)
        delta_strategy = strategies(ctx, 25)[0]
        view.settle(np.array([0, 1]))
        assert_matches_scans(ctx, view, 25)
        assert delta_strategy.next_step(ctx, view, transport, 1).key == 2
        view.settle(np.array([2]))
        assert view.unsettled().size == 0 and view.num_unsettled == 0
        for strategy in strategies(ctx, 25):
            assert strategy.next_step(ctx, view, transport, 2) is None

    def test_members_repeated_reads_stay_exact(self):
        """A read drops settled ids from the set and changes nothing else."""
        d = np.array([0, 3, 26, 27, 4], dtype=np.int64)
        settled = np.zeros(5, dtype=bool)
        ctx, view = make_view(d, settled)
        bucket0 = Step(0, 0, 25)
        first = view.members(bucket0)
        np.testing.assert_array_equal(first, view.members(bucket0))
        view.settle(first[:1])
        assert view.region.size == 5  # settled ids leave lazily...
        view.members(bucket0)
        assert view.region.size == 4  # ...on the next read
        # Now move a vertex into bucket 0 and re-read.
        view.apply(np.array([2]), np.array([9]))
        np.testing.assert_array_equal(
            view.members(bucket0), bucket_members(d, settled, 0, 25)
        )
        assert_matches_scans(ctx, view, 25)

    def test_rebuild_after_distance_raise(self):
        """Restores may raise distances; the set is retaken from them."""
        d = np.array([0, 7, 60], dtype=np.int64)
        settled = np.zeros(3, dtype=bool)
        ctx, view = make_view(d, settled)
        view.settle(np.array([0, 1]))
        back_d = np.array([0, INF, 90], dtype=np.int64)  # 1 un-reached
        back_settled = np.array([True, False, False])
        view.restore(back_d, back_settled, np.empty(0, np.int64))
        assert view.d is d and d.tolist() == back_d.tolist()
        assert_matches_scans(ctx, view, 25)
        np.testing.assert_array_equal(view.unsettled(), [2])


class TestBucketIndexRandomized:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("delta", [1, 7, 64])
    def test_random_relax_settle_history(self, seed, delta):
        rng = np.random.default_rng(seed)
        n = 200
        d = np.full(n, INF, dtype=np.int64)
        reached = rng.random(n) < 0.6
        d[reached] = rng.integers(0, 500, reached.sum())
        settled = np.zeros(n, dtype=bool)
        ctx, view = make_view(d, settled)
        for ordinal in range(30):
            if rng.integers(0, 2) == 0:
                if not (~settled).any():
                    break
                relax_some(
                    view, rng, rng.integers(1, 20), 600,
                    lambda k: rng.integers(1, 100, k),
                )
            elif not settle_a_window(ctx, view, delta, rng, ordinal):
                break
            assert_matches_scans(ctx, view, delta, ordinal)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 40),
        st.integers(1, 12),
    )
    def test_hypothesis_equivalence(self, seed, delta, steps):
        """The set ≡ the from-scratch scans after every operation."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        d = np.full(n, INF, dtype=np.int64)
        reached = rng.random(n) < 0.7
        d[reached] = rng.integers(0, 300, int(reached.sum()))
        settled = np.zeros(n, dtype=bool)
        ctx, view = make_view(d, settled)
        assert_matches_scans(ctx, view, delta)
        for ordinal in range(steps):
            if (~settled).any() and rng.random() < 0.6:
                relax_some(
                    view, rng, int(rng.integers(1, 8)), 400,
                    lambda k: rng.integers(1, 80, k),
                )
            elif not settle_a_window(ctx, view, delta, rng, ordinal):
                break
            assert_matches_scans(ctx, view, delta, ordinal)


class TestWideKeyRange:
    """Bucket keys span ``max_weight / Δ``: nothing the set or a window
    allocates may be sized by the key range (a ``bincount`` over bucket
    keys at Δ = 1 with weights up to 2**40 would ask for 8 TiB)."""

    def test_movers_2_40_buckets_apart_allocate_by_batch(self):
        import tracemalloc

        n = 64
        d = np.full(n, INF, dtype=np.int64)
        d[0] = 0
        settled = np.zeros(n, dtype=bool)
        ctx, view = make_view(d, settled, max_weight=2**40)
        tracemalloc.start()
        try:
            # Unreached vertices land on keys 2**40 apart.
            first = np.arange(1, 33, dtype=np.int64)
            view.apply(
                np.append(first, 32),
                np.append((first % 4) * 2**38 + first, 2**40),
            )
            assert_matches_scans(ctx, view, 1)
            # Queued vertices move 2**40 buckets down.
            again = np.arange(1, 33, 3, dtype=np.int64)
            view.apply(again, again)
            assert_matches_scans(ctx, view, 1)
            view.settle(np.array([2, 3, 32], dtype=np.int64))
            assert_matches_scans(ctx, view, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"{peak} bytes traced for a 32-vertex batch"
        step = strategies(ctx, 1)[0].next_step(
            ctx, view, DeclaredTransport(ctx.comm), 0
        )
        assert step.key == 0

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        delta=st.sampled_from([1, 25, 2**20]),
        steps=st.integers(1, 14),
    )
    def test_wide_weights_relax_settle_rebuild(self, seed, delta, steps):
        """Random relax / settle / restore histories with weights 1…2**40:
        every strategy's window and members, Δ's minimum and every bucket
        equal the from-scratch scans after every step."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        d = np.full(n, INF, dtype=np.int64)
        reached = rng.random(n) < 0.5
        d[reached] = rng.integers(0, 2**41, int(reached.sum()))
        settled = np.zeros(n, dtype=bool)
        ctx, view = make_view(d, settled, max_weight=2**40)
        assert_matches_scans(ctx, view, delta)
        for ordinal in range(steps):
            op = rng.random()
            if op < 0.6 and (~settled).any():
                # Drops of one weight (1…2**40), or a few units so that
                # some movers stay inside their bucket.
                relax_some(
                    view, rng, int(rng.integers(1, 12)), 2**41,
                    lambda k: np.where(
                        rng.random(k) < 0.5,
                        rng.integers(1, 2**40 + 1, k),
                        rng.integers(1, 30, k),
                    ),
                )
            elif op < 0.9:
                if not settle_a_window(ctx, view, delta, rng, ordinal):
                    break
            else:
                # A restore: distances rise, settled flags roll back.
                back = rng.random(n) < 0.3
                new_d, new_settled = d.copy(), settled.copy()
                new_d[back] = np.where(
                    rng.random(int(back.sum())) < 0.3,
                    INF,
                    rng.integers(0, 2**41, int(back.sum())),
                )
                new_settled[back] = False
                view.restore(new_d, new_settled, view.active)
            assert_matches_scans(ctx, view, delta, ordinal)


class TestBucketIndexGuard:
    def test_clean_index_passes(self):
        d = np.array([0, 7, 60], dtype=np.int64)
        settled = np.zeros(3, dtype=bool)
        _, view = make_view(d, settled)
        g = InvariantGuards(3, 25)
        g.check_unsettled_set(view.unsettled(), d, settled)
        assert g.violations == 0 and g.checks == 1

    def test_tampered_assignment_trips_guard(self):
        d = np.array([0, 7, 60], dtype=np.int64)
        settled = np.zeros(3, dtype=bool)
        _, view = make_view(d, settled)
        view.queued[1] = False  # corrupt the mask: vertex 1 drops out
        g = InvariantGuards(3, 25)
        with pytest.raises(GuardViolation, match="unsettled-set equivalence"):
            g.check_unsettled_set(view.unsettled(), d, settled)
        with pytest.raises(GuardViolation, match="repeated id"):
            g.check_unsettled_set(np.array([0, 1, 2, 2]), d, settled)

    def test_stale_min_bucket_trips_guard(self):
        d = np.array([0, INF], dtype=np.int64)
        settled = np.zeros(2, dtype=bool)
        ctx, view = make_view(d, settled)
        view.settle(np.array([0]))
        # A relaxation that bypasses apply: the set misses vertex 1, so
        # the next step reads none where next_bucket reads bucket 0.
        d[1] = 10
        step = strategies(ctx, 25)[0].next_step(
            ctx, view, DeclaredTransport(ctx.comm), 1
        )
        assert step is None and next_bucket(d, settled, 25) == 0
        g = InvariantGuards(2, 25)
        with pytest.raises(GuardViolation, match="vertex 1"):
            g.check_unsettled_set(view.unsettled(), d, settled)


# ----------------------------------------------------------------------
# Engine-level: the paranoid guard re-proves the equivalence every epoch
# of real solves — also under fault plans and resume-from-checkpoint.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def graph():
    return rmat_graph(scale=8, edge_factor=4, params=RMAT1, seed=11)


@pytest.fixture(scope="module")
def machine():
    return MachineConfig(num_ranks=4, threads_per_rank=2)


@pytest.fixture(scope="module")
def root(graph):
    """The hub, so a solve runs many epochs (vertex 0 is isolated)."""
    return int(np.argmax(graph.degrees))


STRATEGY_PRESETS = ("delta", "radius", "rho")


@pytest.fixture
def set_checks(monkeypatch):
    """Counts the unsettled-set checks a solve runs."""
    calls = []
    original = InvariantGuards.check_unsettled_set

    def counting(self, ids, d, settled):
        calls.append(ids.size)
        return original(self, ids, d, settled)

    monkeypatch.setattr(InvariantGuards, "check_unsettled_set", counting)
    return calls


class TestIndexGuardInSolves:
    def test_paranoid_clean_solve_checks_every_epoch(
        self, graph, machine, root, set_checks
    ):
        for name in STRATEGY_PRESETS:
            set_checks.clear()
            cfg = preset(name, 25).evolve(paranoid=True)
            _, ctx = spmd_delta_stepping(graph, root, machine, config=cfg)
            assert ctx.guards is not None and ctx.guards.violations == 0
            assert len(set_checks) == ctx.metrics.buckets_processed > 0, name

    def test_paranoid_under_fault_plan(self, graph, machine, root, set_checks):
        """Crashes roll rank state back (the set is retaken) mid-solve; the
        guard must still find set == scans after every subsequent epoch."""
        plan = FaultPlan(
            seed=3,
            loss_rate=0.15,
            dup_rate=0.05,
            crashes=(RankCrash(rank=1, superstep=3),),
        )
        for name in STRATEGY_PRESETS:
            set_checks.clear()
            cfg = preset(name, 25).evolve(paranoid=True)
            d_ref, _ = spmd_delta_stepping(
                graph, root, machine, config=preset(name, 25)
            )
            d, ctx = spmd_delta_stepping(
                graph, root, machine, config=cfg, faults=plan
            )
            assert np.array_equal(d, d_ref), name
            assert ctx.metrics.recovery.rank_restarts == 1, name
            assert ctx.guards is not None and ctx.guards.violations == 0
            assert len(set_checks) == ctx.metrics.buckets_processed > 0, name

    def test_paranoid_resume_from_checkpoint(self, graph, machine, root, tmp_path):
        """Resume retakes the set from restored distances; equivalence
        must hold from the first post-resume epoch onward."""
        for name in STRATEGY_PRESETS:
            cfg = preset(name, 25).evolve(paranoid=True)
            where = tmp_path / name
            d_full, _ = spmd_delta_stepping(
                graph, root, machine, config=cfg, checkpoint_dir=where
            )
            d_res, ctx = spmd_delta_stepping(
                graph, root, machine, config=cfg, checkpoint_dir=where, resume=True
            )
            assert np.array_equal(d_res, d_full), name
            assert ctx.guards is not None and ctx.guards.violations == 0


class TestScanBucketIndexHelper:
    def test_no_copy_and_dtype(self):
        """bucket_index hands back np.where's int64 output directly — the
        historical trailing ``.astype(np.int64)`` full-array copy is gone."""
        d = np.array([0, 7, 25, INF], dtype=np.int64)
        out = bucket_index(d, 25)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, [0, 0, 1, NO_BUCKET])

    def test_no_astype_copy(self):
        import inspect

        source = inspect.getsource(bucket_index)
        assert ".astype" not in source, (
            "bucket_index must not re-copy np.where's int64 output"
        )
