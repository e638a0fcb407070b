"""Incremental bucket index: exact equivalence with the from-scratch scans.

The contract under test (DESIGN.md §9): after any legal update sequence,
:meth:`BucketIndex.members` is byte-identical to
:func:`~repro.core.buckets.bucket_members` and :meth:`BucketIndex.min_bucket`
to :func:`~repro.core.buckets.next_bucket` — for every bucket, not just the
minimum. The property tests drive randomized relax/settle histories (the
hypothesis suite shrinks counterexamples); the engine-level tests assert the
paranoid guard exercised that same equivalence every epoch of real solves,
including under fault plans and resume-from-checkpoint.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bucket_index import BucketIndex
from repro.core.buckets import (
    NO_BUCKET,
    bucket_index,
    bucket_members,
    next_bucket,
)
from repro.core.config import preset
from repro.core.distances import INF
from repro.graph.rmat import RMAT1, rmat_graph
from repro.runtime.guards import GuardViolation, InvariantGuards
from repro.runtime.machine import MachineConfig
from repro.spmd.engine import spmd_delta_stepping
from repro.spmd.faults import FaultPlan, RankCrash


def assert_matches_scans(index: BucketIndex, d: np.ndarray, settled: np.ndarray):
    """Full equivalence: bucket_of, min_bucket and every bucket's members."""
    delta = index.delta
    expected_of = np.where((d < INF) & ~settled, d // delta, np.int64(NO_BUCKET))
    np.testing.assert_array_equal(index.bucket_of_view(), expected_of)
    assert index.min_bucket() == next_bucket(d, settled, delta)
    for k in np.unique(expected_of[expected_of != NO_BUCKET]).tolist():
        got = index.members(k)
        want = bucket_members(d, settled, k, delta)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
    # A bucket nothing lives in must read empty too.
    empty_k = int(expected_of.max(initial=0)) + 3
    assert index.members(empty_k).size == 0


class TestBucketIndexUnit:
    def test_initial_state_matches_scan(self):
        d = np.array([0, 7, 25, 60, INF, 26], dtype=np.int64)
        settled = np.zeros(6, dtype=bool)
        idx = BucketIndex(25, d, settled)
        assert_matches_scans(idx, d, settled)
        assert idx.min_bucket() == 0

    def test_settled_vertices_hold_no_bucket(self):
        d = np.array([0, 7, 25, 60], dtype=np.int64)
        settled = np.array([True, False, False, False])
        idx = BucketIndex(25, d, settled)
        assert idx.bucket_of_view()[0] == NO_BUCKET
        assert_matches_scans(idx, d, settled)

    def test_delta_must_be_positive(self):
        with pytest.raises(ValueError):
            BucketIndex(0, np.array([0], dtype=np.int64))

    def test_on_relaxed_moves_between_buckets(self):
        d = np.array([0, 80, 80, INF], dtype=np.int64)
        settled = np.zeros(4, dtype=bool)
        idx = BucketIndex(25, d, settled)
        d[1] = 10  # bucket 3 -> 0
        d[3] = 30  # unreached -> bucket 1
        idx.on_relaxed(np.array([1, 3], dtype=np.int64), d)
        assert_matches_scans(idx, d, settled)

    def test_on_relaxed_within_bucket_is_noop(self):
        d = np.array([0, 80], dtype=np.int64)
        settled = np.zeros(2, dtype=bool)
        idx = BucketIndex(25, d, settled)
        d[1] = 76  # still bucket 3
        idx.on_relaxed(np.array([1], dtype=np.int64), d)
        assert_matches_scans(idx, d, settled)

    def test_on_settled_empties_and_advances_min(self):
        d = np.array([0, 7, 60], dtype=np.int64)
        settled = np.zeros(3, dtype=bool)
        idx = BucketIndex(25, d, settled)
        settled[[0, 1]] = True
        idx.on_settled(np.array([0, 1], dtype=np.int64))
        assert_matches_scans(idx, d, settled)
        assert idx.min_bucket() == 2
        settled[2] = True
        idx.on_settled(np.array([2], dtype=np.int64))
        assert idx.min_bucket() == NO_BUCKET

    def test_members_repeated_reads_stay_exact(self):
        """Compaction (the `_clean` fast path) must not change results."""
        d = np.array([0, 3, 26, 27, 4], dtype=np.int64)
        settled = np.zeros(5, dtype=bool)
        idx = BucketIndex(25, d, settled)
        first = idx.members(0)
        second = idx.members(0)
        np.testing.assert_array_equal(first, second)
        # Now dirty bucket 0 with a mover and re-read.
        d[2] = 9
        idx.on_relaxed(np.array([2], dtype=np.int64), d)
        np.testing.assert_array_equal(
            idx.members(0), bucket_members(d, settled, 0, 25)
        )

    def test_rebuild_after_distance_raise(self):
        """Restores may raise distances; rebuild() is the lawful reset."""
        d = np.array([0, 7, 60], dtype=np.int64)
        settled = np.zeros(3, dtype=bool)
        idx = BucketIndex(25, d, settled)
        d[1] = INF  # rollback un-reached the vertex
        d[2] = 90
        idx.rebuild(d, settled)
        assert_matches_scans(idx, d, settled)


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
        idx = BucketIndex(delta, d, settled)
        for _ in range(30):
            op = rng.integers(0, 2)
            if op == 0:
                # Relax: drop distances of a random unsettled subset.
                cand = np.nonzero(~settled)[0]
                if cand.size == 0:
                    break
                pick = np.unique(rng.choice(cand, rng.integers(1, 20)))
                drop = rng.integers(1, 100, pick.size)
                old = np.where(d[pick] < INF, d[pick], 600)
                d[pick] = np.maximum(old - drop, 0)
                idx.on_relaxed(pick, d)
            else:
                # Settle the current minimum bucket, like the engines do.
                k = next_bucket(d, settled, delta)
                if k == NO_BUCKET:
                    break
                members = bucket_members(d, settled, k, delta)
                settled[members] = True
                idx.on_settled(members)
            assert_matches_scans(idx, d, settled)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 40),
        st.integers(1, 12),
    )
    def test_hypothesis_equivalence(self, seed, delta, steps):
        """Satellite 4: index == from-scratch scans after every operation."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        d = np.full(n, INF, dtype=np.int64)
        reached = rng.random(n) < 0.7
        d[reached] = rng.integers(0, 300, int(reached.sum()))
        settled = np.zeros(n, dtype=bool)
        idx = BucketIndex(delta, d, settled)
        assert_matches_scans(idx, d, settled)
        for _ in range(steps):
            cand = np.nonzero(~settled)[0]
            if cand.size and rng.random() < 0.6:
                pick = np.unique(rng.choice(cand, int(rng.integers(1, 8))))
                old = np.where(d[pick] < INF, d[pick], 400)
                d[pick] = np.maximum(old - rng.integers(1, 80, pick.size), 0)
                idx.on_relaxed(pick, d)
            else:
                k = next_bucket(d, settled, delta)
                if k == NO_BUCKET:
                    break
                members = bucket_members(d, settled, k, delta)
                settled[members] = True
                idx.on_settled(members)
            assert_matches_scans(idx, d, settled)


class TestWideKeyRange:
    """Bucket keys span ``max_weight / Δ``: grouping a batch by key must
    allocate by the batch, never by the key range (a ``bincount`` over
    ``b - b.min()`` at Δ = 1 with weights up to 2**40 would ask for 8 TiB)."""

    def test_movers_2_40_buckets_apart_allocate_by_batch(self):
        import tracemalloc

        n = 64
        d = np.full(n, INF, dtype=np.int64)
        d[0] = 0
        settled = np.zeros(n, dtype=bool)
        idx = BucketIndex(1, d, settled)
        tracemalloc.start()
        try:
            # Insert side: unreached movers scatter over keys 2**40 apart.
            first = np.arange(1, 33, dtype=np.int64)
            d[first] = (first % 4) * 2**38 + first
            d[32] = 2**40
            idx.on_relaxed(first, d)
            assert_matches_scans(idx, d, settled)
            # Decrement side: indexed movers leave buckets 2**40 apart.
            again = np.arange(1, 33, 3, dtype=np.int64)
            d[again] = again
            idx.on_relaxed(again, d)
            assert_matches_scans(idx, d, settled)
            gone = np.array([2, 3, 32], dtype=np.int64)
            settled[gone] = True
            idx.on_settled(gone)
            assert_matches_scans(idx, d, settled)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"{peak} bytes traced for a 32-vertex batch"
        assert idx.min_bucket() == 0

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        delta=st.sampled_from([1, 25, 2**20]),
        steps=st.integers(1, 14),
    )
    def test_wide_weights_relax_settle_rebuild(self, seed, delta, steps):
        """Random relax / settle / rebuild histories with weights 1…2**40:
        every bucket's members and the minimum equal the from-scratch scan
        of ``core/buckets.py`` after every step."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        d = np.full(n, INF, dtype=np.int64)
        reached = rng.random(n) < 0.5
        d[reached] = rng.integers(0, 2**41, int(reached.sum()))
        settled = np.zeros(n, dtype=bool)
        idx = BucketIndex(delta, d, settled)
        assert_matches_scans(idx, d, settled)
        for _ in range(steps):
            op = rng.random()
            cand = np.nonzero(~settled)[0]
            if op < 0.6 and cand.size:
                pick = np.unique(rng.choice(cand, int(rng.integers(1, 12))))
                old = np.where(d[pick] < INF, d[pick], 2**41)
                # Drops of one weight (1…2**40), or a few units so that
                # some movers stay inside their bucket.
                drop = np.where(
                    rng.random(pick.size) < 0.5,
                    rng.integers(1, 2**40 + 1, pick.size),
                    rng.integers(1, 30, pick.size),
                )
                d[pick] = np.maximum(old - drop, 0)
                idx.on_relaxed(pick, d)
            elif op < 0.9:
                k = next_bucket(d, settled, delta)
                if k == NO_BUCKET:
                    break
                members = bucket_members(d, settled, k, delta)
                settled[members] = True
                idx.on_settled(members)
            else:
                # A restore: distances rise, settled flags roll back.
                back = rng.random(n) < 0.3
                d[back] = np.where(
                    rng.random(int(back.sum())) < 0.3,
                    INF,
                    rng.integers(0, 2**41, int(back.sum())),
                )
                settled[back] = False
                idx.rebuild(d, settled)
            assert_matches_scans(idx, d, settled)


class TestBucketIndexGuard:
    def test_clean_index_passes(self):
        d = np.array([0, 7, 60], dtype=np.int64)
        settled = np.zeros(3, dtype=bool)
        idx = BucketIndex(25, d, settled)
        g = InvariantGuards(3, 25)
        g.check_bucket_index(idx, d, settled)
        assert g.violations == 0

    def test_tampered_assignment_trips_guard(self):
        d = np.array([0, 7, 60], dtype=np.int64)
        settled = np.zeros(3, dtype=bool)
        idx = BucketIndex(25, d, settled)
        idx._bucket_of[1] = 5  # corrupt the ground-truth table
        g = InvariantGuards(3, 25)
        with pytest.raises(GuardViolation, match="bucket-index equivalence"):
            g.check_bucket_index(idx, d, settled)

    def test_stale_min_bucket_trips_guard(self):
        d = np.array([0, 60], dtype=np.int64)
        settled = np.zeros(2, dtype=bool)
        idx = BucketIndex(25, d, settled)
        # Index misses a relaxation entirely: d says bucket 0, index says 2.
        d[1] = 10
        g = InvariantGuards(2, 25)
        with pytest.raises(GuardViolation, match="bucket-index equivalence"):
            g.check_bucket_index(idx, d, settled)


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


class TestIndexGuardInSolves:
    def test_paranoid_clean_solve_checks_every_epoch(self, graph, machine):
        cfg = preset("delta", 25).evolve(paranoid=True)
        _, ctx = spmd_delta_stepping(graph, 0, machine, config=cfg)
        assert ctx.guards is not None
        assert ctx.guards.checks > 0
        assert ctx.guards.violations == 0

    def test_paranoid_under_fault_plan(self, graph, machine):
        """Crashes roll rank state back (rebuild path) mid-solve; the guard
        must still find index == scans after every subsequent epoch."""
        plan = FaultPlan(
            seed=3,
            loss_rate=0.15,
            dup_rate=0.05,
            crashes=(RankCrash(rank=1, superstep=3),),
        )
        cfg = preset("delta", 25).evolve(paranoid=True)
        d_ref, _ = spmd_delta_stepping(graph, 0, machine, config=preset("delta", 25))
        d, ctx = spmd_delta_stepping(graph, 0, machine, config=cfg, faults=plan)
        assert np.array_equal(d, d_ref)
        assert ctx.guards is not None and ctx.guards.violations == 0
        assert ctx.guards.checks > 0

    def test_paranoid_resume_from_checkpoint(self, graph, machine, tmp_path):
        """Resume rebuilds the index from restored distances; equivalence
        must hold from the first post-resume epoch onward."""
        cfg = preset("delta", 25).evolve(paranoid=True)
        d_full, _ = spmd_delta_stepping(
            graph, 0, machine, config=cfg, checkpoint_dir=tmp_path
        )
        d_res, ctx = spmd_delta_stepping(
            graph, 0, machine, config=cfg, checkpoint_dir=tmp_path, resume=True
        )
        assert np.array_equal(d_res, d_full)
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
