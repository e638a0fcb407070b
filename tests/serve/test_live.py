"""Live graphs in the serving plane (DESIGN.md §15).

Epoch handoff semantics: ``apply_updates`` swaps the serving snapshot
without draining — requests pinned at admission keep their snapshot's
graph, solver and cache entries until they terminally complete, and no
request ever observes a mix of two snapshots.
"""

import numpy as np
import pytest

from repro.core.solver import solve_sssp
from repro.dynamic.updates import UpdateBatch, random_update_batch
from repro.graph.roots import choose_root
from repro.serve.broker import QueryBroker
from repro.serve.chaos import ChaosPlan
from repro.serve.request import ServiceShutdown
from repro.serve.retry import RetryPolicy


def manual_broker(graph, **kwargs):
    kwargs.setdefault("num_workers", 0)
    kwargs.setdefault("num_ranks", 2)
    kwargs.setdefault("threads_per_rank", 2)
    return QueryBroker(graph, **kwargs)


def offline(graph, root):
    return solve_sssp(
        graph, root, algorithm="opt", delta=25,
        num_ranks=2, threads_per_rank=2,
    ).distances


def churn(graph, seed, fraction=0.02):
    return random_update_batch(
        graph, np.random.default_rng(seed), churn_fraction=fraction
    )


class TestApplyUpdates:
    def test_swaps_snapshot_and_reports(self, rmat1_small):
        broker = manual_broker(rmat1_small)
        report = broker.apply_updates(churn(rmat1_small, 1))
        assert report["snapshot_id"] == 1
        assert report["parent_id"] == 0
        assert report["batch_size"] > 0
        assert broker.report()["snapshot_id"] == 1
        assert broker.report()["updates"] == 1
        assert broker.graph is broker.versioner.current.graph
        broker.shutdown()

    def test_new_requests_solve_on_new_snapshot(self, rmat1_small):
        broker = manual_broker(rmat1_small)
        root = int(choose_root(rmat1_small, seed=0))
        broker.apply_updates(churn(rmat1_small, 2))
        res = broker.query(root)
        assert res.snapshot_id == 1
        np.testing.assert_array_equal(
            res.distances, offline(broker.versioner.current.graph, root)
        )
        broker.shutdown()

    def test_closed_broker_refuses_updates(self, rmat1_small):
        broker = manual_broker(rmat1_small)
        broker.shutdown()
        with pytest.raises(ServiceShutdown):
            broker.apply_updates(churn(rmat1_small, 3))

    def test_update_metrics(self, rmat1_small):
        broker = manual_broker(rmat1_small)
        broker.apply_updates(churn(rmat1_small, 4))
        text = broker.registry.prometheus_text()
        assert "serve_updates_total" in text
        assert "serve_snapshot_id" in text
        broker.shutdown()


class TestPinning:
    def test_queued_request_keeps_admission_snapshot(self, rmat1_small):
        """A request admitted before the swap solves on its old graph."""
        broker = manual_broker(rmat1_small)
        root = int(choose_root(rmat1_small, seed=1))
        fut = broker.submit(root)
        broker.apply_updates(churn(rmat1_small, 5))
        broker.drain()
        res = fut.result()
        assert res.snapshot_id == 0
        np.testing.assert_array_equal(res.distances, offline(rmat1_small, root))
        # A fresh request for the same root lands on the new snapshot.
        res2 = broker.query(root)
        assert res2.snapshot_id == 1
        np.testing.assert_array_equal(
            res2.distances, offline(broker.versioner.current.graph, root)
        )
        broker.shutdown()

    def test_requests_across_snapshots_never_coalesce(self, rmat1_small):
        broker = manual_broker(rmat1_small, max_batch_size=8)
        root = int(choose_root(rmat1_small, seed=2))
        f0 = broker.submit(root)
        broker.apply_updates(churn(rmat1_small, 6))
        f1 = broker.submit(root)
        broker.drain()
        r0, r1 = f0.result(), f1.result()
        assert (r0.snapshot_id, r1.snapshot_id) == (0, 1)
        # Different snapshots => different answers, even for one root in
        # one batch: the old one is solved on the old graph; the new one
        # is never *served* the old entry — the lineage tier repairs it
        # onto the new snapshot, which equals an offline solve there.
        assert (r0.source, r1.source) == ("solve", "repair")
        np.testing.assert_array_equal(r0.distances, offline(rmat1_small, root))
        np.testing.assert_array_equal(
            r1.distances, offline(broker.versioner.current.graph, root)
        )
        assert not np.array_equal(r0.distances, r1.distances)
        broker.shutdown()

    def test_paths_extracted_on_pinned_snapshot(self, path_graph):
        broker = manual_broker(path_graph)
        fut = broker.submit(0, targets=(4,))
        # Cut 3-4: on snapshot 1 the old path no longer exists.
        broker.apply_updates(UpdateBatch.build(deletes=([3], [4])))
        broker.drain()
        assert fut.result().paths[4] == [0, 1, 2, 3, 4]  # snapshot 0 path
        res = broker.query(0, targets=(4,))
        assert res.paths[4] is None  # snapshot 1: unreachable
        broker.shutdown()


class TestSnapshotCache:
    def test_cache_keys_are_snapshot_scoped(self, rmat1_small):
        broker = manual_broker(rmat1_small)
        root = int(choose_root(rmat1_small, seed=3))
        old = broker.query(root).distances
        broker.apply_updates(churn(rmat1_small, 7))
        res = broker.query(root)
        # The old entry must not serve the new snapshot: it is repaired
        # forward, and the batch changed a tight arc of this root's tree.
        assert res.source == "repair" and res.snapshot_id == 1
        np.testing.assert_array_equal(
            res.distances, offline(broker.versioner.current.graph, root)
        )
        assert not np.array_equal(res.distances, old)
        assert (0, root) in broker.cache
        assert (1, root) in broker.cache
        hit = broker.query(root)
        assert hit.source == "cache" and hit.snapshot_id == 1
        broker.shutdown()

    def test_repair_in_place_carries_hot_roots(self, rmat1_small):
        broker = manual_broker(rmat1_small)
        roots = [int(r) for r in np.flatnonzero(rmat1_small.degrees > 0)[:3]]
        for r in roots:
            broker.query(r)
        report = broker.apply_updates(
            churn(rmat1_small, 8), repair_hot_roots=len(roots)
        )
        assert report["repaired"] + report["repair_fallbacks"] == len(roots)
        new_graph = broker.versioner.current.graph
        hits = 0
        for r in roots:
            res = broker.query(r)
            assert res.snapshot_id == 1
            np.testing.assert_array_equal(
                res.distances, offline(new_graph, r)
            )
            hits += res.source == "cache"
        assert hits == report["repaired"]
        assert broker.report()["repairs"] == report["repaired"]
        broker.shutdown()

    def test_repaired_entries_bit_identical_to_fresh(self, rmat1_small):
        broker = manual_broker(rmat1_small)
        root = int(choose_root(rmat1_small, seed=4))
        broker.query(root)
        broker.apply_updates(churn(rmat1_small, 9), repair_hot_roots=1)
        cached = broker.cache.peek((1, root))
        if cached is not None:  # repaired (no fallback)
            np.testing.assert_array_equal(
                cached, offline(broker.versioner.current.graph, root)
            )
        broker.shutdown()

    def test_retired_snapshot_cache_swept(self, rmat1_small):
        broker = manual_broker(rmat1_small, snapshot_retention=1)
        root = int(choose_root(rmat1_small, seed=5))
        broker.query(root)
        assert (0, root) in broker.cache
        broker.apply_updates(churn(rmat1_small, 10))
        # retention=1 retires snapshot 0 immediately (nothing in flight).
        assert (0, root) not in broker.cache
        assert broker.report()["snapshots_resident"] == 1
        broker.shutdown()


class TestDeferredRetirement:
    def test_pinned_request_defers_retirement(self, rmat1_small):
        broker = manual_broker(rmat1_small, snapshot_retention=1)
        root = int(choose_root(rmat1_small, seed=6))
        broker.query(root)  # seeds (0, root) cache entry
        fut = broker.submit(int(choose_root(rmat1_small, seed=7)))
        broker.apply_updates(churn(rmat1_small, 11))
        # Snapshot 0 is out of retention but still pinned by `fut`.
        assert broker.report()["snapshots_resident"] == 2
        assert (0, root) in broker.cache
        broker.drain()
        res = fut.result()
        assert res.snapshot_id == 0
        np.testing.assert_array_equal(
            res.distances, offline(rmat1_small, res.root)
        )
        # Terminal completion released the pin: snapshot 0 fully retired.
        assert broker.report()["snapshots_resident"] == 1
        assert (0, root) not in broker.cache
        broker.shutdown()


class TestOnePreprocessingPerSnapshot:
    def test_solver_shares_the_versioner_context(self, rmat1_small):
        broker = manual_broker(rmat1_small)
        root = int(choose_root(rmat1_small, seed=0))
        broker.query(root)
        broker.apply_updates(churn(rmat1_small, 21), repair_hot_roots=1)
        other = int(choose_root(rmat1_small, seed=1))
        res = broker.query(other)  # a miss: builds snapshot 1's solver
        ctx = broker.versioner.context_for(1)
        assert broker._snapshots.solver(1)._template_ctx is ctx
        assert broker._snapshots.solver(1).algorithm == broker._snapshots.solver(0).algorithm
        np.testing.assert_array_equal(
            res.distances, offline(broker.versioner.current.graph, other)
        )
        broker.shutdown()

    def test_pinned_snapshot_outlives_the_window(self, rmat1_small):
        """A pinned snapshot outside the retention window stays in the
        versioner, its solve shares the memoised context, and it retires
        on the last unpin."""
        broker = manual_broker(rmat1_small, snapshot_retention=1)
        broker.apply_updates(churn(rmat1_small, 22))
        graph1 = broker.versioner.current.graph
        ctx1 = broker.versioner.context_for(1)
        fut = broker.submit(int(choose_root(rmat1_small, seed=2)))  # pins 1
        broker.apply_updates(churn(graph1, 23))
        assert broker.versioner.ids() == [1, 2]  # 1: out of window, pinned
        assert broker.versioner.context_for(1) is ctx1
        assert broker._snapshots.solver(1)._template_ctx is ctx1
        broker.drain()
        res = fut.result()
        assert res.snapshot_id == 1
        np.testing.assert_array_equal(res.distances, offline(graph1, res.root))
        assert broker.versioner.ids() == [2]  # the last unpin retired it
        assert (1, res.root) not in broker.cache
        broker.shutdown()

    def test_vertex_splitting_builds_from_the_graph(self, rmat1_small):
        from repro.core.config import SolverConfig

        cfg = SolverConfig(delta=25, use_ios=True, use_pruning=True,
                           intra_lb=True, inter_split=True, split_degree=24)
        broker = manual_broker(rmat1_small, algorithm="split", config=cfg)
        broker.apply_updates(churn(rmat1_small, 24))
        root = int(choose_root(rmat1_small, seed=3))
        res = broker.query(root)
        assert broker._snapshots.solver(1).num_proxies > 0
        np.testing.assert_array_equal(
            res.distances,
            solve_sssp(broker.versioner.current.graph, root, config=cfg,
                       num_ranks=2, threads_per_rank=2).distances,
        )
        broker.shutdown()


class TestLiveObservability:
    def test_wide_events_carry_snapshot_id(self, rmat1_small):
        broker = manual_broker(rmat1_small, events=True)
        r0 = int(choose_root(rmat1_small, seed=8))
        broker.query(r0)
        broker.apply_updates(churn(rmat1_small, 12))
        broker.query(r0)
        events = broker.events.events()
        assert [e["snapshot_id"] for e in events] == [0, 1]
        assert all(e["schema"] == 1 for e in events)
        broker.shutdown()

    def test_chaos_one_draw_stream_across_snapshots(self, rmat1_small):
        """Chaos draws key on (root, attempt) — the snapshot does not
        shift the stream, so a chaos schedule replays across updates."""
        root = int(choose_root(rmat1_small, seed=9))
        plan = ChaosPlan(seed=3, error_rate=1.0, max_faulty_attempts=1)
        logs = []
        for with_update in (False, True):
            broker = manual_broker(
                rmat1_small, chaos=plan,
                retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
            )
            if with_update:
                broker.apply_updates(churn(rmat1_small, 13))
            res = broker.query(root)
            assert res.attempts == 2  # first attempt faulted, retry ok
            logs.append(list(broker.chaos.log))
            broker.shutdown()
        assert logs[0] == logs[1]
