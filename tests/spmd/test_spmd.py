"""SPMD engine: equivalence witness against the orchestrated engine.

The central claims: (1) the rank-local message-passing execution produces
bit-identical distances, and (2) its *accounting* — relaxations, phases,
buckets, bytes, allreduces, and the cost model's simulated time — matches
the orchestrated engine exactly. Together these mechanically justify the
orchestrated engine's declared-traffic approach (DESIGN.md §5).
"""

import numpy as np
import pytest

from repro.core.config import DELTA_INFINITY, SolverConfig
from repro.core.context import make_context
from repro.core.reference import dijkstra_reference
from repro.core.views import active_per_rank
from repro.runtime.machine import MachineConfig
from repro.spmd import Mailbox
from repro.spmd.engine import build_rank_states
from tests.core.test_transport_parity import assert_parity


class TestMailbox:
    def make(self, p=3, n=12):
        from repro.graph.partition import BlockPartition
        from repro.runtime.comm import Communicator
        from repro.runtime.metrics import Metrics

        machine = MachineConfig(num_ranks=p, threads_per_rank=1)
        metrics = Metrics(num_ranks=p, threads_per_rank=1)
        comm = Communicator(machine, BlockPartition(n, p), metrics)
        return Mailbox(p, comm), metrics

    def test_records_routed_to_destination(self):
        mailbox, _ = self.make()
        mailbox.post(0, np.array([1, 2, 1]), np.array([5, 9, 6]),
                     np.array([50, 90, 60]))
        inboxes = mailbox.deliver(16)
        assert inboxes[0][0].size == 0
        assert sorted(inboxes[1][0].tolist()) == [5, 6]
        assert inboxes[2][0].tolist() == [9]
        # payload follows
        assert sorted(inboxes[1][1].tolist()) == [50, 60]

    def test_traffic_accounted(self):
        mailbox, metrics = self.make()
        mailbox.post(0, np.array([1]), np.array([5]), np.array([50]))
        mailbox.deliver(16)
        assert metrics.total_bytes == 16

    def test_same_rank_records_free(self):
        mailbox, metrics = self.make()
        mailbox.post(1, np.array([1]), np.array([5]), np.array([50]))
        inboxes = mailbox.deliver(16)
        assert inboxes[1][0].tolist() == [5]
        assert metrics.total_bytes == 0

    def test_allreduce_counted(self):
        mailbox, metrics = self.make()
        # The kernel folds the ranks' contributions over the one view; the
        # transport counts the collective and hands the value back.
        assert mailbox.allreduce_sum(6) == 6
        assert mailbox.allreduce_min(2) == 2
        assert mailbox.allreduce_sum(0, phase_kind="recovery") == 0
        assert metrics.total_allreduces == 3

    def test_misuse_rejected(self):
        mailbox, _ = self.make()
        with pytest.raises(IndexError):
            mailbox.post(9, np.array([0]), np.array([1]))
        with pytest.raises(ValueError):
            mailbox.post(0, np.array([0, 1]), np.array([1]))
        with pytest.raises(ValueError, match="at least one record column"):
            mailbox.post(0, np.array([0]))
        with pytest.raises(ValueError, match="destination rank 3 out of range"):
            mailbox.post(0, np.array([3]), np.array([1]))
        mailbox.post(0, np.array([1]), np.array([5]))
        with pytest.raises(ValueError, match="posted 1 columns"):
            mailbox.deliver(16)


class TestBuildRankStates:
    """``build_rank_states`` is the one view constructor; a rank's state is
    a range of it."""

    @staticmethod
    def context(graph):
        machine = MachineConfig(num_ranks=4, threads_per_rank=2)
        return make_context(graph, machine, SolverConfig(delta=25))

    def test_slices_cover_graph(self, rmat1_small):
        ctx = self.context(rmat1_small)
        view = build_rank_states(ctx, root=3)
        ranges = [ctx.partition.rank_range(r) for r in range(4)]
        assert ranges[0][0] == 0 and ranges[-1][1] == ctx.graph.num_vertices
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        assert view.d.size == view.settled.size == ctx.graph.num_vertices
        total_arcs = sum(int(view.indptr[hi] - view.indptr[lo]) for lo, hi in ranges)
        assert total_arcs == ctx.graph.num_arcs == view.adj.size

    def test_root_initialised_on_owner_only(self, rmat1_small):
        ctx = self.context(rmat1_small)
        root = 200
        view = build_rank_states(ctx, root=root)
        owner = ctx.partition.owner(root)
        assert view.active.tolist() == [root]
        assert active_per_rank(ctx, view).tolist() == [int(r == owner) for r in range(4)]
        assert view.d[root] == 0
        assert np.all(np.delete(view.d, root) == view.d.max())
        assert not view.settled.any() and view.num_unsettled == view.d.size


class TestBellmanFordEquivalence:
    @pytest.mark.parametrize("ranks", [1, 2, 5])
    def test_distances_and_accounting_match(self, rmat1_small, ranks):
        machine = MachineConfig(num_ranks=ranks, threads_per_rank=3)
        d, _ = assert_parity(
            rmat1_small, 3, machine, SolverConfig(delta=DELTA_INFINITY)
        )
        assert np.array_equal(d, dijkstra_reference(rmat1_small, 3))


class TestDeltaSteppingEquivalence:
    @pytest.mark.parametrize("ranks", [1, 3, 4])
    @pytest.mark.parametrize("ios", [False, True])
    @pytest.mark.parametrize("delta", [7, 25, 100])
    def test_distances_and_accounting_match(self, rmat1_small, ranks, ios, delta):
        machine = MachineConfig(num_ranks=ranks, threads_per_rank=2)
        assert_parity(
            rmat1_small, 3, machine, SolverConfig(delta=delta, use_ios=ios)
        )


class TestFullOptEquivalence:
    """The headline check: the complete OPT composition — IOS, pruning with
    the expectation decision heuristic (pull phases do real request/response
    mailbox rounds), hybridization — matches the orchestrated engine in
    distances and in every accounting dimension."""

    @pytest.mark.parametrize("ranks", [1, 3, 4])
    def test_opt_25(self, rmat1_small, ranks):
        machine = MachineConfig(num_ranks=ranks, threads_per_rank=2)
        cfg = SolverConfig(delta=25, use_ios=True, use_pruning=True,
                           use_hybrid=True)
        d, _ = assert_parity(rmat1_small, 3, machine, cfg)
        assert np.array_equal(d, dijkstra_reference(rmat1_small, 3))

    def test_forced_pull(self, rmat2_small):
        machine = MachineConfig(num_ranks=3, threads_per_rank=2)
        cfg = SolverConfig(delta=25, use_ios=True, use_pruning=True,
                           pushpull_mode="pull")
        _, metrics = assert_parity(rmat2_small, 7, machine, cfg)
        assert metrics.pull_buckets == metrics.buckets_processed

    def test_exact_and_histogram_estimators_run_on_the_rank_driver(self, rmat1_small):
        """Was: rejected, because rank views held no global arrays. The
        exact and histogram estimators now run on the rank driver and
        decide every bucket as the whole-graph driver does."""
        machine = MachineConfig(num_ranks=2, threads_per_rank=2)
        for estimator in ("exact", "histogram"):
            cfg = SolverConfig(delta=25, use_pruning=True,
                               pushpull_estimator=estimator)
            d, metrics = assert_parity(rmat1_small, 3, machine, cfg)
            assert np.array_equal(d, dijkstra_reference(rmat1_small, 3))
            assert {s["mode"] for s in metrics.per_bucket_stats} <= {"push", "pull"}
            assert any("est_push_cost" in s for s in metrics.per_bucket_stats)

    def test_census_runs_on_the_rank_driver(self, rmat1_small):
        """Was: rejected. The census reads the same arrays on either
        driver: same per-bucket edge classification, same distances."""
        machine = MachineConfig(num_ranks=2, threads_per_rank=2)
        cfg = SolverConfig(delta=25, collect_census=True)
        d, metrics = assert_parity(rmat1_small, 3, machine, cfg)
        assert np.array_equal(d, dijkstra_reference(rmat1_small, 3))
        assert all("forward_edges" in s for s in metrics.per_bucket_stats)
