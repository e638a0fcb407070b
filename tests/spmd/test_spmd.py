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
from repro.core.reference import dijkstra_reference
from repro.runtime.machine import MachineConfig
from repro.spmd import (
    Mailbox,
    build_rank_states,
    spmd_delta_stepping,
)
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
        assert mailbox.allreduce_sum([1, 2, 3]) == 6
        assert mailbox.allreduce_min([4, 2, 9]) == 2
        assert metrics.total_allreduces == 2

    def test_misuse_rejected(self):
        mailbox, _ = self.make()
        with pytest.raises(IndexError):
            mailbox.post(9, np.array([0]), np.array([1]))
        with pytest.raises(ValueError):
            mailbox.post(0, np.array([0, 1]), np.array([1]))
        with pytest.raises(ValueError):
            mailbox.allreduce_sum([1])


class TestBuildRankStates:
    def test_slices_cover_graph(self, rmat1_small):
        from repro.graph.partition import BlockPartition

        g = rmat1_small.sorted_by_weight()
        part = BlockPartition(g.num_vertices, 4)
        states = build_rank_states(g, part, 25, root=3)
        assert sum(st.num_local for st in states) == g.num_vertices
        total_arcs = sum(int(st.indptr[-1]) for st in states)
        assert total_arcs == g.num_arcs

    def test_root_initialised_on_owner_only(self, rmat1_small):
        from repro.graph.partition import BlockPartition

        g = rmat1_small.sorted_by_weight()
        part = BlockPartition(g.num_vertices, 4)
        root = 200
        states = build_rank_states(g, part, 25, root=root)
        owner = part.owner(root)
        for st in states:
            if st.rank == owner:
                assert st.d[root - st.lo] == 0
                assert st.active.size == 1
            else:
                assert st.active.size == 0
                assert np.all(st.d == st.d.max())


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

    def test_exact_estimator_rejected(self, rmat1_small):
        machine = MachineConfig(num_ranks=2, threads_per_rank=2)
        cfg = SolverConfig(delta=25, use_pruning=True,
                           pushpull_estimator="exact")
        with pytest.raises(ValueError, match="expectation"):
            spmd_delta_stepping(rmat1_small, 3, machine, config=cfg)

    def test_census_rejected(self, rmat1_small):
        machine = MachineConfig(num_ranks=2, threads_per_rank=2)
        cfg = SolverConfig(delta=25, collect_census=True)
        with pytest.raises(ValueError, match="census"):
            spmd_delta_stepping(rmat1_small, 3, machine, config=cfg)
