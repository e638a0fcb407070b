"""Snapshot lineage, digests, retention and context memoisation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import preset
from repro.dynamic.updates import UpdateBatch, random_update_batch
from repro.dynamic.versioner import GraphVersioner, structural_digest
from repro.graph.rmat import rmat_graph
from repro.runtime.machine import MachineConfig


@pytest.fixture
def graph():
    return rmat_graph(7, seed=4)


MACHINE = MachineConfig(num_ranks=4, threads_per_rank=4)


@pytest.fixture
def versioner(graph):
    return GraphVersioner(graph, machine=MACHINE, config=preset("opt", 25), retention=3)


class TestStructuralDigest:
    def test_deterministic(self, graph):
        assert structural_digest(graph) == structural_digest(graph)

    def test_sensitive_to_any_change(self, graph, versioner):
        snap, _ = versioner.apply(
            random_update_batch(graph, np.random.default_rng(1))
        )
        assert structural_digest(snap.graph) != structural_digest(graph)

    def test_memoised_digest_matches_direct(self, graph, versioner):
        assert versioner.digest(0) == structural_digest(graph)


class TestLineage:
    def test_snapshot_zero_is_construction_graph(self, graph, versioner):
        assert versioner.current_id == 0
        assert versioner.current.graph is graph
        assert versioner.current.parent_id is None

    def test_apply_links_parent(self, graph, versioner):
        batch = random_update_batch(graph, np.random.default_rng(2))
        snap, retired = versioner.apply(batch)
        assert snap.snapshot_id == 1
        assert snap.parent_id == 0
        assert snap.batch is batch
        assert not snap.delta.is_empty
        assert retired == []
        assert versioner.current_id == 1

    def test_snapshots_are_immutable_lineage(self, graph, versioner):
        g0_digest = versioner.digest(0)
        rng = np.random.default_rng(3)
        versioner.apply(random_update_batch(graph, rng))
        versioner.apply(
            random_update_batch(versioner.current.graph, rng)
        )
        # Applying updates never perturbs an ancestor snapshot.
        assert versioner.digest(0) == g0_digest

    def test_empty_batch_still_mints_snapshot(self, versioner):
        snap, _ = versioner.apply(UpdateBatch.build())
        assert snap.snapshot_id == 1
        assert snap.delta.is_empty
        # Identical structure => identical digest, distinct identity.
        assert versioner.digest(1) == versioner.digest(0)


class TestRetention:
    def test_bounded_retention_retires_oldest(self, graph, versioner):
        rng = np.random.default_rng(5)
        retired_all = []
        for _ in range(5):
            _, retired = versioner.apply(
                random_update_batch(versioner.current.graph, rng)
            )
            retired_all.extend(retired)
        # retention=3: snapshots 3, 4, 5 resident; 0, 1, 2 retired in order.
        assert versioner.ids() == [3, 4, 5]
        assert retired_all == [0, 1, 2]
        assert 2 not in versioner
        with pytest.raises(KeyError, match="retention"):
            versioner.get(0)

    def test_retention_validated(self, graph):
        with pytest.raises(ValueError):
            GraphVersioner(graph, machine=MACHINE, config=preset("opt"), retention=0)


class TestDeltaRetention:
    """Deltas outlive their snapshots by ``retention - 1`` updates, and
    compose into the diff of two graphs."""

    def churned(self, versioner, updates, seed=7, fraction=0.2):
        rng = np.random.default_rng(seed)
        for _ in range(updates):  # 20 % churn: arcs are touched again and again
            versioner.apply(random_update_batch(
                versioner.current.graph, rng, churn_fraction=fraction
            ))

    @pytest.mark.parametrize("hops", [1, 2, 4])
    def test_composed_delta_is_the_diff_of_the_two_graphs(self, graph, versioner, hops):
        from tests.dynamic.oracles import arc_weights

        self.churned(versioner, 2)
        old = versioner.current
        self.churned(versioner, hops, seed=8)
        new = versioner.current
        delta = versioner.delta_between(old.snapshot_id, new.snapshot_id)
        n = graph.num_vertices
        keys = delta.tails * n + delta.heads
        assert np.unique(keys).size == keys.size  # one row per arc
        np.testing.assert_array_equal(delta.old_weights, arc_weights(old.graph, keys))
        np.testing.assert_array_equal(delta.new_weights, arc_weights(new.graph, keys))
        # ... and every arc whose weight differs has a row.
        every = np.union1d(
            old.graph.arc_tails() * n + old.graph.adj,
            new.graph.arc_tails() * n + new.graph.adj,
        )
        differs = every[arc_weights(old.graph, every) != arc_weights(new.graph, every)]
        changed = keys[delta.old_weights != delta.new_weights]
        np.testing.assert_array_equal(np.sort(changed), differs)
        if hops > 1:  # some arc did go there and back
            assert changed.size < keys.size

    def test_one_hop_is_the_snapshots_own_delta(self, versioner):
        self.churned(versioner, 1)
        assert versioner.delta_between(0, 1) is versioner.current.delta

    def test_empty_batches_compose(self, versioner):
        versioner.apply(UpdateBatch.build())
        versioner.apply(UpdateBatch.build())
        assert versioner.delta_between(0, 2).tails.size == 0

    def test_reach_is_twice_the_window_and_older_deltas_are_gone(self, graph, versioner):
        assert versioner.reach == 4  # retention=3
        self.churned(versioner, 6, fraction=0.02)
        assert versioner.ids() == [4, 5, 6]
        versioner.delta_between(2, 6)  # snapshot 2 retired two updates ago
        with pytest.raises(KeyError):
            versioner.delta_between(1, 6)
        with pytest.raises(KeyError):
            versioner.delta_between(1, 3)  # an old target's chain ages out too
        one = GraphVersioner(graph, machine=MACHINE, config=preset("opt"), retention=1)
        assert one.reach == 0


class TestContexts:
    def test_context_memoised_per_snapshot(self, versioner):
        ctx_a = versioner.context_for(0)
        assert versioner.context_for(0) is ctx_a
        snap, _ = versioner.apply(
            random_update_batch(
                versioner.current.graph, np.random.default_rng(6)
            )
        )
        ctx_b = versioner.context_for(snap.snapshot_id)
        assert ctx_b is not ctx_a
        assert ctx_b.graph is not ctx_a.graph

    def test_needs_machine_and_config(self, graph):
        with pytest.raises(TypeError, match="machine"):
            GraphVersioner(graph)
        with pytest.raises(TypeError, match="config"):
            GraphVersioner(graph, machine=MACHINE)
