"""The lineage tier of the broker's miss path (DESIGN.md §15).

A read of ``(snapshot_id, root)`` that misses looks back up to
``versioner.reach`` updates for the newest snapshot — resident or retired
— still holding the root's distances and repairs them onto the pinned
snapshot in one ``repair_sssp`` call under the composed delta —
``source="repair"``, bit-identical to a solve of the pinned snapshot.
Every condition that skips or abandons the tier lands on the unchanged
solve path.
"""

import numpy as np
import pytest

from repro.core.solver import solve_sssp
from repro.dynamic.updates import UpdateBatch, random_update_batch
from repro.graph.builder import from_edges
from repro.graph.roots import choose_root
from repro.runtime.watchdog import DeadlineConfig, SolveTimeout
from repro.serve.breaker import BreakerConfig, CircuitBreaker
from repro.serve.broker import QueryBroker
from repro.serve.chaos import ChaosPlan
from tests.serve.test_journeys import FakeClock


def manual_broker(graph, **kwargs):
    kwargs.setdefault("algorithm", "opt")
    return QueryBroker(
        graph, num_workers=0, num_ranks=2,
        threads_per_rank=2, events=True, **kwargs,
    )


def offline(graph, root, algorithm="opt"):
    return solve_sssp(
        graph, root, algorithm=algorithm, delta=25, num_ranks=2,
        threads_per_rank=2,
    ).distances


def update(broker, seed, fraction=0.02):
    return broker.apply_updates(random_update_batch(
        broker.graph, np.random.default_rng(seed), churn_fraction=fraction
    ))


def last_event(broker):
    return broker.events.events()[-1]


def only_serving_pin(broker) -> bool:
    """The versioner's pins are back to the serving pointer's one."""
    return broker.versioner._pins == {broker.versioner.current_id: 1}


@pytest.mark.parametrize("algorithm", ["opt", "rho"])  # Δ = 25; delta-free
@pytest.mark.parametrize("hops", [1, 2, 3, 4, 6])  # retention 4: 0 retires at 4
def test_repairs_the_nearest_cached_ancestor(rmat1_small, algorithm, hops):
    broker = manual_broker(rmat1_small, algorithm=algorithm)
    root = int(choose_root(rmat1_small, seed=20 + hops))
    assert broker.query(root).source == "solve"
    for seed in range(hops):
        update(broker, seed, fraction=0.01)  # 512 vertices: stay under the gate
    assert (0 in broker.versioner) == (hops < 4) and (0, root) in broker.cache
    solves = broker.report()["solves"]
    res = broker.query(root)
    assert (res.source, res.snapshot_id, res.sssp) == ("repair", hops, None)
    np.testing.assert_array_equal(
        res.distances, offline(broker.graph, root, algorithm)
    )
    event = last_event(broker)
    assert (event["cache_tier"], event["source"]) == ("lineage", "repair")
    assert event["lineage"]["ancestor"] == 0
    assert event["lineage"]["hops"] == hops
    assert event["lineage"]["dirty"] >= 0
    assert event["attempts"] == []
    report = broker.report()
    assert report["solves"] == solves and report["outcome_repair"] == 1
    # The repaired answer is an ordinary entry of the pinned snapshot.
    again = broker.query(root)
    assert again.source == "cache" and again.distances is res.distances
    assert "lineage" not in last_event(broker)
    assert only_serving_pin(broker)
    broker.shutdown()


def test_nearest_ancestor_wins_and_group_is_coalesced(rmat1_small):
    broker = manual_broker(rmat1_small)
    root = int(choose_root(rmat1_small, seed=5))
    broker.query(root)
    update(broker, 1)
    broker.query(root)  # (1, root) by one hop
    update(broker, 2)
    futures = [broker.submit(root) for _ in range(3)]
    assert broker.drain(timeout=60.0)
    assert [f.result().source for f in futures] == [
        "repair", "coalesced", "coalesced"
    ]
    expected = offline(broker.graph, root)
    for event, future in zip(broker.events.events()[-3:], futures):
        np.testing.assert_array_equal(future.result().distances, expected)
        assert event["lineage"] == {
            "ancestor": 1, "hops": 1, "dirty": event["lineage"]["dirty"]
        }
    broker.shutdown()


def test_never_updated_broker_and_first_touch_solve(rmat1_small):
    broker = manual_broker(rmat1_small)
    root = int(choose_root(rmat1_small, seed=6))
    assert broker.query(root).source == "solve"  # snapshot 0 has no parent
    update(broker, 3)
    other = int(choose_root(rmat1_small, seed=7))
    assert broker.query(other).source == "solve"  # nobody solved it before
    assert last_event(broker)["cache_tier"] == "miss"
    broker.shutdown()


class TestRetirement:
    def test_out_of_reach_is_solved_and_old_seeds_are_swept(self, rmat1_small):
        broker = manual_broker(rmat1_small)
        root = int(choose_root(rmat1_small, seed=7))
        broker.query(root)
        for seed in range(broker.versioner.reach):
            update(broker, seed, fraction=0.01)
        assert (0, root) in broker.cache  # retired three updates ago, in reach
        update(broker, 99, fraction=0.01)
        assert (0, root) not in broker.cache
        res = broker.query(root)
        assert (res.source, res.snapshot_id) == ("solve", 7)
        assert last_event(broker)["cache_tier"] == "miss"
        broker.shutdown()

    def test_retention_one_has_no_ancestor(self, rmat1_small):
        broker = manual_broker(rmat1_small, snapshot_retention=1)
        root = int(choose_root(rmat1_small, seed=8))
        broker.query(root)
        update(broker, 4)  # snapshot 0 and (0, root) retire with the swap
        res = broker.query(root)
        assert res.source == "solve"
        np.testing.assert_array_equal(res.distances, offline(broker.graph, root))
        assert only_serving_pin(broker)
        broker.shutdown()

    def test_delta_ageing_out_mid_lookup_falls_back_to_a_solve(self, rmat1_small):
        """The tier pins nothing: between the ancestor's ``peek`` and
        ``delta_between`` three updates move the serving snapshot from 2
        to 5, and at ``reach`` 4 snapshot 1's delta ages out. The chain
        0 → 2 is broken (``KeyError``); the request — pinned to 2 — is
        solved there, and no pin is left behind."""
        broker = manual_broker(rmat1_small, snapshot_retention=3)
        root = int(choose_root(rmat1_small, seed=9))
        broker.query(root)
        update(broker, 5)
        update(broker, 6)
        graph2 = broker.graph
        peek = broker.cache.peek

        def peek_then_age_out(key):
            found = peek(key)
            if key == (0, root) and found is not None:
                broker.cache.peek = peek
                for seed in (7, 8, 9):
                    update(broker, seed)
                assert broker.versioner.ids() == [2, 3, 4, 5]  # 2: pinned
                with pytest.raises(KeyError):
                    broker.versioner.delta_between(0, 2)
            return found

        broker.cache.peek = peek_then_age_out
        future = broker.submit(root)
        assert broker.drain(timeout=60.0)
        res = future.result()
        assert (res.source, res.snapshot_id) == ("solve", 2)
        np.testing.assert_array_equal(res.distances, offline(graph2, root))
        assert last_event(broker)["cache_tier"] == "miss"
        assert broker.versioner.ids() == [3, 4, 5]
        assert only_serving_pin(broker)
        broker.shutdown()


def test_dirty_gate_falls_back_to_a_solve(path_graph):
    broker = manual_broker(path_graph)
    broker.query(0)
    # Cutting 1-2 orphans three of five vertices: past the 0.25 gate.
    broker.apply_updates(UpdateBatch.build(deletes=([1], [2])))
    res = broker.query(0)
    assert res.source == "solve" and res.sssp is not None
    np.testing.assert_array_equal(res.distances, offline(broker.graph, 0))
    assert last_event(broker)["cache_tier"] == "miss"
    report = broker.report()
    assert report["repair_fallbacks"] == 1 and report["repairs"] == 0
    assert "outcome_repair" not in report
    assert "serve_repair_fallbacks_total 1" in broker.registry.prometheus_text()
    broker.shutdown()


class TestConditionsThatSkipTheTier:
    """Each leaves an ancestor entry in place and must not touch it."""

    def seeded(self, graph, **kwargs):
        broker = manual_broker(graph, **kwargs)
        root = int(choose_root(graph, seed=10))
        broker.cache.put((0, root), offline(graph, root))
        update(broker, 9)
        return broker, root

    def test_group_with_a_deadline(self, rmat1_small):
        broker, root = self.seeded(rmat1_small)
        res = broker.query(root, deadline=DeadlineConfig(max_supersteps=10_000))
        assert res.source == "solve"
        assert broker.query(root).source == "cache"
        broker.shutdown()

    def test_open_then_half_open_breaker(self, rmat1_small):
        clock = FakeClock()
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=1, recovery_time_s=1.0,
                          degrade_max_vertices=1 << 17),
            clock=clock,
        )
        broker, root = self.seeded(rmat1_small, breaker=breaker)
        breaker.on_result("primary", "error")  # opens the class
        assert broker.query(root).source == "degraded"  # the ladder, not the tier
        other = int(choose_root(rmat1_small, seed=11))
        broker.cache.put((0, other), offline(rmat1_small, other))
        clock.advance(2.0)  # half-open: the next miss is the probe
        res = broker.query(other)
        assert res.source == "solve"
        assert last_event(broker)["attempts"][0]["decision"] == "probe"
        assert breaker.states() == {c: "closed" for c in breaker.states()}
        broker.shutdown()

    def test_negative_cached_root(self, rmat1_small):
        broker, root = self.seeded(rmat1_small, negative_ttl_s=3600.0)
        broker.cache.note_timeout((1, root))
        with pytest.raises(SolveTimeout):
            broker.query(root)
        assert last_event(broker)["negative"]
        assert (1, root) not in broker.cache
        broker.shutdown()

    def test_directed_graph(self):
        """``repair_sssp`` reads in-arcs through symmetry; a directed live
        graph keeps solving."""
        rng = np.random.default_rng(12)
        n, m = 64, 400
        graph = from_edges(
            rng.integers(0, n, m), rng.integers(0, n, m),
            rng.integers(1, 50, m), n, undirected=False,
        )
        broker = manual_broker(graph)
        root = int(np.flatnonzero(graph.degrees > 0)[0])
        broker.query(root)
        update(broker, 13, fraction=0.05)
        res = broker.query(root)
        assert res.source == "solve"
        np.testing.assert_array_equal(res.distances, offline(broker.graph, root))
        broker.shutdown()


def test_tier_draws_no_chaos_and_notes_no_attempt(rmat1_small):
    """Every solve attempt of this plan fails; a lineage-served request
    never reaches one."""
    broker, root = TestConditionsThatSkipTheTier().seeded(
        rmat1_small,
        chaos=ChaosPlan(seed=1, error_rate=1.0, max_faulty_attempts=99),
    )
    res = broker.query(root)
    assert (res.source, res.attempts) == ("repair", 1)
    assert broker.chaos.log == [] and last_event(broker)["attempts"] == []
    with pytest.raises(Exception, match="chaos"):
        broker.query(int(choose_root(rmat1_small, seed=11)))
    assert len(broker.chaos.log) == 1
    broker.shutdown()


class TestVerification:
    def test_structural_check_passes_a_repaired_answer(self, rmat1_small, monkeypatch):
        import repro.serve.attempt as attempt_module

        checked = []
        validate = attempt_module.run_validation
        monkeypatch.setattr(
            attempt_module, "run_validation",
            lambda d, g, r, mode: (checked.append((r, mode)), validate(d, g, r, mode)),
        )
        broker, root = TestConditionsThatSkipTheTier().seeded(
            rmat1_small, verify="structural"
        )
        assert broker.query(root).source == "repair"
        assert checked == [(root, "structural")]
        broker.shutdown()

    def test_corrupted_ancestor_is_rejected_and_resolved(self, rmat1_small):
        broker = manual_broker(rmat1_small, verify="structural")
        root = int(choose_root(rmat1_small, seed=10))
        bad = offline(rmat1_small, root).copy()
        reached = np.flatnonzero((bad > 0) & (bad < bad.max()))
        bad[reached[-1]] -= 1  # no in-arc certifies this distance any more
        broker.cache.put((0, root), bad)
        update(broker, 9)
        res = broker.query(root)
        assert res.source == "solve"
        np.testing.assert_array_equal(res.distances, offline(broker.graph, root))
        np.testing.assert_array_equal(broker.cache.peek((1, root)), res.distances)
        assert last_event(broker)["cache_tier"] == "miss"
        broker.shutdown()


def test_serve_top_and_the_events_cli_show_the_repair(rmat1_small, tmp_path, capsys):
    from repro.serve.events import main as events_main

    broker, root = TestConditionsThatSkipTheTier().seeded(rmat1_small)
    broker.query(root)
    # the per-source row serve-bench prints has the repair in its own column
    assert len(broker.latency.samples("repair")) == 1
    report = broker.report()
    assert report["outcome_repair"] == 1 and report["p50_repair_s"] > 0
    # A repaired read is a served read: no failure outcome is counted.
    outcomes = {k for k in report if k.startswith("outcome_")}
    assert outcomes <= {"outcome_cache", "outcome_solve", "outcome_repair"}
    assert events_main([broker.events.write(str(tmp_path / "events.jsonl"))]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert "source=repair cache=lineage attempts=0" in line
    assert "ancestor=0 hops=1 dirty=" in line
    broker.shutdown()
