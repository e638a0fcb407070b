"""Unit tests for the byte-budgeted LRU distance cache."""

import numpy as np
import pytest

from repro.obs.registry import MetricsRegistry
from repro.serve.cache import EVICT_SCAN, MAX_NEGATIVE, DistanceCache


def arr(n: int, fill: int = 0) -> np.ndarray:
    return np.full(n, fill, dtype=np.int64)


class TestLru:
    def test_get_hit_and_miss(self):
        cache = DistanceCache(1 << 20)
        assert cache.get(0) is None
        cache.put(0, arr(8))
        got = cache.get(0)
        assert got is not None
        assert np.array_equal(got, arr(8))
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_order_and_refresh(self):
        cache = DistanceCache(1 << 20)
        for root in (1, 2, 3):
            cache.put(root, arr(4, root))
        assert cache.roots() == [1, 2, 3]
        cache.get(1)  # refreshes 1 to most-recently-used
        assert cache.roots() == [2, 3, 1]

    def test_eviction_respects_byte_budget(self):
        entry = arr(8)
        budget = 3 * entry.nbytes
        cache = DistanceCache(budget)
        for root in range(5):
            cache.put(root, arr(8, root))
        assert len(cache) == 3
        assert cache.stats.evictions == 2
        assert cache.stats.bytes_in_use <= budget
        # LRU victims: the oldest two inserts are gone
        assert cache.roots() == [2, 3, 4]
        assert cache.get(0) is None

    def test_reinsert_same_root_replaces(self):
        cache = DistanceCache(1 << 20)
        cache.put(7, arr(4, 1))
        cache.put(7, arr(4, 2))
        assert len(cache) == 1
        assert cache.stats.bytes_in_use == arr(4).nbytes
        assert cache.get(7)[0] == 2

    def test_oversize_entry_rejected(self):
        small = arr(2)
        cache = DistanceCache(small.nbytes)
        cache.put(0, small)
        assert not cache.put(1, arr(64))
        assert cache.stats.rejected == 1
        # the resident entry survives a rejected put
        assert 0 in cache
        assert 1 not in cache

    def test_zero_budget_disables_storage(self):
        cache = DistanceCache(0)
        assert not cache.put(0, arr(4))
        assert cache.get(0) is None
        assert cache.stats.rejected == 1
        assert len(cache) == 0

    def test_clear(self):
        cache = DistanceCache(1 << 20)
        cache.put(0, arr(4))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.bytes_in_use == 0


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


class TestCostAwareEviction:
    def test_cheapest_to_recompute_goes_first(self):
        entry = arr(8)
        cache = DistanceCache(3 * entry.nbytes)
        cache.put(1, arr(8), cost_s=5.0)   # expensive solve
        cache.put(2, arr(8), cost_s=0.1)   # cheap solve
        cache.put(3, arr(8), cost_s=3.0)
        cache.put(4, arr(8), cost_s=1.0)   # forces one eviction
        # the cheap entry is evicted even though 1 is least-recently used
        assert 2 not in cache
        assert cache.roots() == [1, 3, 4]

    def test_equal_costs_degrade_to_lru(self):
        entry = arr(8)
        cache = DistanceCache(2 * entry.nbytes)
        cache.put(1, arr(8))
        cache.put(2, arr(8))
        cache.put(3, arr(8))
        assert cache.roots() == [2, 3]  # plain LRU when costs tie

    def test_scan_window_bounds_the_search(self):
        entry, window = arr(8), range(EVICT_SCAN)
        cache = DistanceCache((EVICT_SCAN + 1) * entry.nbytes)
        for root in window:
            cache.put(root, arr(8), cost_s=4.0 if root == 1 else 5.0 + root)
        cache.put(EVICT_SCAN, arr(8), cost_s=0.01)  # cheapest, but outside the window
        cache.put(EVICT_SCAN + 1, arr(8), cost_s=9.0)
        # only the window was scanned; 1 is the cheapest of it
        assert cache.roots() == [r for r in window if r != 1] + [EVICT_SCAN, EVICT_SCAN + 1]


class TestChecksums:
    def corrupt_in_place(self, cache, root):
        entry = cache._entries[root]
        entry.distances.setflags(write=True)
        entry.distances[0] += 1
        entry.distances.setflags(write=False)

    def test_verified_get_quarantines_corruption(self):
        cache = DistanceCache(1 << 20, checksum=True)
        cache.put(0, arr(8))
        self.corrupt_in_place(cache, 0)
        assert cache.get(0) is not None  # verification off: served as-is
        cache.verify_get = True
        assert cache.get(0) is None  # quarantined, counted as a miss
        assert cache.stats.quarantined == 1
        assert 0 not in cache
        assert cache.stats.bytes_in_use == 0

    def test_clean_entries_survive_verification(self):
        cache = DistanceCache(1 << 20, checksum=True)
        cache.verify_get = True
        original = arr(8, 3)
        cache.put(0, original)
        assert cache.get(0) is original  # still no copy
        assert cache.stats.quarantined == 0

    def test_audit_sweeps_all_entries(self):
        cache = DistanceCache(1 << 20, checksum=True)
        for root in range(3):
            cache.put(root, arr(8, root))
        self.corrupt_in_place(cache, 1)
        assert cache.audit() == [1]
        assert cache.roots() == [0, 2]
        assert cache.stats.quarantined == 1

    def test_audit_without_checksum_is_noop(self):
        cache = DistanceCache(1 << 20)
        cache.put(0, arr(8))
        assert cache.audit() == []

    def test_registry_counts_quarantine(self):
        registry = MetricsRegistry()
        cache = DistanceCache(1 << 20, checksum=True, registry=registry)
        cache.verify_get = True
        cache.put(0, arr(8))
        self.corrupt_in_place(cache, 0)
        cache.get(0)
        assert "serve_cache_quarantined_total 1" in registry.prometheus_text()


class TestNegativeCache:
    def test_ttl_tombstone(self):
        clock = FakeClock()
        cache = DistanceCache(1 << 20, negative_ttl_s=2.0, clock=clock)
        assert not cache.negative(5)
        cache.note_timeout(5)
        assert cache.negative(5)
        clock.t = 2.5  # past the TTL: tombstone expires lazily
        assert not cache.negative(5)

    def test_bare_probe_is_a_peek(self):
        # Regression: every live probe used to count a negative_hit, so
        # drain loops and repeated checks inflated the shed metric.
        clock = FakeClock()
        cache = DistanceCache(1 << 20, negative_ttl_s=60.0, clock=clock)
        cache.note_timeout(5)
        for _ in range(10):
            assert cache.negative(5)
        assert cache.stats.negative_hits == 0

    def test_count_advances_stats_per_shed_request(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        cache = DistanceCache(
            1 << 20, negative_ttl_s=60.0, clock=clock, registry=registry
        )
        cache.note_timeout(5)
        assert cache.negative(5, count=3)  # a 3-request group shed
        assert cache.negative(5, count=2)
        assert cache.stats.negative_hits == 5
        assert "serve_cache_negative_hits_total 5" in registry.prometheus_text()
        # count on a dead/absent tombstone touches nothing
        assert not cache.negative(99, count=4)
        assert cache.stats.negative_hits == 5

    def test_note_timeout_sweeps_expired_tombstones(self):
        # Regression: tombstones for roots never probed again used to
        # accumulate forever.
        clock = FakeClock()
        cache = DistanceCache(1 << 20, negative_ttl_s=2.0, clock=clock)
        for root in range(50):
            cache.note_timeout(root)
        assert cache.negative_size() == 50
        clock.t = 5.0  # everything expired
        cache.note_timeout(1000)
        assert cache.negative_size() == 1
        assert cache.negative(1000)

    def test_put_sweeps_expired_tombstones(self):
        clock = FakeClock()
        cache = DistanceCache(1 << 20, negative_ttl_s=2.0, clock=clock)
        for root in range(50):
            cache.note_timeout(root)
        clock.t = 5.0
        cache.put(1000, arr(8))
        assert cache.negative_size() == 0

    def test_max_negative_caps_map_size(self):
        clock = FakeClock()
        cache = DistanceCache(1 << 20, negative_ttl_s=1000.0, clock=clock)
        for root in range(MAX_NEGATIVE + 84):
            clock.t += 0.01  # distinct expiries: later roots expire later
            cache.note_timeout(root)
        assert cache.negative_size() == MAX_NEGATIVE
        # soonest-to-expire (oldest) were evicted; newest survive
        assert not cache.negative(0)
        assert cache.negative(MAX_NEGATIVE + 83)

    def test_disabled_by_default(self):
        cache = DistanceCache(1 << 20)
        cache.note_timeout(5)
        assert not cache.negative(5)

    def test_successful_put_clears_tombstone(self):
        clock = FakeClock()
        cache = DistanceCache(1 << 20, negative_ttl_s=60.0, clock=clock)
        cache.note_timeout(5)
        cache.put(5, arr(8))
        assert not cache.negative(5)

    def test_clear_drops_tombstones(self):
        clock = FakeClock()
        cache = DistanceCache(1 << 20, negative_ttl_s=60.0, clock=clock)
        cache.note_timeout(5)
        cache.clear()
        assert not cache.negative(5)


class TestSnapshotKeys:
    """Snapshot-scoped ``(snapshot_id, root)`` keys (DESIGN §15)."""

    def test_tuple_and_int_keys_coexist(self):
        cache = DistanceCache(1 << 20)
        cache.put(7, arr(4, 1))
        cache.put((0, 7), arr(4, 2))
        cache.put((1, 7), arr(4, 3))
        assert np.array_equal(cache.get(7), arr(4, 1))
        assert np.array_equal(cache.get((0, 7)), arr(4, 2))
        assert np.array_equal(cache.get((1, 7)), arr(4, 3))

    def test_key_normalisation_dedupes_numpy_ints(self):
        cache = DistanceCache(1 << 20)
        cache.put((np.int64(0), np.int64(7)), arr(4, 1))
        assert cache.get((0, 7)) is not None
        cache.put((0, 7), arr(4, 2))  # replaces, not a second entry
        assert len(cache.roots()) == 1

    def test_evict_snapshot_scoped_drop(self):
        cache = DistanceCache(1 << 20)
        cache.put(7, arr(4))
        for sid, root in ((0, 7), (0, 17), (1, 17)):
            cache.put((sid, root), arr(4))
        before = cache.stats.evictions
        assert cache.evict_snapshot(0) == 2
        assert cache.stats.evictions == before + 2
        assert cache.get((0, 7)) is None
        assert cache.get((0, 17)) is None
        assert cache.get((1, 17)) is not None
        assert cache.get(7) is not None  # frozen-graph keys untouched
        assert cache.evict_snapshot(0) == 0  # idempotent

    def test_evict_snapshot_drops_scoped_tombstones(self):
        clock = FakeClock()
        cache = DistanceCache(1 << 20, negative_ttl_s=60.0, clock=clock)
        cache.note_timeout((0, 5))
        cache.note_timeout((1, 5))
        cache.note_timeout(5)
        cache.evict_snapshot(0)
        assert not cache.negative((0, 5))
        assert cache.negative((1, 5))
        assert cache.negative(5)

    def test_bytes_accounting_survives_snapshot_eviction(self):
        registry = MetricsRegistry()
        cache = DistanceCache(1 << 20, registry=registry)
        cache.put((0, 1), arr(64))
        cache.put((1, 1), arr(64))
        cache.evict_snapshot(0)
        assert cache.stats.bytes_in_use == arr(64).nbytes
        assert "serve_cache_entries 1" in registry.prometheus_text()


class TestClearAuditNegativeInterplay:
    """Satellite: ``clear()``/``audit()`` against the negative cache."""

    def test_negative_sweep_restarts_after_clear(self):
        # A full clear drops tombstones; the lazy sweep machinery must
        # keep working on entries noted *after* the clear.
        clock = FakeClock()
        cache = DistanceCache(1 << 20, negative_ttl_s=2.0, clock=clock)
        for root in range(10):
            cache.note_timeout(root)
        cache.clear()
        assert cache.negative_size() == 0
        cache.note_timeout(50)
        assert cache.negative(50)
        clock.t = 5.0
        cache.note_timeout(51)  # sweep fires over post-clear tombstones
        assert cache.negative_size() == 1
        assert not cache.negative(50)

    def test_negative_cap_restarts_after_clear(self):
        clock = FakeClock()
        cache = DistanceCache(1 << 20, negative_ttl_s=1000.0, clock=clock)
        before, after = MAX_NEGATIVE + 6, MAX_NEGATIVE + 2
        for root in range(before):
            clock.t += 0.01
            cache.note_timeout(root)
        cache.clear()
        for root in range(before, before + after):
            clock.t += 0.01
            cache.note_timeout(root)
        # cap applies to the post-clear population alone
        assert cache.negative_size() == MAX_NEGATIVE
        assert not cache.negative(before)  # oldest post-clear evicted
        assert cache.negative(before + after - 1)

    def test_audit_ignores_negative_entries(self):
        clock = FakeClock()
        cache = DistanceCache(
            1 << 20, checksum=True, negative_ttl_s=60.0, clock=clock
        )
        cache.put(1, arr(8))
        cache.note_timeout(2)
        assert cache.audit() == []
        assert cache.negative(2)  # tombstones survive a clean audit

    def test_audit_after_clear_is_empty(self):
        cache = DistanceCache(1 << 20, checksum=True)
        cache.put(1, arr(8))
        cache.clear()
        assert cache.audit() == []
        assert cache.stats.quarantined == 0

    def test_audit_quarantine_leaves_tombstones(self):
        clock = FakeClock()
        cache = DistanceCache(
            1 << 20, checksum=True, negative_ttl_s=60.0, clock=clock
        )
        data = arr(8)
        cache.put(1, data)
        cache.note_timeout(2)
        stored = cache.peek(1)
        stored.flags.writeable = True
        stored[0] = 99  # corrupt in place behind the CRC
        assert cache.audit() == [1]
        assert cache.negative(2)
        assert cache.get(1) is None


class TestContract:
    def test_stored_array_is_read_only_and_uncopied(self):
        cache = DistanceCache(1 << 20)
        original = arr(8, 5)
        cache.put(0, original)
        got = cache.get(0)
        assert got is original  # no copy: a hit is the solve's own output
        with pytest.raises(ValueError):
            got[0] = 99

    def test_peek_touches_nothing(self):
        cache = DistanceCache(1 << 20)
        cache.put(1, arr(4))
        cache.put(2, arr(4))
        before = (cache.stats.hits, cache.stats.misses)
        assert cache.peek(1) is not None
        assert cache.peek(99) is None
        assert (cache.stats.hits, cache.stats.misses) == before
        assert cache.roots() == [1, 2]  # LRU order unchanged

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            DistanceCache(-1)

    def test_registry_mirroring(self):
        registry = MetricsRegistry()
        cache = DistanceCache(arr(4).nbytes, registry=registry)
        cache.put(0, arr(4))
        cache.get(0)
        cache.get(1)
        cache.put(1, arr(4))  # evicts 0
        text = registry.prometheus_text()
        assert "serve_cache_hits_total 1" in text
        assert "serve_cache_misses_total 1" in text
        assert "serve_cache_evictions_total 1" in text
        assert "serve_cache_entries 1" in text
        # the registry reads the stats: later counts show at the next read
        cache.get(1)
        cache.put(2, arr(4))
        snap = registry.snapshot()
        assert snap["serve_cache_hits_total"] == cache.stats.hits == 2
        assert snap["serve_cache_evictions_total"] == cache.stats.evictions == 2
        assert snap["serve_cache_bytes"] == cache.stats.bytes_in_use
