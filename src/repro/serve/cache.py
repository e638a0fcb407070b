"""Byte-budgeted distance cache with cost-aware eviction (DESIGN.md §11/§12).

One :class:`DistanceCache` serves one (graph, config, machine) triple —
the broker owns exactly one. On a frozen graph the key is simply the
root; a live-graph broker (DESIGN.md §15) keys entries by
``(snapshot_id, root)`` tuples so answers computed against different
graph versions can never alias — :meth:`evict_snapshot` sweeps every
entry (and negative tombstone) of a retired snapshot in one call. Both
key shapes go through one normaliser, so a frozen-graph broker keeps the
plain-int keys unchanged. Values are full distance arrays, stored
read-only so a hit can hand back the cached array itself without a copy:
hits are **bit-identical** to a fresh solve because the cached array
*was* a fresh solve's output, and solves are deterministic. A miss
degrades to an exact solve — the cache can only ever make a query
faster, never different.

Eviction runs under a byte budget (``distances.nbytes`` per entry) and is
**cost-aware**: among the ``evict_scan`` least-recently-used entries, the
one whose solve was cheapest (recorded wall-time ``cost_s``) goes first —
cheap-to-recompute answers are the ones worth dropping. With no recorded
costs this degrades to plain LRU. An entry larger than the whole budget
is rejected outright (counted in ``stats.rejected``) instead of evicting
everything for a value that cannot fit.

Resilience hardening (DESIGN.md §12): with ``checksum=True`` every entry
carries a CRC-32 of its bytes; when ``verify_get`` is on (the broker
raises it while the circuit breaker is degraded) reads re-verify and
**quarantine** corrupted entries — drop them and count a miss rather than
serve bad bytes. ``negative_ttl_s > 0`` enables TTL'd *negative caching*
of timed-out roots, so a root known to blow its deadline fails fast
instead of burning another solve.

All operations are thread-safe; stats mirror into an optional
:class:`~repro.obs.registry.MetricsRegistry` — hits and misses, the
per-read counts, as a registry collector that publishes what
:class:`CacheStats` counted since the last read, so :meth:`DistanceCache.get`
makes no registry call.
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial

import numpy as np

__all__ = ["CacheStats", "DistanceCache"]


@dataclass
class CacheStats:
    """Hit/miss/eviction counters plus the live byte footprint."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    rejected: int = 0
    quarantined: int = 0
    negative_hits: int = 0
    bytes_in_use: int = 0
    byte_budget: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_row(self) -> dict[str, int | float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "rejected": self.rejected,
            "quarantined": self.quarantined,
            "negative_hits": self.negative_hits,
            "bytes_in_use": self.bytes_in_use,
            "byte_budget": self.byte_budget,
        }


@dataclass
class _Entry:
    distances: np.ndarray
    nbytes: int = field(default=0)
    cost_s: float = 0.0
    crc: int | None = None


def _crc(distances: np.ndarray) -> int:
    # over the array's own buffer: the CRC of its bytes, without a copy
    return zlib.crc32(np.ascontiguousarray(distances))


def _key(root) -> int | tuple:
    """Normalise a cache key: plain roots to ``int``, ``(snapshot_id,
    root)`` tuples to a tuple of ints. Hashable, no aliasing between the
    two shapes."""
    if isinstance(root, tuple):
        return tuple(map(int, root))
    return int(root)


def _publish_reads(stats: CacheStats, published: dict, registry) -> None:
    """Collector: publish the hits and misses ``stats`` counted since the
    last read. It reads them without the cache lock — the registry lock
    is held, and cache writers take the two in the other order."""
    for name, done in published.items():
        delta = getattr(stats, name) - done
        if delta:
            published[name] = done + delta
            registry.inc(f"serve_cache_{name}_total", delta)


class DistanceCache:
    """Root → distance-array cache under a byte budget.

    ``byte_budget=0`` disables storage entirely (every ``put`` is
    rejected, every ``get`` misses) — the broker uses that to run a
    cache-less baseline through the identical code path.
    """

    def __init__(
        self,
        byte_budget: int,
        *,
        registry=None,
        checksum: bool = False,
        negative_ttl_s: float = 0.0,
        max_negative: int = 4096,
        clock=time.monotonic,
        evict_scan: int = 8,
    ) -> None:
        if byte_budget < 0:
            raise ValueError("byte_budget must be >= 0")
        if negative_ttl_s < 0:
            raise ValueError("negative_ttl_s must be >= 0")
        if max_negative < 1:
            raise ValueError("max_negative must be >= 1")
        if evict_scan < 1:
            raise ValueError("evict_scan must be >= 1")
        self.byte_budget = int(byte_budget)
        self.checksum = bool(checksum)
        self.negative_ttl_s = float(negative_ttl_s)
        self.max_negative = int(max_negative)
        self.evict_scan = int(evict_scan)
        self.clock = clock
        #: when True (and ``checksum`` is on), every read re-verifies the
        #: entry's CRC; the broker toggles this from the breaker state.
        self.verify_get = False
        self.stats = CacheStats(byte_budget=self.byte_budget)
        self.registry = registry
        if registry is not None:
            registry.add_collector(
                partial(_publish_reads, self.stats, {"hits": 0, "misses": 0}))
        self._entries: "OrderedDict[int | tuple, _Entry]" = OrderedDict()
        self._negative: dict[int | tuple, float] = {}  # key -> expiry time
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, root) -> bool:
        with self._lock:
            return _key(root) in self._entries

    def roots(self) -> list:
        """Cached keys (roots or ``(snapshot_id, root)`` tuples),
        least- to most-recently used."""
        with self._lock:
            return list(self._entries)

    # ------------------------------------------------------------------
    def _verify_locked(self, root: int, entry: _Entry) -> bool:
        """True when the entry's bytes still match its CRC (or checking
        is off); quarantines and drops the entry otherwise."""
        if not (self.checksum and self.verify_get) or entry.crc is None:
            return True
        if _crc(entry.distances) == entry.crc:
            return True
        del self._entries[root]
        self.stats.bytes_in_use -= entry.nbytes
        self.stats.quarantined += 1
        self._mirror("serve_cache_quarantined_total", 1)
        self._gauge()
        return False

    def get(self, root: int) -> np.ndarray | None:
        """The cached distance array for ``root`` (read-only), or None.

        A hit refreshes the entry's LRU position. Misses and hits are
        both counted — the hit rate is the headline cache metric. A
        checksum mismatch under ``verify_get`` quarantines the entry and
        counts a miss.
        """
        root = _key(root)
        with self._lock:
            entry = self._entries.get(root)
            if entry is None or not self._verify_locked(root, entry):
                self.stats.misses += 1
                return None
            self._entries.move_to_end(root)
            self.stats.hits += 1
            return entry.distances

    def peek(self, root: int) -> np.ndarray | None:
        """Like :meth:`get` but touches neither stats nor LRU order
        (quarantine still applies under ``verify_get``)."""
        root = _key(root)
        with self._lock:
            entry = self._entries.get(root)
            if entry is None or not self._verify_locked(root, entry):
                return None
            return entry.distances

    def _pick_victim(self) -> int:
        """Root to evict: the cheapest-to-recompute entry among the
        ``evict_scan`` least-recently-used ones (lock held, non-empty).
        ``min`` is stable, so equal costs fall back to pure LRU."""
        window = []
        for root, entry in self._entries.items():
            window.append((root, entry.cost_s))
            if len(window) >= self.evict_scan:
                break
        return min(window, key=lambda item: item[1])[0]

    def put(self, root: int, distances: np.ndarray, cost_s: float = 0.0) -> bool:
        """Insert ``root``'s distances; returns False when rejected.

        The array is stored as a read-only view (no copy) so the caller
        must not mutate it afterwards — the broker hands out the same
        array to result futures, which makes hits bit-identical by
        construction. ``cost_s`` records the solve wall-time that
        produced the entry and drives cost-aware eviction. Evicts until
        the budget holds.
        """
        root = _key(root)
        distances = np.asarray(distances)
        distances.setflags(write=False)
        nbytes = int(distances.nbytes)
        crc = _crc(distances) if self.checksum else None
        with self._lock:
            if nbytes > self.byte_budget:
                self.stats.rejected += 1
                self._mirror("serve_cache_rejected_total", 1)
                return False
            old = self._entries.pop(root, None)
            if old is not None:
                self.stats.bytes_in_use -= old.nbytes
            while (
                self._entries
                and self.stats.bytes_in_use + nbytes > self.byte_budget
            ):
                victim = self._entries.pop(self._pick_victim())
                self.stats.bytes_in_use -= victim.nbytes
                self.stats.evictions += 1
                self._mirror("serve_cache_evictions_total", 1)
            self._entries[root] = _Entry(distances, nbytes, float(cost_s), crc)
            self.stats.bytes_in_use += nbytes
            self.stats.insertions += 1
            self._negative.pop(root, None)  # a fresh answer clears the tombstone
            if self._negative:
                # Reap *other* roots' expired tombstones too — without
                # this, entries for roots never probed again would
                # accumulate forever (each root's tombstone used to be
                # dropped only when that exact root was re-probed).
                self._sweep_negative_locked(self.clock())
            self._gauge()
            return True

    def audit(self) -> list[int]:
        """Verify every entry's CRC (regardless of ``verify_get``);
        quarantine and return the roots that failed. No-op without
        ``checksum``."""
        if not self.checksum:
            return []
        bad: list[int] = []
        with self._lock:
            for root in list(self._entries):
                entry = self._entries[root]
                if entry.crc is not None and _crc(entry.distances) != entry.crc:
                    del self._entries[root]
                    self.stats.bytes_in_use -= entry.nbytes
                    self.stats.quarantined += 1
                    self._mirror("serve_cache_quarantined_total", 1)
                    bad.append(root)
            if bad:
                self._gauge()
        return bad

    # ------------------------------------------------------------------
    def _sweep_negative_locked(self, now: float) -> None:
        """Drop expired tombstones (lock held). Cost is bounded by
        ``max_negative``, which caps the map size."""
        expired = [r for r, expiry in self._negative.items() if now >= expiry]
        for r in expired:
            del self._negative[r]

    def note_timeout(self, root: int) -> None:
        """Record ``root`` as recently timed out (negative cache).

        For ``negative_ttl_s`` seconds, :meth:`negative` reports True and
        the broker fails matching requests fast instead of re-burning a
        solve. Expired tombstones of *other* roots are reaped here, and
        the map is capped at ``max_negative`` entries (soonest-to-expire
        evicted first), so a workload touching many distinct timed-out
        roots once cannot grow the map without bound. No-op when
        negative caching is disabled."""
        if self.negative_ttl_s <= 0:
            return
        with self._lock:
            now = self.clock()
            self._sweep_negative_locked(now)
            self._negative[_key(root)] = now + self.negative_ttl_s
            while len(self._negative) > self.max_negative:
                soonest = min(self._negative, key=self._negative.__getitem__)
                del self._negative[soonest]

    def negative(self, root: int, *, count: int = 0) -> bool:
        """Whether ``root`` is under a live negative-cache tombstone.

        A bare probe is a *peek*: it touches no stats, so drain paths and
        repeated checks cannot inflate the negative-hit counters. When
        the caller actually sheds work on a live tombstone it passes
        ``count`` — the number of requests failed fast — and the stats
        (and the mirrored ``serve_cache_negative_hits_total``) advance by
        exactly that, i.e. once per shed request."""
        if self.negative_ttl_s <= 0:
            return False
        root = _key(root)
        with self._lock:
            expiry = self._negative.get(root)
            if expiry is None:
                return False
            if self.clock() >= expiry:
                del self._negative[root]
                return False
            if count > 0:
                self.stats.negative_hits += count
                self._mirror("serve_cache_negative_hits_total", count)
            return True

    def negative_size(self) -> int:
        """Live tombstone-map entry count (expired entries included
        until the next sweep)."""
        with self._lock:
            return len(self._negative)

    def evict_snapshot(self, snapshot_id: int) -> int:
        """Drop every entry and negative tombstone keyed on ``snapshot_id``.

        Applies to tuple-keyed ``(snapshot_id, root)`` entries only —
        plain-int keys (frozen-graph brokers) are untouched. Returns the
        number of distance entries dropped; drops count as evictions
        (the entries were retired by policy, not corrupted)."""
        sid = int(snapshot_id)
        dropped = 0
        with self._lock:
            stale = [
                key
                for key in self._entries
                if isinstance(key, tuple) and key[0] == sid
            ]
            for key in stale:
                entry = self._entries.pop(key)
                self.stats.bytes_in_use -= entry.nbytes
                self.stats.evictions += 1
                dropped += 1
            if dropped:
                self._mirror("serve_cache_evictions_total", dropped)
            for key in [
                key
                for key in self._negative
                if isinstance(key, tuple) and key[0] == sid
            ]:
                del self._negative[key]
            if dropped:
                self._gauge()
        return dropped

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._negative.clear()
            self.stats.bytes_in_use = 0
            self._gauge()

    # ------------------------------------------------------------------
    def _mirror(self, name: str, value: float) -> None:
        if self.registry is not None:
            self.registry.inc(name, value)

    def _gauge(self) -> None:
        if self.registry is not None:
            self.registry.set_gauge(
                "serve_cache_bytes",
                self.stats.bytes_in_use,
                help="live byte footprint of the distance cache",
            )
            self.registry.set_gauge(
                "serve_cache_entries",
                len(self._entries),
                help="live entry count of the distance cache",
            )
