"""A terminal is one fact: everything the serving plane says about a
completed request folds from the ledger entry it appended.

``ServeAccounting.terminal`` appends ``(outcome, latency, request id,
retried_ok)`` and emits one flat wide-event record; the
outcome and ``retried_ok`` tallies, the latency window and the registry
series are folded from the ledger when something reads them. These tests
pin that every reader folds first, that folds racing appends lose or
double nothing, that a retained hit costs the garbage collector nothing,
and that the hit path's target trim keeps ``targets`` any iterable.
"""

from __future__ import annotations

import gc
import random
import sys
import threading
import time

import numpy as np
import pytest

from repro.graph.grid import grid_graph
from repro.serve.broker import QueryBroker
from repro.serve.chaos import ChaosPlan
from repro.serve.events import WideEventLog
from repro.serve.retry import RetryPolicy

HITS = 40
RETRIED_ROOT = 5


def _broker(graph=None, **kwargs) -> QueryBroker:
    return QueryBroker(
        grid_graph(4, 4) if graph is None else graph, num_ranks=2,
        threads_per_rank=2, events=WideEventLog(), **kwargs,
    )


def _served() -> QueryBroker:
    """One miss, ``HITS`` hits and one miss that succeeds on its retry —
    and nothing read since."""
    broker = _broker(
        num_workers=0,
        chaos=ChaosPlan(error_rate=1.0, roots=(RETRIED_ROOT,),
                        max_faulty_attempts=1),
        retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0),
    )
    assert broker.query(0).source == "solve"
    for _ in range(HITS):
        assert broker.query(0).source == "cache"
    assert broker.query(RETRIED_ROOT).attempts == 2
    assert len(broker._acct._ledger) == HITS + 2  # nothing folded yet
    return broker


def _newest_exemplar(broker) -> int:
    """Sequence number of the newest request the latency histogram links
    to (exemplars are last-write-wins per bucket)."""
    refs = [
        ex["ref"] for source in ("cache", "solve")
        for ex in broker.registry.exemplars(
            "serve_request_latency_seconds", source=source).values()
    ]
    return max(int(ref.split("-")[1]) for ref in refs)


def _histogram_count(broker) -> int:
    """Requests in the latency histogram of a scrape — what a
    scrape-side error-budget rule divides by."""
    snap = broker.registry.snapshot()
    return sum(v["count"] for k, v in snap.items()
               if k.startswith("serve_request_latency_seconds{"))


#: reader -> (what it reads off a fresh broker, what it must see); the
#: "recent" and "burn-rate-monitor" rows read the exemplar link and the
#: scraped histogram, which outlive the window's timestamped view
READERS = {
    "samples": (lambda b: len(b.latency.samples()), HITS + 2),
    "samples-of-a-source": (lambda b: len(b.latency.samples("cache")), HITS),
    "recent": (_newest_exemplar, HITS + 1),
    "summary": (lambda b: b.latency.summary()["requests"], HITS + 2),
    "count": (lambda b: b.latency.count, HITS + 2),
    "tally-retried-ok": (lambda b: b._acct.tally("retried_ok"), 1),
    "burn-rate-monitor": (_histogram_count, HITS + 2),
}


class TestReadersFoldFirst:
    """No ``report()``, no scrape: the first read of any kind sees every
    completion, because it folds the ledger before it looks."""

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_first_read_sees_every_completion(self, reader):
        broker = _served()
        read, expected = READERS[reader]
        assert read(broker) == expected
        assert not broker._acct._ledger
        report = broker.report()
        assert report["outcome_cache"] == HITS
        assert report["outcome_solve"] == 2
        assert report["retried_ok"] == 1
        broker.shutdown()

    def test_the_window_keeps_each_source_in_arrival_order(self):
        broker = _served()
        events = broker.events.events()  # in completion order
        for source in ("solve", "cache"):
            assert broker.latency.samples(source) == [
                e["timing"]["latency_s"] for e in events
                if e["source"] == source]
        assert broker.latency.samples() == (
            broker.latency.samples("solve") + broker.latency.samples("cache"))
        broker.shutdown()

    def test_a_scrape_folds_the_tallies_too(self):
        broker = _served()
        text = broker.registry.prometheus_text()
        assert "serve_retried_ok_total 1" in text
        assert not broker._acct._ledger
        assert broker._acct.tally("retried_ok") == 1
        assert broker.latency.count == HITS + 2
        broker.shutdown()


def test_concurrent_folds_stay_exact():
    """More client threads than cores mix hits and misses while a reader
    loops every kind of fold; afterwards every count agrees."""
    broker = _broker(grid_graph(8, 8), num_workers=2, cache_bytes=4096)
    stop_at = time.monotonic() + 2.0
    done = threading.Event()
    served = [0] * 6
    reads = [0]

    def client(k: int) -> None:
        rng = random.Random(k)
        while time.monotonic() < stop_at:
            broker.query(rng.randrange(64) if rng.random() < 0.2 else k)
            served[k] += 1

    def reader() -> None:
        while not done.is_set():
            broker.report()
            broker.latency.summary()
            broker.registry.snapshot()
            reads[0] += 1

    # daemons: a deadlock fails the asserts below instead of hanging the run
    clients = [threading.Thread(target=client, args=(k,), daemon=True)
               for k in range(6)]
    watcher = threading.Thread(target=reader, daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave appends with folds
    try:
        watcher.start()
        for t in clients:
            t.start()
        for t in clients:  # one shared minute of grace, not one per thread
            t.join(timeout=max(0.0, stop_at + 60.0 - time.monotonic()))
        done.set()
        watcher.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
        done.set()
    assert not watcher.is_alive() and not any(t.is_alive() for t in clients)
    report = broker.report()
    snapshot = broker.registry.snapshot()
    requests = sum(
        v for k, v in snapshot.items() if k.startswith("serve_requests_total{"))
    outcomes = sum(v for k, v in report.items() if k.startswith("outcome_"))
    assert report["completed"] == sum(served) == outcomes
    assert outcomes == broker.latency.count == requests == broker.events.emitted
    assert report["outcome_cache"] > 0 and report["outcome_solve"] > 0
    assert reads[0] > 2
    broker.shutdown()


def test_a_retained_hit_holds_no_tracked_object():
    """A hit's event record and its ledger fact are tuples of atoms, so
    the collector stops tracking them: a retained hit costs no GC work."""
    broker = _broker(num_workers=0)
    broker.query(0)
    broker.query(0)
    record, fact = broker.events._events[-1], broker._acct._ledger[-1]
    assert record[-6] == fact[0] == "cache"
    gc.collect()
    assert not gc.is_tracked(record)
    assert not gc.is_tracked(fact)
    assert broker.events.events()[-1]["cache_tier"] == "hit"
    broker.shutdown()


class TestHitTargets:
    """A hit skips checking an empty tuple of targets; every other form
    is still checked and answered as before."""

    T = 11

    @pytest.fixture
    def broker(self):
        broker = _broker(num_workers=0)
        yield broker
        broker.shutdown()

    def test_every_iterable_answers_alike(self, broker):
        path = broker.query(0, targets=[self.T]).paths  # the miss
        assert path[self.T][0] == 0 and path[self.T][-1] == self.T
        forms = {
            "()": ((), {}),
            "[]": ([], {}),
            "empty ndarray": (np.array([], dtype=np.int64), {}),
            "[t]": ([self.T], path),
            "(t,)": ((self.T,), path),
            "ndarray": (np.array([self.T]), path),
        }
        for name, (targets, expected) in forms.items():
            result = broker.query(0, targets=targets)
            assert result.source == "cache", name
            assert result.paths == expected, name

    @pytest.mark.parametrize("targets", [
        [1.5], (1.5,), np.array([1.5]), (16,), [-1], np.array([16]),
    ], ids=["float-list", "float-tuple", "float-ndarray", "past-n-tuple",
            "negative-list", "past-n-ndarray"])
    def test_a_bad_target_still_raises(self, broker, targets):
        broker.query(0)
        with pytest.raises(ValueError):
            broker.query(0, targets=targets)
