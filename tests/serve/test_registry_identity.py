"""Registry identity: what the serving plane's metrics say, values included.

``test_event_identity.py`` pins the exposition's series, label sets and
``# HELP``/``# TYPE`` lines but not one sample value. This file pins the
values: the full :meth:`~repro.obs.registry.MetricsRegistry.snapshot` —
every counter and gauge, every histogram's buckets, ``sum``, ``count``
and per-bucket exemplars — after each of that file's three seeded
journeys (imported from it, never copied). So a change to *who counts and
when* — terminal accounting appending facts that a collector folds at
read time, the cache's hit/miss mirrors folded from its stats — must
leave every number, the float ``_sum`` and the last-write-wins exemplar
of each bucket bit for bit where the eager path put them.

Wall time is taken out by a stepping clock in place of the service
tracer's ``wall_now`` (the broker's clock whenever a tracer is armed, as
in all three journeys): call ``k`` advances it by ``1e-6 * 3.1 ** (k % 9)``
seconds, so latencies spread over six histogram buckets and are a pure
function of the broker's sequence of clock reads. That sequence is part
of what is pinned.

The digests below are literals. This file first produced them on commit
``444e16f`` — the last one where ``ServeAccounting.terminal`` called
``registry.inc``/``registry.observe`` once per request and
``DistanceCache.get`` mirrored every hit and miss into the registry. They
were regenerated on commit ``0e795d5``, which dropped the terminal's dead
clock read: only the stepping-clock latencies moved. They must only ever
be regenerated for a change that intends to alter what the service
reports; say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import threading

import pytest

import tests.serve.test_event_identity as journeys
from repro.graph.grid import grid_graph
from repro.obs.tracer import Tracer
from repro.serve import accounting
from repro.serve.broker import QueryBroker
from repro.serve.events import WideEventLog

#: journey -> (series in the snapshot, SHA-256 prefix of its JSON)
EXPECTED = {
    "chaos-bounded": (30, "1c46357510b48b7f5abd"),
    "chaos-refused": (30, "b16e87f23f5b94f703d3"),
    "live": (18, "f6a04d461991f1a38366"),
}


def _stepping_wall_now(self) -> float:
    k = getattr(self, "_steps", 0)
    self._steps = k + 1
    self._now = getattr(self, "_now", 0.0) + 1e-6 * 3.1 ** (k % 9)
    return self._now


def _digest(snapshot: dict) -> tuple[int, str]:
    text = json.dumps(snapshot, sort_keys=True)
    return len(snapshot), hashlib.sha256(text.encode()).hexdigest()[:20]


def _journey_snapshots(graph) -> dict[str, dict]:
    """Each journey's ``registry.snapshot()``, taken where the journey
    takes its fingerprint, under the stepping clock."""
    fingerprint = journeys._fingerprint

    def with_registry(broker):
        return {**fingerprint(broker), "registry": broker.registry.snapshot()}

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Tracer, "wall_now", _stepping_wall_now)
        mp.setattr(journeys, "_fingerprint", with_registry)
        return {
            name: run(graph)["registry"]
            for name, run in journeys.JOURNEYS.items()
        }


@pytest.fixture(scope="module")
def snapshots(rmat1_small):
    return _journey_snapshots(rmat1_small)


@pytest.mark.parametrize("journey", sorted(EXPECTED))
def test_snapshot_matches_the_pinned_literal(snapshots, journey):
    assert _digest(snapshots[journey]) == EXPECTED[journey]


def test_snapshots_hold_values_worth_pinning(snapshots):
    """Latencies span several buckets and carry exemplars, and the
    folded cache mirrors are present: the digests pin real numbers."""
    for snap in snapshots.values():
        latency = {
            k: v for k, v in snap.items()
            if k.startswith("serve_request_latency_seconds")
        }
        assert latency and all(h["exemplars"] for h in latency.values())
        counts = {c for h in latency.values() for c in h["buckets"].values()}
        assert len(counts) > 3
        assert snap["serve_cache_hits_total"] > 0
        assert snap["serve_cache_misses_total"] > 0


def _samples(text: str, name: str) -> dict[str, float]:
    """``{labels: value}`` of one sample name in an exposition."""
    return {
        m.group(1) or "": float(m.group(2))
        for m in re.finditer(rf"^{name}(\{{.*\}})? (\S+)$", text, re.M)
    }


def _hit_broker(**kwargs) -> QueryBroker:
    broker = QueryBroker(
        grid_graph(4, 4), num_ranks=2, threads_per_rank=2,
        events=WideEventLog(capacity=16), **kwargs,
    )
    broker.query(0)  # the one miss; every later query of 0 is a hit
    return broker


def test_an_unread_ledger_stays_bounded():
    """10**5 hits and nobody reads the registry: ``terminal`` folds the
    ledger itself whenever it reaches :data:`~repro.serve.accounting.FOLD_AT`
    facts, so at most that many are ever pending."""
    broker = _hit_broker(num_workers=0)
    ledger = broker._acct._ledger
    peak = 0
    for i in range(10**5):
        broker.query(0)
        if i % 997 == 0:
            peak = max(peak, len(ledger))
    assert peak < accounting.FOLD_AT and len(ledger) < accounting.FOLD_AT
    text = broker.registry.prometheus_text()
    assert not ledger
    assert _samples(text, "serve_requests_total") == {
        '{outcome="cache"}': 10**5, '{outcome="solve"}': 1}
    assert _samples(text, "serve_cache_hits_total") == {"": 10**5}
    broker.shutdown()


def test_concurrent_hits_and_scrapes_agree():
    """Four submitters of hits while a fifth thread scrapes: every
    scrape is one cut — the request counter and the latency histogram
    count the same requests — and the last one counts every completion."""
    broker = _hit_broker()
    done = threading.Event()
    scrapes: list[str] = []

    def submitter() -> None:
        for _ in range(3000):
            assert broker.query(0).source == "cache"

    def scraper() -> None:
        while not done.is_set():
            scrapes.append(broker.registry.prometheus_text())

    submitters = [threading.Thread(target=submitter) for _ in range(4)]
    reader = threading.Thread(target=scraper)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave appends, folds and cuts
    try:
        reader.start()
        for t in submitters:
            t.start()
        for t in submitters:
            t.join(timeout=120)
        done.set()
        reader.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not reader.is_alive() and not any(t.is_alive() for t in submitters)
    scrapes.append(broker.registry.prometheus_text())
    for text in scrapes:
        requests = _samples(text, "serve_requests_total")
        counts = _samples(text, "serve_request_latency_seconds_count")
        assert sum(requests.values()) == sum(counts.values())
        infs = {
            k.replace('le="+Inf",', ""): v for k, v in _samples(
                text, "serve_request_latency_seconds_bucket").items()
            if 'le="+Inf"' in k
        }
        assert infs == counts
    assert len(scrapes) > 2
    assert sum(requests.values()) == broker.report()["completed"] == 12001
    broker.shutdown()


if __name__ == "__main__":  # regenerate: PYTHONPATH=src python -m tests.serve.test_registry_identity
    from repro.graph.rmat import RMAT1, rmat_graph

    graph = rmat_graph(scale=9, seed=42, params=RMAT1)
    for name, snap in _journey_snapshots(graph).items():
        print(f"    {name!r}: {_digest(snap)!r},")
