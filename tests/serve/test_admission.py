"""A submit that loses the race with shutdown leaves nothing behind.

``submit`` checks ``closed`` unlocked, counts the request and pins its
snapshot, and only then reaches the batcher — which a concurrent
``shutdown`` may have closed in between. Whatever ``put`` raises, the
count and the pin must be given back, or ``drain`` waits forever for a
request that was never queued.
"""

import threading

import pytest

from repro.serve.broker import QueryBroker
from repro.serve.events import WideEventLog
from repro.serve.request import ServiceOverload, ServiceShutdown
from repro.serve.retry import RetryPolicy


def test_put_on_a_closed_batcher_releases_count_and_pin(path_graph):
    events = WideEventLog()
    broker = QueryBroker(path_graph, num_workers=0, cache_bytes=0,
                         num_ranks=2, threads_per_rank=2, events=events)
    broker.query(1)
    admission = broker._admission
    put = admission.put

    def racing_put(request):
        admission.close()  # what a racing shutdown does after the check
        return put(request)

    admission.put = racing_put
    with pytest.raises(ServiceShutdown):
        broker.submit(0)
    assert broker.drain(timeout=0.2)
    # only the serving pointer's pin is left, and nothing was offered,
    # shed or said about a request that was never admitted
    assert broker.versioner.unpin(0) == [] and 0 in broker.versioner
    with pytest.raises(ValueError, match="not pinned"):
        broker.versioner.unpin(0)
    broker.versioner.pin(0)
    report = broker.report()
    assert (report["offered"], report["completed"], report["shed"]) == (1, 1, 0)
    assert events.emitted == 1
    broker.shutdown()


def test_submitters_racing_a_draining_shutdown(path_graph):
    """8 submitters against ``shutdown(drain=True)`` on a broker with a
    retry policy (whose workers only exit once nothing is unresolved):
    shutdown returns, and every future a submit returned is resolved."""
    for round_ in range(50):
        broker = QueryBroker(
            path_graph, num_workers=2, cache_bytes=0,
            num_ranks=2, threads_per_rank=2,
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
        )
        futures, lock = [], threading.Lock()
        start = threading.Barrier(9)

        def submitter(seed: int) -> None:
            start.wait()
            for i in range(40):
                try:
                    future = broker.submit((seed + i) % 5)
                except ServiceOverload:
                    continue
                except ServiceShutdown:
                    return
                with lock:
                    futures.append(future)

        threads = [threading.Thread(target=submitter, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        start.wait()
        stopper = threading.Thread(target=broker.shutdown)
        stopper.start()
        stopper.join(timeout=30.0)
        assert not stopper.is_alive(), f"shutdown hung in round {round_}"
        for t in threads:
            t.join(timeout=30.0)
        assert all(f.done() for f in futures)
        report = broker.report()
        assert report["completed"] == len(futures)
        assert report["offered"] == report["completed"] + report["shed"]
