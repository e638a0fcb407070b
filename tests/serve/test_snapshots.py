"""Snapshot residency (``serve/snapshots.py``): what the serving plane
keeps per snapshot goes when the snapshot does."""

import gc
import weakref

import pytest

from repro.graph.roots import choose_root
from tests.serve.test_live import churn, manual_broker


def test_solver_retires_with_its_snapshot(rmat1_small):
    """A snapshot's solver goes when the snapshot does, on both
    retire paths: the update that pushes it out of the window, and
    the last unpin of one that aged out while a request held it."""
    broker = manual_broker(rmat1_small, snapshot_retention=2, cache_bytes=0)
    broker.apply_updates(churn(rmat1_small, 25))
    root = int(choose_root(rmat1_small, seed=4))
    broker.query(root)  # a miss on snapshot 1: builds its solver
    solver1 = weakref.ref(broker._snapshots.solver(1))
    broker.apply_updates(churn(broker.graph, 26))
    assert solver1() is not None  # still inside the window
    report = broker.apply_updates(churn(broker.graph, 27))
    assert report["retired"] == [1]
    gc.collect()
    assert solver1() is None
    with pytest.raises(KeyError):
        broker._snapshots.solver(1)

    fut = broker.submit(root)  # pins snapshot 3
    solver3 = weakref.ref(broker._snapshots.solver(3))
    for seed in (28, 29):
        broker.apply_updates(churn(broker.graph, seed))
    assert broker.versioner.ids() == [3, 4, 5]  # 3: aged out, pinned
    assert solver3() is broker._snapshots.solver(3)
    broker.drain()
    assert fut.result().snapshot_id == 3
    assert broker.versioner.ids() == [4, 5]  # the last unpin retired it
    gc.collect()
    assert solver3() is None
    broker.shutdown()
