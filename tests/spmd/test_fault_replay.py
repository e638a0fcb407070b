"""Fault replays did not move; the view shares the graph's rows.

A fault plan draws its victims by *position* in the reliable mailbox's
wire stream and numbers records by rank within their channel, so every
seeded replay is a function of that stream's order. PR 19 replaced how the
stream is ordered (one stable sort on ``post ordinal * P + dst`` instead
of per-sender segmentation) and how arrivals are handed out (one routing
sort instead of P scans); the literals below were captured on the parent
commit ``a6ab88d`` with :func:`replay_facts` and must only be regenerated
for a change that intends to alter what a plan injects — say so in
CHANGES.md. The specs are CI's ``robustness`` matrix.
"""

from __future__ import annotations

import dataclasses
import glob
import hashlib
import os

import numpy as np
import pytest

from repro.core.config import preset
from repro.core.context import make_context
from repro.core.solver import solve_sssp
from repro.spmd.engine import build_rank_states
from repro.graph.rmat import RMAT1, rmat_graph
from repro.runtime.machine import MachineConfig
from repro.spmd import FaultPlan

MACHINE = MachineConfig(num_ranks=8, threads_per_rank=4)
ROOT = 8

CASES = [
    ("opt", "seed=3"),
    ("opt", "loss=0.05,dup=0.02,seed=3"),
    ("opt", "reorder=0.2,delay=0.05,seed=3"),
    ("opt", "loss=0.05,crash=1@4,seed=3"),
    ("opt", "stall=2@3x3,seed=3"),
    ("rho", "loss=0.05,crash=1@4,seed=3"),
]


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(scale=10, seed=7, params=RMAT1)


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:20]


def replay_facts(algorithm: str, spec: str, graph) -> dict:
    """Everything a seeded replay determines, small enough to pin."""
    result = solve_sssp(
        graph, ROOT, algorithm=algorithm, machine=MACHINE,
        faults=FaultPlan.from_spec(spec),
    )
    recovery = dataclasses.asdict(result.metrics.recovery)
    events = recovery.pop("events")
    recovery["events"] = (len(events), _digest([tuple(e) for e in events]))
    rows = [
        (
            str(r.kind), r.phase_kind, float(r.comp_max), float(r.comp_total),
            int(r.msgs_max), int(r.bytes_max), int(r.bytes_total),
            int(r.allreduces),
        )
        for r in result.metrics.records
    ]
    return {
        "distances": _digest(result.distances.astype(np.int64).tolist()),
        "records": (len(rows), _digest(rows)),
        "summary": _digest(sorted(result.metrics.summary().items())),
        "recovery": recovery,
    }


#: (algorithm, fault spec) -> replay_facts at the parent commit
EXPECTED = {('opt', 'seed=3'): {'distances': '090b1ace11d380f48656',
                     'records': (84, 'd875a61433c8e8e2f96a'),
                     'summary': 'a0421cf7790021af4a53',
                     'recovery': {'retries': 0,
                                  'retransmitted_records': 0,
                                  'retransmitted_bytes': 0,
                                  'recovery_supersteps': 0,
                                  'checkpoints_taken': 5,
                                  'rank_restarts': 0,
                                  'healing_sweeps': 0,
                                  'faults_injected': {},
                                  'events': (0, '4f53cda18c2baa0c0354')}},
 ('opt', 'loss=0.05,dup=0.02,seed=3'): {'distances': '090b1ace11d380f48656',
                                        'records': (106, '81f4f4ce82df32b723dd'),
                                        'summary': '2865e170c72dcc896536',
                                        'recovery': {'retries': 11,
                                                     'retransmitted_records': 504,
                                                     'retransmitted_bytes': 8232,
                                                     'recovery_supersteps': 11,
                                                     'checkpoints_taken': 5,
                                                     'rank_restarts': 0,
                                                     'healing_sweeps': 0,
                                                     'faults_injected': {'loss': 504,
                                                                         'duplicate': 182},
                                                     'events': (21,
                                                                'a621e4d96749539de491')}},
 ('opt', 'reorder=0.2,delay=0.05,seed=3'): {'distances': '090b1ace11d380f48656',
                                            'records': (131,
                                                        '56ede583c775ef2fe06b'),
                                            'summary': '006a74a180b243cdacfa',
                                            'recovery': {'retries': 12,
                                                         'retransmitted_records': 358,
                                                         'retransmitted_bytes': 6064,
                                                         'recovery_supersteps': 35,
                                                         'checkpoints_taken': 5,
                                                         'rank_restarts': 0,
                                                         'healing_sweeps': 0,
                                                         'faults_injected': {'delay': 531,
                                                                             'reorder': 767},
                                                         'events': (15,
                                                                    '213ba96d0c47dc3d5e6d')}},
 ('opt', 'loss=0.05,crash=1@4,seed=3'): {'distances': '090b1ace11d380f48656',
                                         'records': (162, '02789b8a3360a9379bd7'),
                                         'summary': 'c7ec6334741e66748eeb',
                                         'recovery': {'retries': 16,
                                                      'retransmitted_records': 1762,
                                                      'retransmitted_bytes': 26472,
                                                      'recovery_supersteps': 16,
                                                      'checkpoints_taken': 6,
                                                      'rank_restarts': 1,
                                                      'healing_sweeps': 1,
                                                      'faults_injected': {'loss': 1712,
                                                                          'crash': 1,
                                                                          'crash-send-loss': 43,
                                                                          'crash-recv-loss': 50},
                                                      'events': (19,
                                                                 '980f546f87223d0c9d31')}},
 ('opt', 'stall=2@3x3,seed=3'): {'distances': '090b1ace11d380f48656',
                                 'records': (88, '64d80dd1fd6cb64fbf00'),
                                 'summary': 'd884679e8b87f927301b',
                                 'recovery': {'retries': 1,
                                              'retransmitted_records': 88,
                                              'retransmitted_bytes': 1168,
                                              'recovery_supersteps': 3,
                                              'checkpoints_taken': 5,
                                              'rank_restarts': 0,
                                              'healing_sweeps': 0,
                                              'faults_injected': {'stall': 88},
                                              'events': (1,
                                                         '196e4e03afb1fd4e6fd9')}},
 ('rho', 'loss=0.05,crash=1@4,seed=3'): {'distances': '090b1ace11d380f48656',
                                         'records': (113, '4f7ec95ab827f3829c7c'),
                                         'summary': '479e635e5bcdf5c8af91',
                                         'recovery': {'retries': 13,
                                                      'retransmitted_records': 5125,
                                                      'retransmitted_bytes': 74176,
                                                      'recovery_supersteps': 13,
                                                      'checkpoints_taken': 4,
                                                      'rank_restarts': 1,
                                                      'healing_sweeps': 1,
                                                      'faults_injected': {'loss': 4099,
                                                                          'crash': 1,
                                                                          'crash-send-loss': 1194,
                                                                          'crash-recv-loss': 1026},
                                                      'events': (16,
                                                                 '5e957b3ef26a1590732d')}}}


@pytest.mark.parametrize("case", CASES, ids="|".join)
def test_replay_equals_the_parent_commit(case, graph):
    assert replay_facts(*case, graph) == EXPECTED[case]


# ----------------------------------------------------------------------
# Shared rows
# ----------------------------------------------------------------------
def test_the_rank_view_is_the_graph_rows(graph):
    """A rank is a range: the rank driver's one view *is* the graph's rows
    (every rank's slice of them at once), and owns only its state."""
    ctx = make_context(graph, MACHINE, preset("opt", 25))
    view = build_rank_states(ctx, ROOT)
    for mine, shared in [
        (view.indptr, ctx.graph.indptr), (view.adj, ctx.graph.adj),
        (view.weights, ctx.graph.weights), (view.short_offsets, ctx.short_offsets),
    ]:
        assert mine is shared
    assert view.in_rows is None  # undirected: the rows are the in-arc lists too
    for own in (view.d, view.settled, view.active):
        assert own.flags.writeable and own.base is None
        assert not any(
            np.shares_memory(own, a)
            for a in (ctx.graph.indptr, ctx.graph.adj, ctx.graph.weights)
        )
    assert view.d[ROOT] == 0 and view.active.tolist() == [ROOT]
    assert view.num_unsettled == ctx.graph.num_vertices


def test_kill_resume_under_a_crash_plan_leaves_the_rows_alone(graph, tmp_path):
    """Checkpoint, crash restore, kill and resume write ``d``/``settled``/
    ``active`` of the views and nothing they share with the graph."""
    graph = graph.sorted_by_weight()  # the object the views then slice

    def rows():
        return _digest(
            (graph.indptr.tolist(), graph.adj.tolist(), graph.weights.tolist())
        )

    before = rows()
    plan = FaultPlan.from_spec("loss=0.05,crash=1@4,seed=3")
    reference = solve_sssp(graph, ROOT, algorithm="opt", machine=MACHINE)
    full = solve_sssp(
        graph, ROOT, algorithm="opt", machine=MACHINE, faults=plan,
        checkpoint_dir=tmp_path, checkpoint_keep=100,
    )
    assert np.array_equal(full.distances, reference.distances)
    assert full.metrics.recovery.rank_restarts == 1
    files = sorted(glob.glob(str(tmp_path / "*.npz")))
    assert len(files) >= 2
    for stale in files[1:]:  # the process died before writing these
        os.unlink(stale)
    resumed = solve_sssp(
        graph, ROOT, algorithm="opt", machine=MACHINE, faults=plan,
        checkpoint_dir=tmp_path, resume=True, validate=True,
    )
    assert np.array_equal(resumed.distances, reference.distances)
    assert rows() == before
