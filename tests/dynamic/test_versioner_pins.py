"""Stateful property test of ``GraphVersioner`` pins against a model.

After any sequence of ``apply`` / ``pin`` / ``unpin``: the resident ids
are the newest ``retention`` ids plus every pinned id; each retired id is
reported exactly once — by the ``apply`` that pushed it out of the window
or by the ``unpin`` that released it; ``unpin`` of an unpinned id raises;
and a pinned snapshot outside the window still answers ``get``,
``digest`` and ``context_for`` (with its memoised context).
"""

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, invariant, precondition, rule,
)

from repro.core.config import preset
from repro.dynamic.updates import UpdateBatch
from repro.dynamic.versioner import GraphVersioner, structural_digest
from repro.graph.builder import from_undirected_edges
from repro.runtime.machine import MachineConfig

RETENTION = 2
GRAPH = from_undirected_edges(
    np.array([0, 1, 2]), np.array([1, 2, 3]), np.array([5, 3, 7]), 4
)
MACHINE = MachineConfig(num_ranks=2, threads_per_rank=2)


class PinMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.versioner = GraphVersioner(
            GRAPH, machine=MACHINE, config=preset("opt", 25),
            retention=RETENTION,
        )
        self.newest = 0
        self.pins: dict[int, int] = {}
        self.retired: list[int] = []
        self.contexts: dict[int, object] = {}

    def resident(self) -> list[int]:
        window = range(max(0, self.newest - RETENTION + 1), self.newest + 1)
        return sorted(set(window) | set(self.pins))

    @rule()
    def apply(self):
        snap, retired = self.versioner.apply(UpdateBatch.build())
        self.newest += 1
        assert snap.snapshot_id == self.newest
        assert retired == sorted(retired)
        self.retired += retired

    @rule(data=st.data())
    def pin(self, data):
        sid = data.draw(st.sampled_from(self.resident()))
        self.versioner.pin(sid)
        self.pins[sid] = self.pins.get(sid, 0) + 1
        # pinned: its context is memoised for as long as it is resident
        self.contexts.setdefault(sid, self.versioner.context_for(sid))

    @precondition(lambda self: self.pins)
    @rule(data=st.data())
    def unpin(self, data):
        sid = data.draw(st.sampled_from(sorted(self.pins)))
        retired = self.versioner.unpin(sid)
        self.pins[sid] -= 1
        if not self.pins[sid]:
            del self.pins[sid]
        assert retired in ([], [sid])
        self.retired += retired

    @rule(data=st.data())
    def unpin_unpinned_raises(self, data):
        sid = data.draw(st.integers(0, self.newest + 1))
        if sid not in self.pins:
            with pytest.raises(ValueError, match="not pinned"):
                self.versioner.unpin(sid)

    @rule(data=st.data())
    def pin_retired_raises(self, data):
        sid = data.draw(st.integers(0, self.newest + 1))
        if sid not in self.resident():
            with pytest.raises(KeyError):
                self.versioner.pin(sid)

    @invariant()
    def residency_matches_the_model(self):
        assert self.versioner.ids() == self.resident()
        # every id ever minted is resident or was reported retired, once
        assert sorted(self.retired + self.resident()) == list(
            range(self.newest + 1)
        )

    @invariant()
    def pinned_snapshots_stay_readable(self):
        for sid in self.pins:
            snap = self.versioner.get(sid)
            assert snap.snapshot_id == sid
            assert self.versioner.digest(sid) == structural_digest(snap.graph)
            assert self.versioner.context_for(sid) is self.contexts[sid]


PinMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestVersionerPins = PinMachine.TestCase
