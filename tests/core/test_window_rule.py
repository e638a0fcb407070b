"""The window rule exists once: ``next_step`` ≡ ``window`` over the view.

Every strategy's :meth:`~repro.core.stepping.SteppingStrategy.window` is
the pure step rule an incremental repair applies to its own region; a
solve reaches it through ``next_step`` over the view's unsettled set. On
seeded random view states — settled and unreached vertices
mixed in, every unsettled one a candidate — the two must name the same
``Step``, with tracing off or on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SolverConfig, preset
from repro.core.context import make_context
from repro.core.distances import INF
from repro.core.stepping import make_strategy
from repro.core.transport import DeclaredTransport
from repro.core.views import whole_graph_view
from repro.graph.rmat import rmat_graph
from repro.obs.tracer import TraceConfig
from repro.runtime.machine import MachineConfig

MACHINE = MachineConfig(num_ranks=4, threads_per_rank=2)

CONFIGS = {
    "delta": lambda: SolverConfig(delta=25),
    "delta-narrow": lambda: SolverConfig(delta=3),
    "radius": lambda: preset("radius"),
    "rho": lambda: SolverConfig(strategy="rho", rho=8),
}


def random_state(rng, n, settled_share):
    """Distances with unreached vertices, a random settled mask."""
    d = rng.integers(0, 400, size=n).astype(np.int64)
    d[rng.random(n) < 0.2] = INF
    return d, rng.random(n) < settled_share


def steps_of(config, graph, seed):
    """``(window(...), next_step(...))`` pairs over ten seeded states."""
    ctx = make_context(graph, MACHINE, config)
    strategy = make_strategy(config)
    strategy.prepare(ctx.graph)
    rng = np.random.default_rng(seed)
    pairs = []
    for ordinal in range(10):
        share = (1.0, 0.0, 0.5, 0.95, 0.999)[ordinal % 5]
        d, settled = random_state(rng, graph.num_vertices, share)
        ids = np.flatnonzero(~settled & (d < INF))
        want = strategy.window(d[ids], ids, ordinal)
        view = whole_graph_view(ctx, d, settled)
        got = strategy.next_step(ctx, view, DeclaredTransport(ctx.comm), ordinal)
        pairs.append((want, got))
    return pairs


@pytest.mark.parametrize("name", CONFIGS)
@pytest.mark.parametrize("seed", [3, 11])
def test_next_step_is_the_window_rule(name, seed):
    graph = rmat_graph(8, seed=seed)
    config = CONFIGS[name]()
    untraced = steps_of(config, graph, seed)
    traced = steps_of(config.evolve(trace=TraceConfig()), graph, seed)
    for want, got in untraced:
        assert want == got
    assert traced == untraced
    assert any(step is None for step, _ in untraced)
    assert any(step is not None for step, _ in untraced)


@pytest.mark.parametrize("name", CONFIGS)
def test_window_of_no_candidates_is_none(name):
    strategy = make_strategy(CONFIGS[name]())
    strategy.prepare(rmat_graph(6, seed=1))
    empty = np.empty(0, np.int64)
    assert strategy.window(empty, empty, 0) is None
