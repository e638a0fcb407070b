"""Seeded traffic: root samplers and the open-loop generator.

The open loop models independent users: request ``i`` is *due* at a
precomputed time whatever the service is doing, and its latency runs from
that due time to completion, so a stall charges every request that was due
while it lasted (``repro.serve.workload.run_workload`` times from
``submit()`` and hides that wait). How late the generator itself sent each
request is reported beside the latencies; a shed request is counted, never
retried, and counts as an infinite latency.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "OpenLoopOutcome",
    "poisson_due_times",
    "run_open_loop",
    "sample_roots",
    "zipf_indices",
]


def sample_roots(graph, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` distinct non-isolated vertices (the Graph 500 key rule)."""
    candidates = np.flatnonzero(np.diff(graph.indptr) > 0)
    return rng.choice(candidates, size=min(count, candidates.size), replace=False)


def zipf_indices(
    rng: np.random.Generator, universe: int, exponent: float, count: int
) -> np.ndarray:
    """``count`` ranks in ``[0, universe)`` with P(rank k) ∝ 1/(k+1)^s."""
    p = 1.0 / np.arange(1, universe + 1, dtype=np.float64) ** exponent
    return rng.choice(universe, size=count, p=p / p.sum())


def poisson_due_times(
    rng: np.random.Generator, rate_per_s: float, count: int
) -> np.ndarray:
    """Due times (seconds from the start) of a Poisson arrival process."""
    return np.cumsum(rng.exponential(1.0 / rate_per_s, size=count))


@dataclass
class OpenLoopOutcome:
    latencies_s: list[float]
    """Completion minus due time per request; ``inf`` if shed or failed."""
    late_s: list[float]
    """Send time minus due time per request (generator lateness)."""
    shed: int = 0
    errors: int = 0
    results: dict[int, object] = field(default_factory=dict)
    """``QueryResult`` of the requests whose index was in ``keep``."""
    wall_s: float = 0.0


def run_open_loop(
    submit,
    drain,
    roots,
    due_s,
    *,
    shed_error: type[BaseException],
    keep=frozenset(),
    clock=time.perf_counter,
    sleep=time.sleep,
) -> OpenLoopOutcome:
    """Send ``roots[i]`` at ``due_s[i]`` whatever the service is doing.

    ``submit(root)`` returns a future with ``add_done_callback`` /
    ``exception()`` / ``result()``; raising ``shed_error`` means the
    request was refused at admission. ``drain()`` is called before the
    clock stops so every admitted request is accounted for.
    """
    n = len(roots)
    done_at = [math.nan] * n
    futures: list = [None] * n
    late = [0.0] * n
    shed = 0

    def on_done(index):
        def callback(_future):
            done_at[index] = clock()

        return callback

    t0 = clock()
    for i in range(n):
        due = t0 + due_s[i]
        wait = due - clock()
        if wait > 0:
            sleep(wait)
        sent = clock()
        late[i] = sent - due
        try:
            future = submit(int(roots[i]))
        except shed_error:
            shed += 1
            continue
        future.add_done_callback(on_done(i))
        futures[i] = future
    drain()
    wall = clock() - t0

    out = OpenLoopOutcome([math.inf] * n, late, shed=shed, wall_s=wall)
    for i, future in enumerate(futures):
        if future is None:
            continue
        if future.exception() is not None or math.isnan(done_at[i]):
            out.errors += 1
            continue
        out.latencies_s[i] = done_at[i] - (t0 + due_s[i])
        if i in keep:
            out.results[i] = future.result()
    return out
