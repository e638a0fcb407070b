"""Synthetic query workloads: arrival processes and Zipf root popularity.

Serving benchmarks need traffic that looks like traffic. This module
generates deterministic (seeded) query streams with the two standard
load-generator shapes:

- **open loop** — requests arrive on a Poisson process at ``rate_qps``
  regardless of how the service is doing; this is what exposes queueing
  collapse and shed behavior under overload;
- **closed loop** — ``concurrency`` synchronous clients each wait for
  their answer before sending the next; this is what measures sustainable
  throughput.

Root popularity is Zipf-skewed over a bounded universe of candidate
roots (``p(k) ∝ 1/k^s``): a handful of hot roots dominate — the regime
where the distance cache earns its keep — while ``zipf_s=0`` degenerates
to uniform (the cache-hostile regime). :func:`run_workload` drives a
:class:`~repro.serve.broker.QueryBroker` with a spec and returns the
merged report.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.graph.roots import choose_roots
from repro.runtime.watchdog import SolveTimeout
from repro.serve.chaos import InjectedFault
from repro.serve.request import (
    ServiceOverload,
    ServiceUnavailable,
    SolveCorrupted,
)

#: Typed terminal outcomes a resilient/chaos run produces by design; the
#: workload counts them (via the broker's outcome accounting) instead of
#: treating them as harness failures.
_EXPECTED_ERRORS = (
    ServiceOverload,
    ServiceUnavailable,
    SolveTimeout,
    SolveCorrupted,
    InjectedFault,
)

__all__ = [
    "ChurnSpec",
    "WorkloadSpec",
    "zipf_weights",
    "root_sequence",
    "interarrival_times",
    "run_workload",
]


@dataclass(frozen=True)
class ChurnSpec:
    """A seeded edge-churn stream interleaved with an open-loop workload.

    ``updates`` batches of ``churn_fraction`` edge churn (split between
    inserts, deletes and reweights per
    :func:`~repro.dynamic.updates.random_update_batch`) are applied at
    evenly spaced points of the request stream via
    :meth:`~repro.serve.broker.QueryBroker.apply_updates`. Each batch is
    drawn from ``np.random.default_rng((seed, round))`` against the
    broker's *current* snapshot, so the whole update schedule replays
    bit-identically from the spec. ``repair_hot_roots`` hot cached roots
    are carried across each snapshot by incremental repair.
    """

    updates: int = 4
    churn_fraction: float = 0.01
    repair_hot_roots: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.updates < 1:
            raise ValueError("updates must be >= 1")
        if not 0 < self.churn_fraction <= 1:
            raise ValueError("churn_fraction must be in (0, 1]")
        if self.repair_hot_roots < 0:
            raise ValueError("repair_hot_roots must be >= 0")

    def batch_for(self, graph, round_index: int):
        """The deterministic update batch of one churn round."""
        from repro.dynamic.updates import random_update_batch

        rng = np.random.default_rng((self.seed, int(round_index)))
        return random_update_batch(
            graph, rng, churn_fraction=self.churn_fraction
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """One synthetic query stream.

    ``arrival`` selects the loop shape (``"open"`` / ``"closed"``);
    ``zipf_s`` the popularity skew (0 = uniform); ``root_universe`` how
    many distinct candidate roots the stream draws from.
    """

    num_requests: int = 200
    arrival: str = "closed"
    rate_qps: float = 500.0
    concurrency: int = 4
    zipf_s: float = 1.1
    root_universe: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.arrival not in ("open", "closed"):
            raise ValueError(
                f"unknown arrival process {self.arrival!r} "
                "(expected 'open' or 'closed')"
            )
        if self.num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        if self.rate_qps <= 0:
            raise ValueError("rate_qps must be > 0")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.zipf_s < 0:
            raise ValueError("zipf_s must be >= 0")
        if self.root_universe < 1:
            raise ValueError("root_universe must be >= 1")

    def evolve(self, **changes) -> "WorkloadSpec":
        return replace(self, **changes)


def zipf_weights(k: int, s: float) -> np.ndarray:
    """Normalized Zipf probabilities ``p(rank) ∝ 1/rank^s`` for ranks 1..k."""
    ranks = np.arange(1, k + 1, dtype=np.float64)
    weights = ranks ** (-float(s))
    return weights / weights.sum()

def root_sequence(graph, spec: WorkloadSpec) -> np.ndarray:
    """The stream's root per request (``int64[num_requests]``).

    Candidates are non-isolated vertices (via
    :func:`~repro.graph.roots.choose_roots`); popularity rank is the
    candidate's position in that draw, so the same seed reproduces the
    same hot set.
    """
    universe = np.asarray(
        choose_roots(
            graph,
            min(spec.root_universe, max(int((graph.degrees > 0).sum()), 1)),
            seed=spec.seed,
        ),
        dtype=np.int64,
    )
    rng = np.random.default_rng(spec.seed + 1)
    p = zipf_weights(universe.size, spec.zipf_s)
    return rng.choice(universe, size=spec.num_requests, p=p)


def interarrival_times(spec: WorkloadSpec) -> np.ndarray:
    """Open-loop inter-arrival gaps in seconds (exponential, seeded)."""
    rng = np.random.default_rng(spec.seed + 2)
    return rng.exponential(1.0 / spec.rate_qps, size=spec.num_requests)


def run_workload(broker, spec: WorkloadSpec, churn: ChurnSpec | None = None) -> dict:
    """Drive ``broker`` with the spec's stream; returns a report row.

    The report is the broker's :meth:`~repro.serve.broker.QueryBroker.
    report` restricted to this run (delta-based counters), plus the
    workload's own offered/shed/duration accounting. Shed requests
    (:class:`ServiceOverload`) are counted, not retried — the workload
    measures the service's overload policy rather than hiding it.

    With a :class:`ChurnSpec` (open loop only), its update batches land
    at evenly spaced points of the arrival stream — the live-graph
    regime: requests admitted before an update keep their pinned
    snapshot; requests after it see the new one.
    """
    if churn is not None and spec.arrival != "open":
        raise ValueError(
            "churn interleaving requires the open-loop arrival process "
            "(a closed loop has no deterministic arrival axis to pin "
            "updates to)"
        )
    roots = root_sequence(broker.graph, spec)
    update_at: dict[int, int] = {}
    if churn is not None:
        # Round r fires just before request index (r+1) * N / (updates+1):
        # updates are interior points of the stream, never before the
        # first or after the last arrival.
        for r in range(churn.updates):
            idx = ((r + 1) * spec.num_requests) // (churn.updates + 1)
            update_at[min(idx, spec.num_requests - 1)] = r
    before = broker.report()
    t0 = time.perf_counter()
    if spec.arrival == "open":
        gaps = interarrival_times(spec)
        futures = []
        next_at = time.perf_counter()
        for i, root in enumerate(roots):
            if i in update_at and churn is not None:
                batch = churn.batch_for(
                    broker.versioner.current.graph, update_at[i]
                )
                broker.apply_updates(
                    batch, repair_hot_roots=churn.repair_hot_roots
                )
            next_at += gaps[i]
            pause = next_at - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            try:
                futures.append(broker.submit(int(root)))
            except ServiceOverload:
                pass  # counted by the broker; the stream does not retry
            if broker.manual:
                # Manual mode: interleave batch execution with arrivals.
                broker.process_once(block=False)
        broker.drain()
        for future in futures:
            try:
                future.result()
            except _EXPECTED_ERRORS:
                pass  # typed terminal outcome; counted by the broker
    else:
        # Closed loop: `concurrency` clients, each synchronous.
        chunks = np.array_split(roots, spec.concurrency)
        errors: list[BaseException] = []

        def client(chunk: np.ndarray) -> None:
            for root in chunk:
                try:
                    broker.query(int(root))
                except _EXPECTED_ERRORS:
                    pass  # typed terminal outcome; counted by the broker
                except BaseException as exc:  # surfaced after the join
                    errors.append(exc)

        if broker.manual and spec.concurrency == 1:
            client(roots)
        else:
            threads = [
                threading.Thread(target=client, args=(chunk,))
                for chunk in chunks
                if chunk.size
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        if errors:
            raise errors[0]
    wall = time.perf_counter() - t0
    after = broker.report()
    completed = after["completed"] - before["completed"]
    report = dict(after)
    report.update(
        {
            "workload": spec.arrival,
            "zipf_s": spec.zipf_s,
            "root_universe": spec.root_universe,
            "offered": spec.num_requests,
            "completed": completed,
            "shed": after["shed"] - before["shed"],
            "wall_s": wall,
            "throughput_qps": completed / wall if wall > 0 else 0.0,
        }
    )
    if churn is not None:
        report.update(
            {
                "churn_updates": after["updates"] - before["updates"],
                "churn_fraction": churn.churn_fraction,
                "repairs": after["repairs"] - before["repairs"],
                "repair_fallbacks": (
                    after["repair_fallbacks"] - before["repair_fallbacks"]
                ),
            }
        )
    return report
