"""Solver configuration and the paper's named algorithm presets.

The paper evaluates a family of algorithms that all share the Δ-stepping
skeleton and differ in which optimisations are enabled:

========== =====================================================
Name        Composition (Section IV-C)
========== =====================================================
Dijkstra    Δ-stepping with Δ = 1 (Dial's variant)
Bell-Ford   Δ-stepping with Δ = ∞ (one bucket)
Del-Δ       Δ-stepping + short/long edge classification
Prune-Δ     Del-Δ + IOS + pruning (push/pull long phases)
OPT-Δ       Prune-Δ + hybridization (τ = 0.4)
LB-OPT-Δ    OPT-Δ + intra-node thread balancing (+ vertex split)
========== =====================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.tracer import TraceConfig

from repro.util.ints import check_count

__all__ = [
    "SolverConfig",
    "preset",
    "PRESETS",
    "DELTA_FREE_PRESETS",
    "DELTA_INFINITY",
]

DELTA_INFINITY: int = 2**60
"""A Δ larger than any achievable distance: one bucket = Bellman-Ford."""


@dataclass(frozen=True)
class SolverConfig:
    """Tunable knobs of the Δ-stepping family.

    Attributes
    ----------
    strategy:
        Stepping strategy (see :mod:`repro.core.stepping`): ``"delta"``
        — the paper's fixed-width buckets (default); ``"radius"`` —
        radius stepping with per-vertex window widths (arXiv
        1602.03881); ``"rho"`` — ρ-stepping's lazy-batched priority
        queue (arXiv 2105.06145). The Δ-specific optimisations
        (``use_ios``, ``use_pruning``, ``collect_census``) require
        ``"delta"``; hybridization composes with every strategy.
    delta:
        Bucket width Δ (``strategy="delta"``). ``1`` is Dijkstra/Dial;
        :data:`DELTA_INFINITY` degenerates to Bellman-Ford.
    rho:
        Extraction batch bound for ``strategy="rho"``: each step settles
        at least the ρ closest unsettled vertices.
    radius_k:
        Radius order for ``strategy="radius"``: a vertex's radius is its
        ``radius_k``-th smallest incident edge weight.
    use_ios:
        Enable the inner/outer-short heuristic (Section III-A): during
        short phases relax only edges whose proposed distance lands inside
        the current bucket; relax outer short edges in the long phase.
    use_pruning:
        Enable pull-model long phases with the push/pull decision
        (Section III-B/III-C). Without it long phases always push.
    pushpull_mode:
        ``"auto"`` — the decision heuristic picks per bucket;
        ``"push"`` / ``"pull"`` — force one model;
        ``"sequence"`` — follow :attr:`pushpull_sequence` (oracle replay).
    pushpull_sequence:
        Explicit per-bucket choices for ``mode="sequence"``; buckets beyond
        the sequence end fall back to the heuristic.
    pushpull_estimator:
        ``"expectation"`` — the paper's cheap volume heuristic;
        ``"histogram"`` — the paper's suggested alternative: approximate
        per-vertex request counts from precomputed weight histograms
        instead of assuming the uniform distribution;
        ``"exact"`` — price both models with the cost model on
        materialised record sets (per-bucket optimal; see Section IV-G).
    partition:
        ``"block"`` — the paper's equal-vertex-count distribution;
        ``"degree"`` — contiguous blocks balanced by aggregate degree
        (ablation of the Section III-E load-imbalance observation).
    imbalance_weight:
        Weight of the max-per-rank term in the push/pull cost estimate (the
        paper's fine-tuning that accounts for request imbalance; 0 recovers
        the pure volume heuristic).
    use_hybrid:
        Switch to Bellman-Ford once the settled fraction exceeds ``tau``
        (Section III-D).
    tau:
        Hybrid switch threshold (paper: 0.4).
    intra_lb:
        Spread edge work of heavy vertices (degree > ``heavy_degree``)
        across the owning rank's threads (Section III-E).
    heavy_degree:
        Intra-node heaviness threshold π; ``None`` derives
        ``4 * mean_degree`` at solve time.
    inter_split:
        Split extreme-degree vertices (degree > ``split_degree``) into
        proxies distributed across ranks (Section III-E).
    split_degree:
        Inter-node split threshold π′; ``None`` derives
        ``max(64, 16 * mean_degree)`` at solve time.
    """

    strategy: str = "delta"
    delta: int = 25
    rho: int = 1024
    radius_k: int = 2
    use_ios: bool = False
    use_pruning: bool = False
    pushpull_mode: str = "auto"
    pushpull_sequence: tuple[str, ...] = ()
    pushpull_estimator: str = "expectation"
    imbalance_weight: float = 1.0
    use_hybrid: bool = False
    tau: float = 0.4
    intra_lb: bool = False
    heavy_degree: int | None = None
    inter_split: bool = False
    split_degree: int | None = None
    partition: str = "block"
    histogram_bins: int = 16
    collect_census: bool = False
    """Collect the exact per-bucket self/backward/forward edge census and
    pull request/response counts of Fig. 7 (costs one extra adjacency sweep
    per bucket; off by default)."""
    paranoid: bool = False
    """Enable runtime invariant guards (:mod:`repro.runtime.guards`):
    per-superstep checks of bucket monotonicity, settled finality, IOS edge
    conservation and recovery-traffic separation. Off by default; every
    engine hook site is gated on the guards object, so a non-paranoid run
    executes no extra work and charges no extra accounting."""
    trace: "TraceConfig | None" = None
    """Optional telemetry configuration (:mod:`repro.obs`). ``None`` (the
    default) means no tracer exists and no hook executes — distances,
    metrics and simulated cost are bit-identical to an uninstrumented run,
    the same pay-for-use discipline as :attr:`paranoid`."""

    def __post_init__(self) -> None:
        if self.strategy not in ("delta", "radius", "rho"):
            raise ValueError(
                f"unknown stepping strategy {self.strategy!r} "
                "(expected 'delta', 'radius' or 'rho')"
            )
        # Integers, not merely numbers: a float Δ keys buckets off float
        # distances and settles vertices early (wrong distances, no error).
        for name in ("delta", "rho", "radius_k", "histogram_bins"):
            check_count(name, getattr(self, name))
        for name in ("heavy_degree", "split_degree"):
            if getattr(self, name) is not None:
                check_count(name, getattr(self, name))
        if self.strategy != "delta":
            # The IOS/pruning/census maths is Δ-bucket-specific: it
            # partitions edges against the fixed bucket width, which the
            # windowed strategies do not have.
            forbidden = [
                name
                for name, on in (
                    ("use_ios", self.use_ios),
                    ("use_pruning", self.use_pruning),
                    ("collect_census", self.collect_census),
                )
                if on
            ]
            if forbidden:
                raise ValueError(
                    f"{', '.join(forbidden)} require strategy='delta' "
                    f"(got strategy={self.strategy!r})"
                )
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")
        if self.pushpull_mode not in ("auto", "push", "pull", "sequence"):
            raise ValueError(f"unknown pushpull_mode {self.pushpull_mode!r}")
        if any(c not in ("push", "pull") for c in self.pushpull_sequence):
            raise ValueError("pushpull_sequence entries must be 'push' or 'pull'")
        if self.pushpull_estimator not in ("expectation", "histogram", "exact"):
            raise ValueError(
                f"unknown pushpull_estimator {self.pushpull_estimator!r}"
            )
        if self.partition not in ("block", "degree"):
            raise ValueError(f"unknown partition strategy {self.partition!r}")
        # Not ``< 0``: a NaN weight passes that, reads every push/pull
        # estimate as NaN and silently sends every ``auto`` bucket to pull.
        if not self.imbalance_weight >= 0:
            raise ValueError(
                f"imbalance_weight must be non-negative, got {self.imbalance_weight}"
            )

    @property
    def is_bellman_ford(self) -> bool:
        """True when Δ is effectively infinite (delta strategy only)."""
        return self.strategy == "delta" and self.delta >= DELTA_INFINITY

    @property
    def classification_width(self) -> int:
        """Short-edge weight threshold for the preprocessing tables.

        Δ for the delta strategy; effectively infinite for the windowed
        strategies (every edge is short — they relax all edges eagerly
        in short phases and run no long phase).
        """
        if self.strategy == "delta":
            return self.delta
        return DELTA_INFINITY

    def derived_heavy_degree(self, mean_degree: float) -> int:
        """Resolve π, defaulting to four times the mean degree."""
        if self.heavy_degree is not None:
            return self.heavy_degree
        return max(8, int(math.ceil(4 * mean_degree)))

    def derived_split_degree(self, mean_degree: float) -> int:
        """Resolve π′, defaulting to sixteen times the mean degree."""
        if self.split_degree is not None:
            return self.split_degree
        return max(64, int(math.ceil(16 * mean_degree)))

    def evolve(self, **changes) -> "SolverConfig":
        """Copy with the given fields replaced."""
        return replace(self, **changes)


def _dijkstra(delta: int) -> SolverConfig:
    return SolverConfig(delta=1)


def _bellman_ford(delta: int) -> SolverConfig:
    return SolverConfig(delta=DELTA_INFINITY)


def _del(delta: int) -> SolverConfig:
    return SolverConfig(delta=delta)


def _prune(delta: int) -> SolverConfig:
    return SolverConfig(delta=delta, use_ios=True, use_pruning=True)


def _opt(delta: int) -> SolverConfig:
    return SolverConfig(
        delta=delta, use_ios=True, use_pruning=True, use_hybrid=True
    )


def _lb_opt(delta: int) -> SolverConfig:
    return SolverConfig(
        delta=delta,
        use_ios=True,
        use_pruning=True,
        use_hybrid=True,
        intra_lb=True,
    )


def _lb_opt_split(delta: int) -> SolverConfig:
    return _lb_opt(delta).evolve(inter_split=True)


def _radius(delta: int) -> SolverConfig:
    # Δ is irrelevant to the windowed strategies; the argument is
    # accepted (and ignored) so every preset factory has one shape.
    return SolverConfig(strategy="radius")


def _rho(delta: int) -> SolverConfig:
    return SolverConfig(strategy="rho")


PRESETS = {
    "dijkstra": _dijkstra,
    "bellman-ford": _bellman_ford,
    "delta": _del,
    "prune": _prune,
    "opt": _opt,
    "lb-opt": _lb_opt,
    "lb-opt-split": _lb_opt_split,
    "radius": _radius,
    "rho": _rho,
}
"""Factory per algorithm name; each takes Δ and returns a config."""

#: presets whose result name carries no ``-Δ`` suffix (Δ plays no role)
DELTA_FREE_PRESETS = frozenset({"bellman-ford", "radius", "rho"})


def preset(name: str, delta: int = 25) -> SolverConfig:
    """Named algorithm preset, e.g. ``preset("opt", 25)`` for OPT-25."""
    try:
        factory = PRESETS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}; choose from {sorted(PRESETS)}"
        ) from None
    return factory(delta)
