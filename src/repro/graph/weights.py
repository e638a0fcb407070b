"""Edge-weight assignment.

The (proposed) Graph 500 SSSP benchmark assigns each edge an integer weight
drawn uniformly at random from ``[0, 255]``. Section II of the paper requires
strictly positive weights (``w(e) > 0``), so we draw from ``[1, max_weight]``
— the uniform-distribution assumption that the push–pull volume estimator
relies on (Section III-C) is unaffected.

Alternative distributions (exponential, bimodal, constant) are provided for
the weight-sensitivity ablations: the paper's expectation estimator *assumes*
uniform weights, and these generators probe what happens when that
assumption breaks (figure ``ablation-weights`` of ``benchmarks/figures``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "uniform_weights",
    "exponential_weights",
    "bimodal_weights",
    "constant_weights",
    "reweight",
    "DEFAULT_MAX_WEIGHT",
]

DEFAULT_MAX_WEIGHT = 255
"""The SSSP benchmark's maximum edge weight."""


def uniform_weights(
    num_edges: int,
    max_weight: int = DEFAULT_MAX_WEIGHT,
    *,
    seed: int = 0,
) -> np.ndarray:
    """Draw ``num_edges`` integer weights uniformly from ``[1, max_weight]``.

    Parameters
    ----------
    num_edges:
        Number of weights to draw.
    max_weight:
        Inclusive upper bound; must be at least 1.
    seed:
        Seed for the dedicated :class:`numpy.random.Generator`.
    """
    if max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    if num_edges < 0:
        raise ValueError("num_edges must be non-negative")
    rng = np.random.default_rng(seed)
    return rng.integers(1, max_weight + 1, size=num_edges, dtype=np.int64)


def exponential_weights(
    num_edges: int,
    max_weight: int = DEFAULT_MAX_WEIGHT,
    *,
    mean: float | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Exponentially distributed integer weights in ``[1, max_weight]``.

    Most edges are light, a long tail is heavy — the regime where almost
    every edge is short for moderate Δ, starving the long-edge phases. The
    default mean is ``max_weight / 8``.
    """
    if max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    if num_edges < 0:
        raise ValueError("num_edges must be non-negative")
    rng = np.random.default_rng(seed)
    scale = mean if mean is not None else max_weight / 8
    raw = rng.exponential(scale, size=num_edges)
    return np.clip(raw.astype(np.int64) + 1, 1, max_weight)


def bimodal_weights(
    num_edges: int,
    max_weight: int = DEFAULT_MAX_WEIGHT,
    *,
    light_fraction: float = 0.8,
    seed: int = 0,
) -> np.ndarray:
    """Two-point mixture: ``light_fraction`` of edges at weight 1, the rest
    at ``max_weight``.

    The worst case for the uniform-expectation request estimator: the
    weight mass sits entirely at the extremes, so interpolating the window
    fraction is maximally wrong, while per-vertex histograms capture it.
    """
    if not 0.0 <= light_fraction <= 1.0:
        raise ValueError("light_fraction must be in [0, 1]")
    if max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    if num_edges < 0:
        raise ValueError("num_edges must be non-negative")
    rng = np.random.default_rng(seed)
    heavy = rng.random(num_edges) >= light_fraction
    out = np.ones(num_edges, dtype=np.int64)
    out[heavy] = max_weight
    return out


def constant_weights(num_edges: int, weight: int = 1) -> np.ndarray:
    """All edges at the same weight — SSSP degenerates to (scaled) BFS."""
    if weight < 1:
        raise ValueError("weight must be >= 1")
    if num_edges < 0:
        raise ValueError("num_edges must be non-negative")
    return np.full(num_edges, weight, dtype=np.int64)


def reweight(graph, weights_for_edges, *, seed: int = 0):
    """Replace a graph's weights, keeping both arc directions consistent.

    ``weights_for_edges(count, seed=...)`` is one of the generators above
    (or any callable with that signature); each *undirected* edge draws one
    weight, applied to both of its arcs.
    """
    from repro.graph.builder import from_undirected_edges

    tails, heads, _ = graph.to_edge_list()
    once = tails < heads
    t, h = tails[once], heads[once]
    w = weights_for_edges(int(t.size), seed=seed)
    return from_undirected_edges(t, h, w, graph.num_vertices)
