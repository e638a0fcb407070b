"""R-MAT / Graph 500 graph generator (Chakrabarti, Zhan, Faloutsos 2004).

The paper evaluates on two R-MAT families (Section IV-B):

- **RMAT-1** — the Graph 500 BFS benchmark parameters
  ``A = 0.57, B = C = 0.19, D = 0.05``. Heavy degree skew: the maximum
  degree grows into the millions at large scale (paper Fig. 8).
- **RMAT-2** — the (proposed) Graph 500 SSSP benchmark parameters
  ``A = 0.50, B = C = 0.10, D = 0.30``. Milder skew, shortest distances
  spread over a wider range.

Both use *edge factor* 16: ``m = 16 * N`` undirected edges for ``N = 2^scale``
vertices. Edge weights are assigned separately (:mod:`repro.graph.weights`),
uniform integers in ``[0, 255]`` per the SSSP benchmark proposal; we clamp to
a minimum of 1 so that all weights are positive as required in Section II.

The generator is fully vectorised: one pass per scale level over the whole
edge batch, drawing quadrant choices for every edge simultaneously. Vertex
ids are scrambled with a fixed permutation (as Graph 500 requires) so that
block partitions do not align with R-MAT locality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.builder import from_undirected_edges
from repro.graph.csr import CSRGraph
from repro.graph.weights import uniform_weights

__all__ = ["RMATParams", "RMAT1", "RMAT2", "rmat_edges", "rmat_graph"]

EDGE_FACTOR = 16
"""Graph 500 edge factor: number of undirected edges per vertex."""


@dataclass(frozen=True)
class RMATParams:
    """The four R-MAT quadrant probabilities.

    ``a`` is the probability of recursing into the top-left quadrant (both
    endpoint bits 0), ``b`` top-right, ``c`` bottom-left, ``d`` bottom-right.
    They must sum to 1.
    """

    a: float
    b: float
    c: float
    d: float
    name: str = "custom"

    def __post_init__(self) -> None:
        total = self.a + self.b + self.c + self.d
        if not np.isclose(total, 1.0, atol=1e-9):
            raise ValueError(f"R-MAT probabilities must sum to 1, got {total}")
        if min(self.a, self.b, self.c, self.d) < 0:
            raise ValueError("R-MAT probabilities must be non-negative")

    @property
    def skew(self) -> float:
        """Deviation of ``a`` from the uniform value 1/4 (a rough skew proxy)."""
        return self.a - 0.25


RMAT1 = RMATParams(a=0.57, b=0.19, c=0.19, d=0.05, name="RMAT-1")
"""Graph 500 BFS benchmark parameters (paper's RMAT-1 family)."""

RMAT2 = RMATParams(a=0.50, b=0.10, c=0.10, d=0.30, name="RMAT-2")
"""Proposed Graph 500 SSSP benchmark parameters (paper's RMAT-2 family)."""


def rmat_edges(
    scale: int,
    edge_factor: int = EDGE_FACTOR,
    params: RMATParams = RMAT1,
    *,
    seed: int = 0,
    scramble: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate the (tails, heads) arrays of an R-MAT edge list.

    Parameters
    ----------
    scale:
        ``log2`` of the number of vertices.
    edge_factor:
        Undirected edges per vertex (Graph 500 uses 16).
    params:
        Quadrant probabilities (:data:`RMAT1` or :data:`RMAT2`).
    seed:
        Seed for the :class:`numpy.random.Generator` driving the process.
    scramble:
        Apply the Graph 500 vertex-label scramble.

    Returns
    -------
    (tails, heads):
        ``int64`` arrays of length ``edge_factor << scale``. Self-loops and
        duplicates are *not* removed here (the CSR builder handles that),
        matching the raw Graph 500 edge stream semantics.
    """
    if scale < 0:
        raise ValueError("scale must be non-negative")
    rng = np.random.default_rng(seed)
    num_edges = edge_factor << scale
    tails = np.zeros(num_edges, dtype=np.int64)
    heads = np.zeros(num_edges, dtype=np.int64)
    # Quadrant thresholds for a single uniform draw per (edge, level):
    #   [0, a)           -> (0, 0)
    #   [a, a+b)         -> (0, 1)
    #   [a+b, a+b+c)     -> (1, 0)
    #   [a+b+c, 1)       -> (1, 1)
    t1 = params.a
    t2 = params.a + params.b
    t3 = params.a + params.b + params.c
    for level in range(scale):
        u = rng.random(num_edges)
        head_bit = (u >= t1) & (u < t2) | (u >= t3)
        tail_bit = u >= t2
        tails |= tail_bit.astype(np.int64) << level
        heads |= head_bit.astype(np.int64) << level
    if scramble and scale > 0:
        # The Graph 500 label scramble: one fixed permutation of both ends.
        perm = np.random.default_rng((seed << 1) ^ 0x5851F42D).permutation(1 << scale)
        tails, heads = perm[tails], perm[heads]
    return tails, heads


def rmat_graph(
    scale: int,
    edge_factor: int = EDGE_FACTOR,
    params: RMATParams = RMAT1,
    *,
    seed: int = 0,
    max_weight: int = 255,
    scramble: bool = True,
) -> CSRGraph:
    """Generate a weighted, symmetrized R-MAT graph.

    Weights are uniform integers in ``[1, max_weight]`` (the benchmark says
    ``[0, 255]``; zero weights are clamped to 1 to satisfy the strictly
    positive weight requirement of Section II).
    """
    tails, heads = rmat_edges(
        scale, edge_factor, params, seed=seed, scramble=scramble
    )
    weights = uniform_weights(tails.size, max_weight=max_weight, seed=seed + 1)
    return from_undirected_edges(tails, heads, weights, num_vertices=1 << scale)
