"""Pluggable stepping strategies: who decides what settles next.

The Δ-stepping skeleton the paper builds on (buckets of width Δ, drain
the lowest bucket with short phases, settle it, relax the rest in one
long phase) generalises cleanly: with everything below ``lo`` settled,
repeatedly relaxing the frontier until no changed vertex lands below
``hi`` and then settling every unsettled vertex with ``d < hi`` is exact
for *any* ``hi > lo`` — the standard Dijkstra safety argument, since no
path through a vertex at distance ``>= hi`` can improve a tentative
distance below ``hi``. A :class:`SteppingStrategy` owns exactly that
choice of window plus the policies that hang off it:

- **step selection** — which ``[lo, hi)`` window to drain next: the
  rule itself is :meth:`~SteppingStrategy.window`, a pure function of
  the unsettled candidates' distances and ids;
  :meth:`~SteppingStrategy.next_step`, written once, applies it to the
  view's unsettled set and charges the strategy's selection collective
  (:attr:`~SteppingStrategy.width`). An incremental repair uses no
  window: its small remainder drains to one label-correcting fixpoint
  (:mod:`repro.dynamic.repair`);
- **edge classification** — the weight threshold below which an edge is
  relaxed eagerly in the short phases
  (:meth:`~SteppingStrategy.classification_width`);
- **relaxation phase policy** — whether a separate long phase exists at
  all (:attr:`~SteppingStrategy.short_phase_only`);
- **termination** — ``next_step`` returning ``None``.

Three families are registered:

``delta``
    The paper's Δ-stepping: fixed-width buckets ``[kΔ, (k+1)Δ)``, short
    edges are ``weight < Δ``, long edges wait for the push/pull long
    phase. This strategy reproduces the historical engines *bit for bit*
    — same scans, same allreduces, same bucket keys — and is the only
    one the IOS/pruning/census machinery (whose maths is Δ-specific)
    composes with.

``radius``
    Radius stepping (Blelloch et al., arXiv 1602.03881): per-vertex
    radius ``r(v)`` = the ``radius_k``-th smallest incident edge weight
    (an O(1) lookup per vertex on the weight-sorted CSR), and each step
    settles everything below ``min over the unsettled frontier of
    (d(v) + r(v)) + 1``. Vertices whose ``radius_k`` nearest edges all
    stay inside the window settle together, so low-diameter regions
    collapse into few steps without a global Δ to mistune.

``rho``
    ρ-stepping (Dong et al., arXiv 2105.06145): a lazy-batched priority
    queue — each step extracts (at least) the ``rho`` closest unsettled
    vertices by setting ``hi`` just past the ρ-th smallest unsettled
    tentative distance (one ``np.partition``, the lazy batching: no
    per-vertex heap discipline). ρ interpolates between Dijkstra
    (ρ = 1) and Bellman-Ford (ρ = n).

Both new families relax *every* edge of an active vertex in the short
phases (classification width ∞ ⇒ zero long edges), so their step is one
drain-and-settle loop with no long phase; exactness then needs no edge
classification argument at all, only the window safety above. Zero-weight
edges and disconnected vertices are handled by the same drain loop —
a changed vertex landing inside the window is simply re-activated.

Strategies are selected by :attr:`SolverConfig.strategy
<repro.core.config.SolverConfig.strategy>` (presets ``radius``/``rho``
wire it through :func:`~repro.core.config.preset`, ``solve_sssp``,
``BatchSolver`` and the CLI) and gated by the conformance suite:
every registered strategy must be bit-identical to
:func:`repro.core.reference.dijkstra_reference` on every fixture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.distances import INF

__all__ = [
    "Step",
    "SteppingStrategy",
    "DeltaStepping",
    "RadiusStepping",
    "RhoStepping",
    "STRATEGIES",
    "make_strategy",
]


@dataclass(frozen=True)
class Step:
    """One settle window ``[lo, hi)`` chosen by a strategy.

    ``key`` labels the step for tracing, guards and the hybrid-switch
    marker: the bucket id ``k`` for Δ-stepping, the running step ordinal
    for the windowed families. It is strictly increasing over a solve
    either way.
    """

    key: int
    lo: int
    hi: int


class SteppingStrategy:
    """Base class: the step-selection seam the solve loop consumes.

    A strategy supplies its :meth:`window` rule and the :attr:`width` of
    its selection collective; the loop owns everything else (phases,
    settling, accounting, hybridization) and the drivers the checkpoints.
    ``next_step`` charges the selection collective — the loop charges the
    preceding unsettled scan — so a strategy with a wider collective
    (ρ-stepping's candidate merge) prices it honestly.
    """

    #: registry name, also the value of ``SolverConfig.strategy``
    name: str = ""
    #: values each rank contributes to the selection collective
    width: int = 1
    #: True when every edge relaxes in short phases (no long phase runs)
    short_phase_only: bool = False

    def __init__(self, config) -> None:
        self.config = config

    # ------------------------------------------------------------------
    def classification_width(self) -> int:
        """Short-edge weight threshold for the context's split tables."""
        raise NotImplementedError

    def prepare(self, graph) -> None:
        """Precompute hook (runs once per solve or repair, before the loop)."""

    def window(self, d: np.ndarray, ids: np.ndarray, ordinal: int) -> Step | None:
        """The next window over the unsettled candidates ``ids``, whose
        (finite) tentative distances are ``d``; ``None`` when there are
        none. ``ordinal`` counts the windows drained so far."""
        raise NotImplementedError

    def next_step(self, ctx, view, transport, ordinal: int) -> Step | None:
        """:meth:`window` over the view's unsettled set, after the
        selection collective that combines the ranks' own candidates —
        over the one view, the window of every candidate. A scalar
        collective carries the window's key (a min-allreduce); a wider
        one is a ``width``-vector merge. ``None`` at termination."""
        ids = view.unsettled()
        step = self.window(view.d[ids], ids, ordinal)
        if self.width > 1:
            transport.comm.allreduce(self.width, phase_kind="bucket")
            return step
        key = transport.allreduce_min(INF if step is None else step.key)
        return None if key >= INF else Step(int(key), step.lo, step.hi)


class DeltaStepping(SteppingStrategy):
    """Fixed-width buckets ``[kΔ, (k+1)Δ)`` — the paper's algorithm.

    The window is the minimum bucket; in a solve its key is one scalar
    min-allreduce.
    """

    name = "delta"

    def classification_width(self) -> int:
        return self.config.delta

    def _bucket(self, k: int) -> Step:
        delta = self.config.delta
        return Step(key=k, lo=k * delta, hi=(k + 1) * delta)

    def window(self, d: np.ndarray, ids: np.ndarray, ordinal: int) -> Step | None:
        if not d.size:
            return None
        return self._bucket(int(d.min()) // self.config.delta)


def vertex_radii(graph, k: int) -> np.ndarray:
    """Per-vertex radius: the ``k``-th smallest incident edge weight.

    On a weight-sorted CSR this is the ``min(k, deg(v))``-th entry of
    each adjacency row — one gather, no per-vertex sort. Degree-0
    vertices get radius 0 (they have no frontier to hold back).
    """
    degrees = graph.degrees
    n = graph.num_vertices
    r = np.zeros(n, dtype=np.int64)
    has_edges = degrees > 0
    take = np.minimum(np.int64(k), degrees[has_edges]) - 1
    r[has_edges] = graph.weights[graph.indptr[:-1][has_edges] + take]
    return r


class RadiusStepping(SteppingStrategy):
    """Per-vertex radii feed the window width (arXiv 1602.03881).

    Window: ``hi = min over unsettled finite v of (d(v) + r(v)) + 1``.
    Every vertex ``v`` with ``d(v) < hi - r(v)`` would settle in the
    classic formulation; the ``+ 1`` guarantees progress even when a
    zero-weight incident edge makes ``r(v) = 0`` (the window then still
    clears at least the current minimum). ``lo = 0`` is valid because
    everything below the previous ``hi`` is already settled.
    """

    name = "radius"
    short_phase_only = True

    def __init__(self, config) -> None:
        super().__init__(config)
        self._r: np.ndarray | None = None

    def classification_width(self) -> int:
        from repro.core.config import DELTA_INFINITY

        return DELTA_INFINITY

    def prepare(self, graph) -> None:
        # The radius of a vertex derives from its own adjacency row, so
        # the table is rank-local work.
        self._r = vertex_radii(graph, self.config.radius_k)

    def window(self, d: np.ndarray, ids: np.ndarray, ordinal: int) -> Step | None:
        if not d.size:
            return None
        return Step(key=ordinal, lo=0, hi=int((d + self._r[ids]).min()) + 1)


class RhoStepping(SteppingStrategy):
    """Lazy-batched priority queue with ρ-bounded extraction (arXiv
    2105.06145).

    Each step sets ``hi`` just past the ρ-th smallest unsettled
    tentative distance — one ``np.partition`` over the frontier instead
    of ρ heap pops, the "lazy batching". The selection collective is a
    ρ-length vector allreduce: each rank contributes its ρ smallest
    candidates, and the ρ-th smallest of that union is the global ρ-th
    smallest however the vertices are split.
    """

    name = "rho"
    short_phase_only = True

    @property
    def width(self) -> int:
        return self.config.rho

    def classification_width(self) -> int:
        from repro.core.config import DELTA_INFINITY

        return DELTA_INFINITY

    def window(self, d: np.ndarray, ids: np.ndarray, ordinal: int) -> Step | None:
        if not d.size:
            return None
        kth = min(self.config.rho, d.size) - 1
        return Step(key=ordinal, lo=0, hi=int(np.partition(d, kth)[kth]) + 1)


STRATEGIES: dict[str, type[SteppingStrategy]] = {
    "delta": DeltaStepping,
    "radius": RadiusStepping,
    "rho": RhoStepping,
}
"""Registry: ``SolverConfig.strategy`` value → strategy class."""


def make_strategy(config) -> SteppingStrategy:
    """Instantiate the strategy selected by ``config.strategy``."""
    try:
        cls = STRATEGIES[config.strategy]
    except KeyError:
        raise ValueError(
            f"unknown stepping strategy {config.strategy!r}; "
            f"choose from {sorted(STRATEGIES)}"
        ) from None
    return cls(config)
