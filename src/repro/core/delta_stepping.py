"""The whole-graph driver of the Δ-stepping family (Section II-A, Fig. 2).

One kernel set executes the whole algorithm family
(:mod:`repro.core.phases`, :mod:`repro.core.pruning`,
:mod:`repro.core.bellman_ford`); the
:class:`~repro.core.config.SolverConfig` flags select the variant:

- plain Δ-stepping with short/long edge classification (``Del-Δ``);
- inner/outer-short refinement (``use_ios``);
- pruning push/pull long phases with the decision heuristic
  (``use_pruning``);
- hybridization into Bellman-Ford (``use_hybrid``);
- Δ = 1 reproduces Dial/Dijkstra, Δ = ∞ reproduces Bellman-Ford;
- ``config.strategy`` picks the window rule: the paper's Δ-buckets
  (``"delta"``), radius stepping (``"radius"``) or ρ-stepping (``"rho"``).

:class:`DeltaSteppingEngine` runs those kernels on the whole-graph
:class:`~repro.core.views.VertexView` through a
:class:`~repro.core.transport.DeclaredTransport`: nothing moves, and every
exchange and per-thread compute charge a distributed run would incur is
declared to the accounting runtime, which is what the cost model and the
paper-figure benches consume. The rank driver
(:mod:`repro.spmd.engine`) makes the same call with a mailbox for the
transport.
"""

from __future__ import annotations

import numpy as np

from repro.core.context import ExecutionContext
from repro.core.phases import drive
from repro.core.transport import DeclaredTransport
from repro.core.views import rooted_whole_view

__all__ = ["DeltaSteppingEngine"]


class DeltaSteppingEngine:
    """Executes one SSSP run over an :class:`ExecutionContext`."""

    def __init__(self, ctx: ExecutionContext) -> None:
        self.ctx = ctx

    def run(self, root: int, **defence) -> np.ndarray:
        """Solve SSSP from ``root``; returns the distance array.

        ``defence`` — durable checkpoints, resume, the deadline — is
        documented once, on :class:`~repro.core.defence.Defence`.
        """
        ctx = self.ctx
        return drive(
            ctx,
            rooted_whole_view(ctx, root),
            DeclaredTransport(ctx.comm),
            root,
            "core-delta",
            perfect=lambda: DeclaredTransport(ctx.comm),
            **defence,
        )
