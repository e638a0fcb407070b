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

:class:`DeltaSteppingEngine` runs those kernels on a single
:class:`~repro.core.views.VertexView` spanning the whole graph, through a
:class:`~repro.core.transport.DeclaredTransport`: nothing moves, and every
exchange and per-thread compute charge a distributed run would incur is
declared to the accounting runtime, which is what the cost model and the
paper-figure benches consume. The rank driver
(:mod:`repro.spmd.engine`) runs the same kernels on one view per rank
through a mailbox.
"""

from __future__ import annotations

import numpy as np

from repro.core.context import ExecutionContext
from repro.core.defence import Defence
from repro.core.phases import begin_solve, finish_solve, run_stepping
from repro.core.transport import DeclaredTransport
from repro.core.views import rooted_whole_view
from repro.runtime.watchdog import DeadlineConfig, DeadlineExceeded

__all__ = ["DeltaSteppingEngine", "run_delta_stepping"]


class DeltaSteppingEngine:
    """Executes one SSSP run over an :class:`ExecutionContext`."""

    def __init__(self, ctx: ExecutionContext) -> None:
        self.ctx = ctx

    def run(
        self,
        root: int,
        *,
        checkpoint_dir=None,
        checkpoint_interval: int = 1,
        checkpoint_keep: int = 3,
        resume: bool = False,
        deadline: DeadlineConfig | None = None,
    ) -> np.ndarray:
        """Solve SSSP from ``root``; returns the distance array.

        ``checkpoint_dir`` enables durable epoch checkpoints (every
        ``checkpoint_interval`` epochs, newest ``checkpoint_keep`` kept);
        with ``resume`` the newest valid checkpoint of the same graph/run
        is loaded and the solve continues from it. ``deadline`` bounds the
        solve (see :class:`~repro.runtime.watchdog.DeadlineConfig`): on a
        trip the ``raise`` policy writes a final resumable checkpoint and
        raises :class:`~repro.runtime.watchdog.SolveTimeout`; the
        ``degrade`` policy collapses the remaining buckets into one
        Bellman-Ford pass (charged to the recovery phase) and returns
        correct distances.
        """
        ctx = self.ctx
        cfg = ctx.config
        solve_span = begin_solve(ctx, "core-delta", root, delta=int(cfg.delta))
        view = rooted_whole_view(ctx, root)
        views = [view]
        transport = DeclaredTransport(ctx.comm)
        defence = Defence(
            ctx,
            views,
            transport,
            root,
            "core-delta",
            checkpoint_dir=checkpoint_dir,
            checkpoint_interval=checkpoint_interval,
            checkpoint_keep=checkpoint_keep,
            resume=resume,
            deadline=deadline,
        )
        if cfg.is_bellman_ford:
            # Δ = ∞: the whole solve is the Bellman-Ford stage.
            defence.stage = "bf"
        try:
            run_stepping(ctx, views, transport, defence)
        except DeadlineExceeded as exc:
            defence.resolve_deadline(exc, DeclaredTransport(ctx.comm))
        finish_solve(ctx, views, root, solve_span)
        return view.d


def run_delta_stepping(ctx: ExecutionContext, root: int) -> np.ndarray:
    """Convenience wrapper: build the engine and solve from ``root``."""
    return DeltaSteppingEngine(ctx).run(root)
