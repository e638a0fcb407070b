"""The defence layer of one solve: durable checkpoints and the deadline.

Both drivers — the whole-graph one and the rank one — wrap the shared solve
loop in the same :class:`Defence` object. It owns the
:class:`~repro.spmd.checkpoint.CheckpointManager` (when a directory was
given), the :class:`~repro.runtime.watchdog.Watchdog` (when a deadline was
given), the epoch counter and the loop-stage marker, the restoration of a
resumed run, and the resolution of a tripped deadline. A checkpoint stores
the view's own arrays and a resume writes them back.
"""

from __future__ import annotations

import numpy as np

from repro.core.bellman_ford import bellman_ford_stage
from repro.core.context import ExecutionContext
from repro.core.distances import INF
from repro.core.views import VertexView
from repro.runtime.comm import RECOVERY_PHASE
from repro.runtime.watchdog import (
    DeadlineConfig,
    DeadlineExceeded,
    SolveTimeout,
    Watchdog,
)

__all__ = ["Defence", "chain_hooks"]


def chain_hooks(*hooks):
    """Compose no-arg epoch hooks; None entries are dropped."""
    live = [h for h in hooks if h is not None]
    if not live:
        return None
    if len(live) == 1:
        return live[0]

    def hook() -> None:
        for h in live:
            h()

    return hook


class Defence:
    """Durable checkpoints + deadline watchdog wiring for one solve.

    The keyword options below are *the* defence options: every entry point
    above this class (:func:`~repro.core.solver.solve_sssp`,
    :meth:`BatchSolver.solve <repro.core.solver.BatchSolver.solve>`,
    :meth:`DeltaSteppingEngine.run
    <repro.core.delta_stepping.DeltaSteppingEngine.run>`,
    :func:`~repro.spmd.engine.run_ranks`,
    :func:`~repro.spmd.engine.spmd_delta_stepping`) passes them through
    unchanged.

    ``checkpoint_dir``
        Directory for durable epoch checkpoints (atomic write-rename,
        integrity digests; created and write-probed before the solve
        starts). ``None`` disables checkpointing.
    ``checkpoint_interval``, ``checkpoint_keep``
        Save every this many epochs; keep the newest this many files.
    ``resume``
        Load the newest valid checkpoint of the same graph/run instead of
        starting over: it is written back into the view and the bucket
        ordinal, hybrid marker and — for a transport that counts
        supersteps — the superstep are restored with it. The resumed run
        is distance-identical.
    ``deadline``
        A :class:`~repro.runtime.watchdog.DeadlineConfig` arming the
        superstep-budget/stall watchdog. On a trip the ``raise`` policy
        writes a final resumable checkpoint and raises
        :class:`~repro.runtime.watchdog.SolveTimeout`; the ``degrade``
        policy collapses the remaining buckets into one Bellman-Ford pass
        (charged to the recovery phase) and returns exact distances.

    ``engine`` tags the checkpoints (``"core-delta"``, ``"spmd-delta"``,
    ``"spmd-bf"``): a run only resumes from its own driver's files.
    """

    def __init__(
        self,
        ctx: ExecutionContext,
        view: VertexView,
        transport,
        root: int,
        engine: str,
        *,
        checkpoint_dir=None,
        checkpoint_interval: int = 1,
        checkpoint_keep: int = 3,
        resume: bool = False,
        deadline: DeadlineConfig | None = None,
    ) -> None:
        self.ctx = ctx
        self.view = view
        self.transport = transport
        self.deadline = deadline
        self.epoch = 0
        self.stage = "bucket"
        self.bucket_ordinal = 0
        self.mgr = None
        if checkpoint_dir is not None:
            # Lazy import: spmd.checkpoint has no core dependencies, but
            # importing the spmd package at module scope would cycle.
            from repro.spmd.checkpoint import CheckpointManager

            self.mgr = CheckpointManager(
                checkpoint_dir,
                graph=ctx.graph,
                config=ctx.config,
                machine=ctx.machine,
                root=root,
                engine=engine,
                interval=checkpoint_interval,
                keep=checkpoint_keep,
            )
        self.watchdog = (
            Watchdog(deadline) if deadline is not None and deadline.enabled else None
        )
        if hasattr(transport, "watchdog"):
            # Recovery rounds of a reliable delivery burn deadline budget too.
            transport.watchdog = self.watchdog
        self.start = (
            self.mgr.load_resume() if (self.mgr is not None and resume) else None
        )
        if self.start is not None:
            self._restore(self.start)

    def _restore(self, ckpt) -> None:
        self.view.restore(ckpt.d, ckpt.settled, ckpt.active)
        self.epoch = ckpt.epoch
        self.stage = ckpt.stage
        self.bucket_ordinal = ckpt.bucket_ordinal
        self.ctx.metrics.hybrid_switch_bucket = ckpt.hybrid_switch_bucket
        if self.ctx.tracer is not None:
            self.ctx.tracer.instant(
                "resume", epoch=int(self.epoch), stage=self.stage,
                bucket_ordinal=int(self.bucket_ordinal),
            )
        fast_forward = getattr(self.transport, "fast_forward", None)
        if fast_forward is not None:
            # Fault-plan events are pinned to absolute supersteps; do
            # not replay the ones the checkpointed run already survived.
            fast_forward(ckpt.superstep)

    @property
    def enabled(self) -> bool:
        return self.mgr is not None or self.watchdog is not None

    # ------------------------------------------------------------------
    def checkpoint(self, *, force: bool = False):
        if self.mgr is None:
            return None
        view = self.view
        kwargs = dict(
            epoch=self.epoch,
            stage=self.stage,
            bucket_ordinal=self.bucket_ordinal,
            superstep=getattr(self.transport, "superstep", 0),
            d=view.d,
            settled=view.settled,
            active=view.active,
            hybrid_switch_bucket=self.ctx.metrics.hybrid_switch_bucket,
        )
        path = self.mgr.save(**kwargs) if force else self.mgr.maybe_save(**kwargs)
        if path is not None and self.ctx.tracer is not None:
            self.ctx.tracer.instant(
                "checkpoint", stage=self.stage, epoch=int(self.epoch),
                path=str(path),
            )
        return path

    def tick(self) -> None:
        if self.watchdog is not None:
            self.watchdog.note_epoch(
                settled_total=self.view.d.size - self.view.num_unsettled,
                relaxations=self.ctx.metrics.total_relaxations,
            )

    def on_epoch(self) -> None:
        """Epoch boundary: bump, checkpoint on cadence, tick the watchdog."""
        self.epoch += 1
        self.checkpoint()
        self.tick()

    def bf_hook(self) -> None:
        """Epoch hook for Bellman-Ford stages (marks the stage durable)."""
        self.stage = "bf"
        self.on_epoch()

    # ------------------------------------------------------------------
    def resolve_deadline(self, exc: DeadlineExceeded, transport) -> None:
        """Apply the deadline policy after the watchdog tripped mid-solve.

        The trip may have happened *inside* a reliable delivery (retry
        storm): at that point the superstep's records have not been
        applied, so every tentative distance is still the length of a real
        path. Both resolutions build on that: ``degrade`` abandons the
        (possibly storming) transport for the fresh perfect one passed in,
        runs a Bellman-Ford fixpoint from the finite set — the paper's own
        hybridization machinery, charged to the recovery phase — and
        leaves exact distances; ``raise`` persists a ``stage="bf"``
        checkpoint over the finite set (always resumable to the exact
        answer) and raises the structured
        :class:`~repro.runtime.watchdog.SolveTimeout`.
        """
        ctx = self.ctx
        view = self.view
        view.active = np.nonzero(view.d < INF)[0]
        if self.deadline.policy == "degrade":
            ctx.metrics.degraded_to_bf = True
            if ctx.tracer is not None:
                ctx.tracer.instant("degrade-to-bf", reason=str(exc.reason))
            bellman_ford_stage(ctx, view, transport, phase_kind=RECOVERY_PHASE)
            view.settle_reached()
            return
        self.stage = "bf"
        path = self.checkpoint(force=True)
        wd = self.watchdog
        raise SolveTimeout(
            exc.reason,
            distances=view.d.copy(),
            epochs_completed=wd.epochs if wd is not None else 0,
            supersteps=wd.supersteps if wd is not None else 0,
            checkpoint_path=path,
        ) from exc
