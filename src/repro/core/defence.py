"""The defence layer of one solve: checkpoints, crash recovery, the deadline.

Both drivers — the whole-graph one and the rank one — wrap the shared solve
loop in the same :class:`Defence` object. It owns the
:class:`~repro.spmd.checkpoint.CheckpointManager` (when a directory was
given), the :class:`~repro.runtime.watchdog.Watchdog` (when a deadline was
given), the in-memory crash snapshot and the self-healing sweep (when a
:class:`~repro.spmd.faults.FaultPlan` was given), the epoch counter and the
loop-stage marker, the restoration of a resumed run, and the resolution of
a tripped deadline. A checkpoint and a snapshot both store the view's own
``(d, settled, active)``, and a resume or a crash restart writes them back.
Every hook does nothing when nothing is armed.

Both recoveries rest on one argument: min-apply relaxation is idempotent
and monotone, so a restored distance is still the length of a real path and
one Bellman-Ford fixpoint from every reached vertex (:meth:`_fixpoint`)
lands on the exact distances.
"""

from __future__ import annotations

import numpy as np

from repro.core.bellman_ford import bellman_ford_stage
from repro.core.context import ExecutionContext
from repro.core.distances import INF
from repro.core.validation import validate_sssp_structure
from repro.core.views import VertexView
from repro.runtime.comm import RECOVERY_PHASE
from repro.runtime.watchdog import (
    DeadlineConfig,
    DeadlineExceeded,
    SolveTimeout,
    Watchdog,
)

__all__ = ["Defence", "RecoveryError"]

MAX_HEALING_SWEEPS = 4
"""Self-healing Bellman-Ford sweeps before a faulted solve gives up."""


class RecoveryError(RuntimeError):
    """Self-healing failed: the structural validator still rejects the
    distances after :data:`MAX_HEALING_SWEEPS` healing sweeps."""


class Defence:
    """Checkpoints, crash recovery and deadline wiring for one solve.

    The keyword options below are *the* defence options: every entry point
    above this class (:func:`~repro.core.solver.solve_sssp`,
    :meth:`BatchSolver.solve <repro.core.solver.BatchSolver.solve>`,
    :meth:`DeltaSteppingEngine.run
    <repro.core.delta_stepping.DeltaSteppingEngine.run>`,
    :func:`~repro.spmd.engine.run_ranks`,
    :func:`~repro.spmd.engine.spmd_delta_stepping`) passes them through
    unchanged.

    ``checkpoint_dir``
        Directory for durable checkpoints, one per epoch (atomic
        write-rename, integrity digests; created and write-probed before
        the solve starts). ``None`` disables checkpointing.
    ``checkpoint_keep``
        Keep the newest this many checkpoint files.
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

    ``faults`` is the rank driver's plan, set by the driver, not passed
    through: with one, ``transport`` is a
    :class:`~repro.spmd.faults.FaultyMailbox` whose crash hook is
    :meth:`restore_rank` and whose recovery rounds tick the watchdog, the
    view is snapshotted in memory before every epoch, and :meth:`heal`
    closes an undisturbed run. ``engine`` tags the checkpoints
    (``"core-delta"``, ``"spmd-delta"``, ``"spmd-bf"``): a run only resumes
    from its own driver's files.
    """

    def __init__(
        self,
        ctx: ExecutionContext,
        view: VertexView,
        transport,
        root: int,
        engine: str,
        *,
        faults=None,
        checkpoint_dir=None,
        checkpoint_keep: int = 3,
        resume: bool = False,
        deadline: DeadlineConfig | None = None,
    ) -> None:
        self.ctx = ctx
        self.view = view
        self.transport = transport
        self.faults = faults
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
                keep=checkpoint_keep,
            )
        self.watchdog = (
            Watchdog(deadline) if deadline is not None and deadline.enabled else None
        )
        if faults is not None:
            transport.on_restart = self.restore_rank
            # Recovery rounds of a reliable delivery burn deadline budget too.
            transport.watchdog = self.watchdog
        self.start = (
            self.mgr.load_resume() if (self.mgr is not None and resume) else None
        )
        if self.start is not None:
            self._restore(self.start)
        if faults is not None:
            # After any resume, so a crash rolls back to the restored state.
            self._snapshot()

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

    # ------------------------------------------------------------------
    def _snapshot(self) -> None:
        view = self.view
        self._snap = (view.d.copy(), view.settled.copy(), view.active.copy())
        self.ctx.metrics.recovery.checkpoints_taken += 1

    def restore_rank(self, rank: int) -> None:
        """Roll ``rank`` back to the last snapshot (crash restart): its
        vertex range of the snapshot is assigned back, and the view
        rebuilds its incremental index — distances lawfully rise — before
        the next epoch reads it."""
        self.view.restore(*self._snap, *self.ctx.partition.rank_range(rank))
        self.ctx.metrics.recovery.rank_restarts += 1
        if self.ctx.tracer is not None:
            self.ctx.tracer.instant("rank-restart", rank=int(rank))
        if self.ctx.guards is not None:
            # A restore lawfully raises distances and clears settled flags;
            # reset the monotonicity/finality baselines so the guards track
            # the restored state instead of flagging the rollback itself.
            self.ctx.guards.on_rollback()

    def checkpoint(self):
        if self.mgr is None:
            return None
        view = self.view
        path = self.mgr.save(
            epoch=self.epoch,
            stage=self.stage,
            bucket_ordinal=self.bucket_ordinal,
            superstep=getattr(self.transport, "superstep", 0),
            d=view.d,
            settled=view.settled,
            active=view.active,
            hybrid_switch_bucket=self.ctx.metrics.hybrid_switch_bucket,
        )
        if self.ctx.tracer is not None:
            self.ctx.tracer.instant(
                "checkpoint", stage=self.stage, epoch=int(self.epoch),
                path=str(path),
            )
        return path

    def before_epoch(self) -> None:
        """Top of an epoch: snapshot the view for a crash restart."""
        if self.faults is not None:
            self._snapshot()

    def on_epoch(self) -> None:
        """Epoch boundary: bump, checkpoint, tick the watchdog."""
        self.epoch += 1
        self.checkpoint()
        if self.watchdog is not None:
            self.watchdog.note_epoch(
                settled_total=self.view.d.size - self.view.num_unsettled,
                relaxations=self.ctx.metrics.total_relaxations,
            )

    def bf_hook(self) -> None:
        """Epoch hook for Bellman-Ford stages (marks the stage durable)."""
        self.before_epoch()
        self.stage = "bf"
        self.on_epoch()

    # ------------------------------------------------------------------
    def _fixpoint(self, transport) -> None:
        """Reactivate every reached vertex and run Bellman-Ford to its
        fixpoint, charged to the recovery phase."""
        self.view.active = np.nonzero(self.view.d < INF)[0]
        bellman_ford_stage(self.ctx, self.view, transport, phase_kind=RECOVERY_PHASE)

    def heal(self, root: int) -> None:
        """Self-healing sweep of a faulted run: re-run the fixpoint until
        the structural validator accepts (raises :class:`RecoveryError` if
        it never does). Does nothing without a fault plan."""
        if self.faults is None:
            return
        ctx, view = self.ctx, self.view
        for _ in range(MAX_HEALING_SWEEPS):
            # One allreduce models the global validity vote.
            ctx.comm.allreduce(1, phase_kind=RECOVERY_PHASE)
            if validate_sssp_structure(ctx.graph, root, view.d).valid:
                break
            ctx.metrics.recovery.healing_sweeps += 1
            if ctx.tracer is not None:
                ctx.tracer.instant(
                    "healing-sweep",
                    sweep=int(ctx.metrics.recovery.healing_sweeps),
                )
            self._fixpoint(self.transport)
        else:
            report = validate_sssp_structure(ctx.graph, root, view.d)
            if not report.valid:
                raise RecoveryError(
                    "self-healing did not converge after "
                    f"{MAX_HEALING_SWEEPS} sweeps: " + "; ".join(report.failures)
                )
        view.settle_reached()

    def resolve_deadline(self, exc: DeadlineExceeded, transport) -> None:
        """Apply the deadline policy after the watchdog tripped mid-solve.

        The trip may have happened *inside* a reliable delivery (retry
        storm): at that point the superstep's records have not been
        applied, so every tentative distance is still the length of a real
        path. Both resolutions build on that: ``degrade`` abandons the
        (possibly storming) transport for the fresh perfect one passed in,
        runs the recovery fixpoint — the paper's own hybridization
        machinery — and leaves exact distances; ``raise`` persists a
        ``stage="bf"`` checkpoint over the finite set (always resumable to
        the exact answer) and raises the structured
        :class:`~repro.runtime.watchdog.SolveTimeout`.
        """
        ctx = self.ctx
        view = self.view
        if self.deadline.policy == "degrade":
            ctx.metrics.degraded_to_bf = True
            if ctx.tracer is not None:
                ctx.tracer.instant("degrade-to-bf", reason=str(exc.reason))
            self._fixpoint(transport)
            view.settle_reached()
            return
        view.active = np.nonzero(view.d < INF)[0]
        self.stage = "bf"
        path = self.checkpoint()
        wd = self.watchdog
        raise SolveTimeout(
            exc.reason,
            distances=view.d.copy(),
            epochs_completed=wd.epochs if wd is not None else 0,
            supersteps=wd.supersteps if wd is not None else 0,
            checkpoint_path=path,
        ) from exc
