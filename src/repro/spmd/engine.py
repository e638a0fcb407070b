"""The rank driver: the whole-graph pass plus routing.

:func:`run_ranks` makes the call the whole-graph driver makes —
:func:`~repro.core.phases.drive` over the one
:class:`~repro.core.views.VertexView` — with a
:class:`~repro.spmd.mailbox.Mailbox` for the transport: every record a
kernel sends is routed rank to rank for real, and a rank's block of the
state is written only from records that arrived addressed to it (the
locality rule of :mod:`repro.core.transport`, held by
``tests/spmd/test_locality.py``). The whole-graph driver
(:mod:`repro.core.delta_stepping`) merely *declares* that traffic; the
transport-parity test asserts the two produce bit-identical distances and
field-for-field identical accounting records, which is the mechanical proof
that declared traffic equals a true message-passing execution's. The rank
driver accepts every configuration the whole-graph driver accepts, by
construction: there is no second copy to keep up.

What is the rank driver's own is the fault stack. :func:`run_ranks` works
on a prepared context — it is what :meth:`BatchSolver.solve(root,
faults=plan) <repro.core.solver.BatchSolver.solve>` runs on a fork of its
template — and :func:`spmd_delta_stepping` is ``make_context`` +
``run_ranks`` for callers that want the context back (``make_context``
reads its per-graph tables off the graph's memo, so the per-solve cost is
the per-run state). With a
:class:`~repro.spmd.faults.FaultPlan` records travel through a
:class:`~repro.spmd.faults.FaultyMailbox` (reliable sequence/ack/retry
transport over a faulty wire), the state is snapshotted in memory at epoch
boundaries so a crashed rank can restart — its range of the arrays is
assigned back from the snapshot, nobody else's is touched — and a
post-solve self-healing sweep re-runs Bellman-Ford iterations until the
structural validator accepts: sound because min-apply relaxation is
idempotent, monotone and therefore self-stabilizing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.bellman_ford import bellman_ford_stage
from repro.core.config import SolverConfig
from repro.core.context import ExecutionContext, make_context
from repro.core.distances import INF
from repro.core.phases import drive

# The one view constructor, under the name the stack benchmark's span
# recorder wraps on this module (``spmd.rank_state_build_ms``).
from repro.core.views import VertexView, rooted_whole_view as build_rank_states
from repro.graph.csr import CSRGraph
from repro.runtime.comm import RECOVERY_PHASE
from repro.runtime.machine import MachineConfig
from repro.spmd.mailbox import Mailbox

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spmd.faults import FaultPlan

__all__ = ["run_ranks", "spmd_delta_stepping", "RecoveryError"]


class RecoveryError(RuntimeError):
    """Self-healing failed: the structural validator still rejects the
    distances after the configured number of healing sweeps."""


# ----------------------------------------------------------------------
# Fault recovery (in-memory checkpoints, rank restart, self-healing sweep)
# ----------------------------------------------------------------------
class _RecoveryManager:
    """Engine-side half of the recovery protocol.

    Holds an epoch-level snapshot of the view's state (distances, settled
    flags, active set), restores a rank's range of it when the mailbox
    reports that rank's crash, and runs the post-solve self-healing sweep:
    Bellman-Ford iterations, charged to the ``recovery`` phase, repeated
    until the structural validator accepts. Restoring a checkpoint can only
    *raise* tentative distances (they are monotone non-increasing over
    time), so every tentative distance remains the length of a real path
    and the sweep's fixpoint is exactly the true shortest-distance array.
    """

    def __init__(
        self, ctx: ExecutionContext, view: VertexView, plan: "FaultPlan"
    ) -> None:
        self.ctx = ctx
        self.view = view
        self.plan = plan
        self._epoch = 0
        self.checkpoint()

    def checkpoint(self) -> None:
        """Snapshot (d, settled, active)."""
        view = self.view
        self._snap = (view.d.copy(), view.settled.copy(), view.active.copy())
        self.ctx.metrics.recovery.checkpoints_taken += 1

    def on_epoch(self) -> None:
        """Epoch boundary: checkpoint every ``checkpoint_interval`` epochs."""
        if self._epoch % self.plan.checkpoint_interval == 0:
            self.checkpoint()
        self._epoch += 1

    def restore(self, rank: int) -> None:
        """Roll ``rank`` back to the last checkpoint (crash restart): its
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

    def heal(self, mailbox: Mailbox, root: int) -> None:
        """Self-healing sweep: re-run Bellman-Ford until the structural
        validator accepts (raises :class:`RecoveryError` if it never does).
        """
        from repro.core.validation import validate_sssp_structure

        ctx, view = self.ctx, self.view

        def accepted() -> bool:
            # One allreduce models the global validity vote.
            ctx.comm.allreduce(1, phase_kind=RECOVERY_PHASE)
            return validate_sssp_structure(ctx.graph, root, view.d).valid

        for _ in range(self.plan.max_healing_sweeps):
            if accepted():
                break
            ctx.metrics.recovery.healing_sweeps += 1
            if ctx.tracer is not None:
                ctx.tracer.instant(
                    "healing-sweep",
                    sweep=int(ctx.metrics.recovery.healing_sweeps),
                )
            view.active = np.nonzero(view.d < INF)[0]
            bellman_ford_stage(ctx, view, mailbox, phase_kind=RECOVERY_PHASE)
        else:
            report = validate_sssp_structure(ctx.graph, root, view.d)
            if not report.valid:
                raise RecoveryError(
                    "self-healing did not converge after "
                    f"{self.plan.max_healing_sweeps} sweeps: "
                    + "; ".join(report.failures)
                )
        view.settle_reached()


def _fault_setup(
    ctx: ExecutionContext, view: VertexView, faults: "FaultPlan | None"
) -> tuple[Mailbox, _RecoveryManager | None]:
    """Build the (mailbox, recovery manager) pair for a run."""
    num_ranks = ctx.machine.num_ranks
    if faults is None:
        return Mailbox(num_ranks, ctx.comm), None
    from repro.spmd.faults import FaultyMailbox

    # The plan is machine-agnostic; rank references only resolve here.
    for event in (*faults.crashes, *faults.stalls):
        if event.rank >= num_ranks:
            raise ValueError(
                f"fault plan references rank {event.rank} but the machine "
                f"has only {num_ranks} ranks"
            )

    mailbox = FaultyMailbox(num_ranks, ctx.comm, faults)
    manager = _RecoveryManager(ctx, view, faults)
    mailbox.on_restart = manager.restore
    return mailbox, manager


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_ranks(
    ctx: ExecutionContext,
    root: int,
    *,
    faults: "FaultPlan | None" = None,
    **defence,
) -> np.ndarray:
    """Solve from ``root`` on ``ctx`` through a mailbox; returns distances.

    Δ = ∞ (``config.is_bellman_ford``) runs the whole solve as the
    Bellman-Ford stage, under its own checkpoint tag. With ``faults``,
    records travel through the fault-injecting reliable mailbox, the
    state is snapshotted at epoch boundaries for crash restart, and the
    post-solve self-healing sweep makes the distances bit-identical to the
    fault-free run's. ``defence`` is documented on
    :class:`~repro.core.defence.Defence`.
    """
    view = build_rank_states(ctx, root)
    mailbox, manager = _fault_setup(ctx, view, faults)
    return drive(
        ctx,
        view,
        mailbox,
        root,
        "spmd-bf" if ctx.config.is_bellman_ford else "spmd-delta",
        perfect=lambda: Mailbox(ctx.machine.num_ranks, ctx.comm),
        recovery=manager,
        **defence,
    )


def spmd_delta_stepping(
    graph: CSRGraph,
    root: int,
    machine: MachineConfig,
    *,
    delta: int = 25,
    use_ios: bool = False,
    config: SolverConfig | None = None,
    faults: "FaultPlan | None" = None,
    trace=None,
    **defence,
) -> tuple[np.ndarray, ExecutionContext]:
    """Rank-local solve on a context of its own; returns (distances,
    context-with-metrics). The context's per-run state is fresh, its
    per-graph tables are the graph's memoised ones (:func:`make_context`),
    so a solve builds no table a previous solve on the graph built.

    ``config`` selects any member of the family; the ``delta``/``use_ios``
    keywords cover the baseline variants. ``faults`` and ``defence`` are
    :func:`run_ranks`'s; ``trace`` (a
    :class:`~repro.obs.tracer.TraceConfig`) attaches the telemetry layer.
    """
    if config is None:
        config = SolverConfig(delta=delta, use_ios=use_ios)
    if trace is not None:
        config = config.evolve(trace=trace)
    ctx = make_context(graph, machine, config)
    return run_ranks(ctx, root, faults=faults, **defence), ctx
