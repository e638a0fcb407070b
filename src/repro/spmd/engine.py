"""The rank driver: the Δ-stepping family over rank-local state.

:func:`run_ranks` runs the one kernel set of :mod:`repro.core`
(:mod:`~repro.core.phases`, :mod:`~repro.core.pruning`,
:mod:`~repro.core.bellman_ford`) on one
:class:`~repro.core.views.VertexView` per rank, with a
:class:`~repro.spmd.mailbox.Mailbox` as the transport: every rank computes
from its own slice only and cross-rank data moves exclusively through the
mailbox. The whole-graph driver (:mod:`repro.core.delta_stepping`) runs the
same kernels on a single view and merely *declares* that traffic; the
transport-parity test asserts the two produce bit-identical distances and
field-for-field identical accounting records, which is the mechanical
proof that declared traffic equals a true message-passing execution's.

What is the rank driver's own: building the rank states and the fault
stack. :func:`run_ranks` works on a prepared context — it is what
:meth:`BatchSolver.solve(root, faults=plan)
<repro.core.solver.BatchSolver.solve>` runs on a fork of its template —
and :func:`spmd_delta_stepping` is ``make_context`` + ``run_ranks`` for
callers that want the context back. With a
:class:`~repro.spmd.faults.FaultPlan` records travel through a
:class:`~repro.spmd.faults.FaultyMailbox` (reliable sequence/ack/retry
transport over a faulty wire), rank state is checkpointed in memory at
epoch boundaries so a crashed rank can restart, and a post-solve
self-healing sweep re-runs Bellman-Ford iterations until the structural
validator accepts — sound because min-apply relaxation is idempotent,
monotone and therefore self-stabilizing. Census collection, the
exact/histogram estimators and the pull phase on directed graphs need
global arrays and stay with the whole-graph driver; :func:`run_ranks`
rejects them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.bellman_ford import bellman_ford_stage
from repro.core.config import SolverConfig
from repro.core.context import ExecutionContext, make_context
from repro.core.distances import INF
from repro.core.phases import drive
from repro.core.views import VertexView as RankState, build_rank_states, gathered
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

    Holds epoch-level checkpoints of every rank's :class:`RankState`
    (distances, settled flags, active set), restores a rank from the last
    checkpoint when the mailbox reports its crash, and runs the post-solve
    self-healing sweep: Bellman-Ford iterations, charged to the
    ``recovery`` phase, repeated until the structural validator accepts.
    Restoring a checkpoint can only *raise* tentative distances (they are
    monotone non-increasing over time), so every tentative distance remains
    the length of a real path and the sweep's fixpoint is exactly the true
    shortest-distance array.
    """

    def __init__(
        self, ctx: ExecutionContext, states: list[RankState], plan: "FaultPlan"
    ) -> None:
        self.ctx = ctx
        self.states = states
        self.plan = plan
        self._epoch = 0
        self._snap: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.checkpoint()

    def checkpoint(self) -> None:
        """Snapshot every rank's (d, settled, active)."""
        self._snap = [
            (st.d.copy(), st.settled.copy(), st.active.copy())
            for st in self.states
        ]
        self.ctx.metrics.recovery.checkpoints_taken += 1

    def on_epoch(self) -> None:
        """Epoch boundary: checkpoint every ``checkpoint_interval`` epochs."""
        if self._epoch % self.plan.checkpoint_interval == 0:
            self.checkpoint()
        self._epoch += 1

    def restore(self, rank: int) -> None:
        """Roll ``rank`` back to the last checkpoint (crash restart)."""
        d, settled, active = self._snap[rank]
        # Distances lawfully rise: the view rebuilds its incremental index
        # from the restored state before the next epoch reads it.
        self.states[rank].restore(d, settled, active.copy())
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

        ctx = self.ctx

        def accepted() -> bool:
            # One allreduce models the global validity vote.
            ctx.comm.allreduce(1, phase_kind=RECOVERY_PHASE)
            return validate_sssp_structure(
                ctx.graph, root, gathered(self.states, "d")
            ).valid

        for _ in range(self.plan.max_healing_sweeps):
            if accepted():
                break
            ctx.metrics.recovery.healing_sweeps += 1
            if ctx.tracer is not None:
                ctx.tracer.instant(
                    "healing-sweep",
                    sweep=int(ctx.metrics.recovery.healing_sweeps),
                )
            for st in self.states:
                st.active = np.nonzero(st.d < INF)[0]
            bellman_ford_stage(
                ctx, self.states, mailbox, phase_kind=RECOVERY_PHASE
            )
        else:
            report = validate_sssp_structure(
                ctx.graph, root, gathered(self.states, "d")
            )
            if not report.valid:
                raise RecoveryError(
                    "self-healing did not converge after "
                    f"{self.plan.max_healing_sweeps} sweeps: "
                    + "; ".join(report.failures)
                )
        for st in self.states:
            st.settled = st.d < INF


def _fault_setup(
    ctx: ExecutionContext, states: list[RankState], faults: "FaultPlan | None"
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
    manager = _RecoveryManager(ctx, states, faults)
    mailbox.on_restart = manager.restore
    return mailbox, manager


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def _check_rank_local(ctx: ExecutionContext) -> None:
    """Reject what rank views cannot compute from their own slice."""
    cfg = ctx.config
    if cfg.collect_census:
        raise ValueError("census collection is not implemented in SPMD mode")
    if not cfg.use_pruning or cfg.pushpull_mode == "push":
        return
    if cfg.pushpull_mode == "auto" and cfg.pushpull_estimator != "expectation":
        raise ValueError(
            "the SPMD engine implements the expectation decision "
            "heuristic (rank-local partial sums); use "
            "pushpull_estimator='expectation' or a forced mode"
        )
    if not ctx.graph.undirected:
        raise ValueError(
            "the pull phase on a directed graph scans the reverse rows, "
            "which rank views do not hold; use pushpull_mode='push' or the "
            "whole-graph driver"
        )


def run_ranks(
    ctx: ExecutionContext,
    root: int,
    *,
    faults: "FaultPlan | None" = None,
    **defence,
) -> np.ndarray:
    """Solve from ``root`` on ``ctx``, one view per rank; returns distances.

    Δ = ∞ (``config.is_bellman_ford``) runs the whole solve as the
    Bellman-Ford stage, under its own checkpoint tag. With ``faults``,
    records travel through the fault-injecting reliable mailbox, rank
    state is snapshotted at epoch boundaries for crash restart, and the
    post-solve self-healing sweep makes the distances bit-identical to the
    fault-free run's. ``defence`` is documented on
    :class:`~repro.core.defence.Defence`.
    """
    _check_rank_local(ctx)
    cfg = ctx.config
    # Rank states carry the short/long split of the strategy's
    # classification width (Δ for delta, effectively ∞ for radius/ρ),
    # which is the table the context was built with.
    states = build_rank_states(
        ctx.graph, ctx.partition, min(cfg.classification_width, 2**60), root,
        short_offsets=ctx.short_offsets,
    )
    mailbox, manager = _fault_setup(ctx, states, faults)
    return drive(
        ctx,
        states,
        mailbox,
        root,
        "spmd-bf" if cfg.is_bellman_ford else "spmd-delta",
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
    """Rank-local solve on a fresh context; returns (distances,
    context-with-metrics).

    ``config`` selects any member of the family (pruning with the
    expectation decision heuristic, forced push/pull modes, hybridization,
    Δ = ∞, the windowed strategies); the ``delta``/``use_ios`` keywords
    cover the baseline variants. ``faults`` and ``defence`` are
    :func:`run_ranks`'s; ``trace`` (a
    :class:`~repro.obs.tracer.TraceConfig`) attaches the telemetry layer.
    """
    if config is None:
        config = SolverConfig(delta=delta, use_ios=use_ios)
    if trace is not None:
        config = config.evolve(trace=trace)
    ctx = make_context(graph, machine, config)
    return run_ranks(ctx, root, faults=faults, **defence), ctx
