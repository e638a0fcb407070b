"""The rank driver: Bellman-Ford and Δ-stepping over rank-local state.

The entry points here run the one kernel set of :mod:`repro.core`
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

What is the rank driver's own: building the rank states, the fault stack,
and the gather of the result. Both entry points accept a
:class:`~repro.spmd.faults.FaultPlan`: records then travel through a
:class:`~repro.spmd.faults.FaultyMailbox` (reliable sequence/ack/retry
transport over a faulty wire), rank state is checkpointed in memory at
epoch boundaries so a crashed rank can restart, and a post-solve
self-healing sweep re-runs Bellman-Ford iterations until the structural
validator accepts — sound because min-apply relaxation is idempotent,
monotone and therefore self-stabilizing.  With ``faults=None`` the driver
byte-for-byte matches its historical fault-free behaviour. Census
collection, the exact/histogram estimators and the pull phase on directed
graphs need global arrays and stay with the whole-graph driver.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.bellman_ford import bellman_ford_stage
from repro.core.config import SolverConfig
from repro.core.context import ExecutionContext, make_context
from repro.core.defence import Defence
from repro.core.distances import INF
from repro.core.phases import begin_solve, finish_solve, run_stepping
from repro.core.views import VertexView as RankState, build_rank_states, gathered
from repro.graph.csr import CSRGraph
from repro.runtime.comm import RECOVERY_PHASE
from repro.runtime.machine import MachineConfig
from repro.runtime.watchdog import DeadlineConfig, DeadlineExceeded
from repro.spmd.mailbox import Mailbox

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spmd.faults import FaultPlan

__all__ = ["spmd_bellman_ford", "spmd_delta_stepping", "RecoveryError"]


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
    ctx: ExecutionContext,
    machine: MachineConfig,
    states: list[RankState],
    faults: "FaultPlan | None",
) -> tuple[Mailbox, _RecoveryManager | None]:
    """Build the (mailbox, recovery manager) pair for a run."""
    if faults is None:
        return Mailbox(machine.num_ranks, ctx.comm), None
    from repro.spmd.faults import FaultyMailbox

    # The plan is machine-agnostic; rank references only resolve here.
    for event in (*faults.crashes, *faults.stalls):
        if event.rank >= machine.num_ranks:
            raise ValueError(
                f"fault plan references rank {event.rank} but the machine "
                f"has only {machine.num_ranks} ranks"
            )

    mailbox = FaultyMailbox(machine.num_ranks, ctx.comm, faults)
    manager = _RecoveryManager(ctx, states, faults)
    mailbox.on_restart = manager.restore
    return mailbox, manager


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def _solve(
    graph: CSRGraph,
    root: int,
    machine: MachineConfig,
    config: SolverConfig,
    *,
    bf_only: bool,
    faults: "FaultPlan | None",
    deadline: DeadlineConfig | None,
    **checkpointing,
) -> tuple[np.ndarray, ExecutionContext]:
    """Build rank states, mailbox and defence, run the shared loop, heal.

    ``bf_only`` runs the whole solve as the Bellman-Ford stage."""
    ctx = make_context(graph, machine, config)
    if bf_only:
        engine = "spmd-bf"
        solve_span = begin_solve(ctx, engine, root)
    else:
        engine = "spmd-delta"
        solve_span = begin_solve(ctx, engine, root, delta=int(config.delta))
    # Rank states carry the short/long split of the strategy's
    # classification width (Δ for delta, effectively ∞ for radius/ρ),
    # which is the table the context was built with.
    states = build_rank_states(
        ctx.graph, ctx.partition, min(config.classification_width, 2**60), root,
        short_offsets=ctx.short_offsets,
    )
    mailbox, manager = _fault_setup(ctx, machine, states, faults)
    defence = Defence(
        ctx, states, mailbox, root, engine, deadline=deadline, **checkpointing
    )
    # Recovery rounds of a reliable delivery burn deadline budget too.
    mailbox.watchdog = defence.watchdog
    if bf_only:
        defence.stage = "bf"
    if defence.start is not None and manager is not None:
        # Re-snapshot: the in-memory crash checkpoint must cover the
        # *restored* state, not the pre-resume initial one.
        manager.checkpoint()
    try:
        run_stepping(
            ctx, states, mailbox, defence,
            recovery_hook=manager.on_epoch if manager is not None else None,
        )
    except DeadlineExceeded as exc:
        defence.resolve_deadline(exc, Mailbox(machine.num_ranks, ctx.comm))
    else:
        if manager is not None:
            manager.heal(mailbox, root)
    finish_solve(
        ctx, states, root, solve_span,
        faults_injected=faults is not None and faults.injects_anything,
    )
    return gathered(states, "d"), ctx


def spmd_bellman_ford(
    graph: CSRGraph,
    root: int,
    machine: MachineConfig,
    *,
    faults: "FaultPlan | None" = None,
    paranoid: bool = False,
    checkpoint_dir=None,
    checkpoint_interval: int = 1,
    checkpoint_keep: int = 3,
    resume: bool = False,
    deadline: DeadlineConfig | None = None,
    trace=None,
) -> tuple[np.ndarray, ExecutionContext]:
    """Rank-local Bellman-Ford; returns (distances, context-with-metrics).

    With a :class:`~repro.spmd.faults.FaultPlan`, records travel through
    the fault-injecting reliable mailbox, per-iteration checkpoints enable
    crash restart, and the run ends with the self-healing sweep.
    ``checkpoint_dir``/``resume``/``deadline`` enable the durable defense
    layer (see :func:`spmd_delta_stepping`); ``paranoid`` turns on the
    runtime invariant guards; ``trace`` (a
    :class:`~repro.obs.tracer.TraceConfig`) attaches the telemetry layer.
    """
    return _solve(
        graph,
        root,
        machine,
        SolverConfig(delta=2**60, paranoid=paranoid, trace=trace),
        bf_only=True,
        faults=faults,
        deadline=deadline,
        checkpoint_dir=checkpoint_dir,
        checkpoint_interval=checkpoint_interval,
        checkpoint_keep=checkpoint_keep,
        resume=resume,
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
    checkpoint_dir=None,
    checkpoint_interval: int = 1,
    checkpoint_keep: int = 3,
    resume: bool = False,
    deadline: DeadlineConfig | None = None,
    trace=None,
) -> tuple[np.ndarray, ExecutionContext]:
    """Rank-local Δ-stepping; returns (distances, context-with-metrics).

    Pass an explicit ``config`` to enable the full composition (pruning
    with the expectation decision heuristic, forced push/pull modes, and
    hybridization). The simple ``delta``/``use_ios`` keywords cover the
    baseline variants.

    With a :class:`~repro.spmd.faults.FaultPlan`, records travel through
    the fault-injecting reliable mailbox, rank state is checkpointed at
    bucket-epoch boundaries for crash restart, and a post-solve
    self-healing sweep guarantees the returned distances are bit-identical
    to the fault-free run's.

    ``checkpoint_dir`` enables *durable* epoch checkpoints on disk (atomic
    write-rename, integrity digests); ``resume=True`` restarts from the
    newest valid one — the resumed run produces bit-identical distances.
    ``deadline`` arms the superstep watchdog: on budget exhaustion or a
    detected stall, the solve either raises a structured
    :class:`~repro.runtime.watchdog.SolveTimeout` (policy ``"raise"``) or
    collapses the remaining buckets into a Bellman-Ford fixpoint pass
    (policy ``"degrade"``). Set ``config.paranoid`` for runtime invariant
    guards.
    """
    if config is None:
        config = SolverConfig(delta=delta, use_ios=use_ios)
    if trace is not None:
        config = config.evolve(trace=trace)
    if config.pushpull_estimator not in ("expectation",):
        if config.use_pruning and config.pushpull_mode == "auto":
            raise ValueError(
                "the SPMD engine implements the expectation decision "
                "heuristic (rank-local partial sums); use "
                "pushpull_estimator='expectation' or a forced mode"
            )
    if config.collect_census:
        raise ValueError("census collection is not implemented in SPMD mode")
    return _solve(
        graph,
        root,
        machine,
        config,
        bf_only=False,
        faults=faults,
        deadline=deadline,
        checkpoint_dir=checkpoint_dir,
        checkpoint_interval=checkpoint_interval,
        checkpoint_keep=checkpoint_keep,
        resume=resume,
    )
