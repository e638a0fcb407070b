"""SPMD Bellman-Ford and Δ-stepping over rank-local state.

The functions here replay the exact bulk-synchronous schedule of the
orchestrated engine — same scans, same allreduces, same exchanges, same
compute charges, in the same order — but every rank computes from its own
slice only and cross-rank data moves exclusively through the
:class:`~repro.spmd.mailbox.Mailbox`. The equivalence tests assert
bit-identical distances *and* identical metrics/cost against
:mod:`repro.core.delta_stepping`, which is the mechanical proof that the
orchestrated engine's declared traffic equals a true message-passing
execution's.

The SPMD engine covers the full paper composition: edge classification,
IOS, push *and pull* long phases (requests and responses each a mailbox
round), the expectation decision heuristic (rank-local partial sums
combined by allreduce), and hybridization into Bellman-Ford.

Both entry points accept a :class:`~repro.spmd.faults.FaultPlan`: records
then travel through a :class:`~repro.spmd.faults.FaultyMailbox` (reliable
sequence/ack/retry transport over a faulty wire), rank state is
checkpointed at epoch boundaries so a crashed rank can restart, and a
post-solve self-healing sweep re-runs Bellman-Ford iterations until the
structural validator accepts — sound because min-apply relaxation is
idempotent, monotone and therefore self-stabilizing.  With ``faults=None``
the engine byte-for-byte matches its historical fault-free behaviour.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import SolverConfig
from repro.core.context import ExecutionContext, make_context
from repro.core.distances import INF
from repro.core.pushpull import combine_expectation_costs, expectation_partials
from repro.core.relax import apply_relaxations
from repro.core.stepping import Step, make_strategy
from repro.graph.csr import CSRGraph
from repro.runtime.comm import RECOVERY_PHASE, RELAX_RECORD_BYTES, REQUEST_RECORD_BYTES
from repro.runtime.machine import MachineConfig
from repro.runtime.metrics import ComputeKind
from repro.runtime.watchdog import (
    DeadlineConfig,
    DeadlineExceeded,
    SolveTimeout,
    Watchdog,
)
from repro.spmd.checkpoint import CheckpointManager
from repro.spmd.mailbox import Mailbox
from repro.spmd.state import RankState, build_rank_states
from repro.util.ranges import concat_ranges

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spmd.faults import FaultPlan

__all__ = ["spmd_bellman_ford", "spmd_delta_stepping", "RecoveryError"]


class RecoveryError(RuntimeError):
    """Self-healing failed: the structural validator still rejects the
    distances after the configured number of healing sweeps."""


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _charge_compute(
    ctx: ExecutionContext,
    kind: ComputeKind,
    per_rank: list[tuple[np.ndarray, np.ndarray | None]],
    *,
    phase_kind: str,
    count_as_relax: bool = False,
) -> None:
    """Fold per-rank (global vertex ids, units) into one compute record,
    exactly as the orchestrated engine charges it."""
    vertices = (
        np.concatenate([v for v, _ in per_rank])
        if per_rank
        else np.empty(0, np.int64)
    )
    if per_rank and any(u is not None for _, u in per_rank):
        units = np.concatenate(
            [
                u if u is not None else np.ones(v.size, dtype=np.float64)
                for v, u in per_rank
            ]
        )
    else:
        units = None
    ctx.charge(kind, vertices, units, phase_kind=phase_kind,
               count_as_relax=count_as_relax)


def _post_relaxations(
    state: RankState,
    mailbox: Mailbox,
    partition,
    arcs: np.ndarray,
    owner_idx: np.ndarray,
    active: np.ndarray,
    keep: np.ndarray | None = None,
) -> int:
    """Compute (dst, nd) for the given local arcs and post them."""
    dst = state.adj[arcs]
    nd = state.d[active[owner_idx]] + state.weights[arcs]
    if keep is not None:
        dst, nd = dst[keep], nd[keep]
    mailbox.post(state.rank, np.asarray(partition.owner(dst)), dst, nd)
    return dst.size


def _apply_inbox(state: RankState, dst: np.ndarray, nd: np.ndarray) -> np.ndarray:
    """Min-apply received records to the local slice; returns changed locals."""
    changed = apply_relaxations(state.d, state.to_local(dst), nd)
    if state.index is not None and changed.size:
        # Every relaxation site feeds the incremental bucket index here, so
        # membership follows the changed set instead of per-epoch rescans.
        state.index.on_relaxed(changed, state.d)
    return changed


def _active_scan_charge(ctx: ExecutionContext, states: list[RankState]) -> None:
    per_rank = np.array([st.active.size for st in states], dtype=np.int64)
    ctx.charge_scan(per_rank)


def _bf_stage(
    ctx: ExecutionContext,
    states: list[RankState],
    mailbox: Mailbox,
    *,
    phase_kind: str = "bf",
    epoch_hook=None,
) -> None:
    """Bellman-Ford iterations from the states' current active sets.

    ``phase_kind`` is ``"bf"`` for the algorithm's own stage and
    ``"recovery"`` for self-healing sweeps (so their cost is charged to the
    recovery phase).  ``epoch_hook`` is called at the top of every
    iteration — the recovery manager uses it to take epoch checkpoints.
    """
    sync_kind = RECOVERY_PHASE if phase_kind == RECOVERY_PHASE else "bucket"
    tr = ctx.tracer
    iteration = 0
    while True:
        total_active = mailbox.allreduce_sum(
            [st.active.size for st in states], phase_kind=sync_kind
        )
        if total_active == 0:
            break
        if epoch_hook is not None:
            epoch_hook()
        iteration += 1
        span = (
            tr.begin(
                "bf", cat="phase", iteration=iteration, kind=phase_kind,
                active=int(total_active),
            )
            if tr is not None
            else None
        )
        _active_scan_charge(ctx, states)
        gen: list[tuple[np.ndarray, np.ndarray | None]] = []
        for st in states:
            arcs, owner_idx = concat_ranges(
                st.indptr[st.active], st.indptr[st.active + 1]
            )
            _post_relaxations(st, mailbox, ctx.partition, arcs, owner_idx, st.active)
            gen.append(
                (
                    st.to_global(st.active),
                    st.local_degrees(st.active).astype(np.float64),
                )
            )
        _charge_compute(ctx, ComputeKind.BF_RELAX, gen, phase_kind=phase_kind)
        inboxes = mailbox.deliver(RELAX_RECORD_BYTES, phase_kind=phase_kind)
        all_dst = np.concatenate([box[0] for box in inboxes])
        _charge_compute(
            ctx,
            ComputeKind.BF_RELAX,
            [(all_dst, None)],
            phase_kind=phase_kind,
            count_as_relax=True,
        )
        ctx.metrics.note_phase(phase_kind, int(all_dst.size))
        for st, (dst, nd) in zip(states, inboxes):
            st.active = _apply_inbox(st, dst, nd)
        if ctx.guards is not None:
            ctx.guards.after_relaxations(
                _gather_distances(states, ctx.graph.num_vertices)
            )
        if tr is not None:
            tr.end(span, relaxed=int(all_dst.size))


# ----------------------------------------------------------------------
# Fault recovery (checkpoints, rank restart, self-healing sweep)
# ----------------------------------------------------------------------
def _gather_distances(states: list[RankState], num_vertices: int) -> np.ndarray:
    d = np.empty(num_vertices, dtype=np.int64)
    for st in states:
        d[st.lo : st.hi] = st.d
    return d


def _gather_settled(states: list[RankState], num_vertices: int) -> np.ndarray:
    settled = np.empty(num_vertices, dtype=bool)
    for st in states:
        settled[st.lo : st.hi] = st.settled
    return settled


def _restore_states(states: list[RankState], ckpt) -> None:
    """Scatter a durable checkpoint's global arrays back into rank slices."""
    for st in states:
        st.d[:] = ckpt.d[st.lo : st.hi]
        st.settled[:] = ckpt.settled[st.lo : st.hi]
        sel = (ckpt.active >= st.lo) & (ckpt.active < st.hi)
        st.active = (ckpt.active[sel] - st.lo).astype(np.int64)


def _chain(*hooks):
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


class _Defense:
    """Durable checkpoints + deadline watchdog wiring for one SPMD solve.

    Owns the whole defensive-layer state: the
    :class:`~repro.spmd.checkpoint.CheckpointManager` (when a directory was
    given), the :class:`~repro.runtime.watchdog.Watchdog` (when a deadline
    was given, also attached to the mailbox so recovery rounds burn
    budget), the epoch counter and the loop-stage marker, and — on
    ``resume`` — the restoration of rank state, bucket ordinal, hybrid
    marker and mailbox superstep from the newest valid checkpoint.
    """

    def __init__(
        self,
        ctx: ExecutionContext,
        states: list[RankState],
        mailbox: Mailbox,
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
        self.states = states
        self.mailbox = mailbox
        self.epoch = 0
        self.stage = "bucket"
        self.bucket_ordinal = 0
        self.mgr = None
        if checkpoint_dir is not None:
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
        self.watchdog = None
        if deadline is not None and deadline.enabled:
            self.watchdog = Watchdog(deadline)
            mailbox.watchdog = self.watchdog
        self.start = (
            self.mgr.load_resume() if (self.mgr is not None and resume) else None
        )
        if self.start is not None:
            _restore_states(states, self.start)
            self.epoch = self.start.epoch
            self.stage = self.start.stage
            self.bucket_ordinal = self.start.bucket_ordinal
            ctx.metrics.hybrid_switch_bucket = self.start.hybrid_switch_bucket
            if ctx.tracer is not None:
                ctx.tracer.instant(
                    "resume", epoch=int(self.epoch), stage=self.stage,
                    bucket_ordinal=int(self.bucket_ordinal),
                )
            fast_forward = getattr(mailbox, "fast_forward", None)
            if fast_forward is not None:
                # Fault-plan events are pinned to absolute supersteps; do
                # not replay the ones the checkpointed run already survived.
                fast_forward(self.start.superstep)

    @property
    def enabled(self) -> bool:
        return self.mgr is not None or self.watchdog is not None

    # ------------------------------------------------------------------
    def checkpoint(self, *, force: bool = False):
        if self.mgr is None:
            return None
        n = self.ctx.graph.num_vertices
        kwargs = dict(
            epoch=self.epoch,
            stage=self.stage,
            bucket_ordinal=self.bucket_ordinal,
            superstep=getattr(self.mailbox, "superstep", 0),
            d=_gather_distances(self.states, n),
            settled=_gather_settled(self.states, n),
            active=np.concatenate(
                [st.to_global(st.active) for st in self.states]
            ),
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
                settled_total=sum(int(st.settled.sum()) for st in self.states),
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


def _resolve_deadline_spmd(
    ctx: ExecutionContext,
    states: list[RankState],
    root: int,
    defense: _Defense,
    deadline: DeadlineConfig,
    exc: DeadlineExceeded,
) -> None:
    """Apply the deadline policy after the watchdog tripped mid-solve.

    The trip may have happened *inside* a reliable delivery (retry storm):
    at that point the superstep's records have not been applied, so every
    rank's tentative distances are still lengths of real paths. Both
    resolutions build on that: ``degrade`` abandons the (possibly storming)
    mailbox, runs a Bellman-Ford fixpoint over a fresh perfect mailbox —
    charged to the recovery phase — and returns exact distances;
    ``raise`` persists a ``stage="bf"`` checkpoint over the finite set
    (always resumable to the exact answer) and raises the structured
    :class:`~repro.runtime.watchdog.SolveTimeout`.
    """
    n = ctx.graph.num_vertices
    if deadline.policy == "degrade":
        ctx.metrics.degraded_to_bf = True
        if ctx.tracer is not None:
            ctx.tracer.instant("degrade-to-bf", reason=str(exc.reason))
        fresh = Mailbox(len(states), ctx.comm)
        for st in states:
            st.active = np.nonzero(st.d < INF)[0].astype(np.int64)
        _bf_stage(ctx, states, fresh, phase_kind=RECOVERY_PHASE)
        for st in states:
            st.settled = st.d < INF
        return
    for st in states:
        st.active = np.nonzero(st.d < INF)[0].astype(np.int64)
    defense.stage = "bf"
    path = defense.checkpoint(force=True)
    wd = defense.watchdog
    raise SolveTimeout(
        exc.reason,
        distances=_gather_distances(states, n),
        epochs_completed=wd.epochs if wd is not None else 0,
        supersteps=wd.supersteps if wd is not None else 0,
        checkpoint_path=path,
    ) from exc


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
        st = self.states[rank]
        st.d[:] = d
        st.settled[:] = settled
        st.active = active.copy()
        # Distances lawfully rose: the incremental index must be rebuilt
        # from the restored state before the next epoch reads it.
        st.reindex()
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
        n = ctx.graph.num_vertices

        def accepted() -> bool:
            # One allreduce models the global validity vote.
            ctx.comm.allreduce(1, phase_kind=RECOVERY_PHASE)
            return validate_sssp_structure(
                ctx.graph, root, _gather_distances(self.states, n)
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
                st.active = np.nonzero(st.d < INF)[0].astype(np.int64)
            _bf_stage(ctx, self.states, mailbox, phase_kind=RECOVERY_PHASE)
        else:
            report = validate_sssp_structure(
                ctx.graph, root, _gather_distances(self.states, n)
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
    config = SolverConfig(delta=2**60, paranoid=paranoid, trace=trace)
    ctx = make_context(graph, machine, config)
    tr = ctx.tracer
    solve_span = (
        tr.begin(
            "solve", cat="solve", engine="spmd-bf", root=int(root),
            n=int(graph.num_vertices),
        )
        if tr is not None
        else None
    )
    states = build_rank_states(ctx.graph, ctx.partition, 2**60, root)
    mailbox, manager = _fault_setup(ctx, machine, states, faults)
    defense = _Defense(
        ctx,
        states,
        mailbox,
        root,
        "spmd-bf",
        checkpoint_dir=checkpoint_dir,
        checkpoint_interval=checkpoint_interval,
        checkpoint_keep=checkpoint_keep,
        resume=resume,
        deadline=deadline,
    )
    defense.stage = "bf"
    if defense.start is not None and manager is not None:
        # Re-snapshot: the in-memory crash checkpoint must cover the
        # *restored* state, not the pre-resume initial one.
        manager.checkpoint()
    hook = _chain(
        manager.on_epoch if manager is not None else None,
        defense.bf_hook if defense.enabled else None,
    )
    try:
        _bf_stage(ctx, states, mailbox, epoch_hook=hook)
    except DeadlineExceeded as exc:
        _resolve_deadline_spmd(ctx, states, root, defense, deadline, exc)
    else:
        if manager is not None:
            manager.heal(mailbox, root)
    if ctx.guards is not None:
        ctx.guards.check_final(_gather_distances(states, graph.num_vertices), root)
        ctx.guards.check_recovery_separation(
            ctx.metrics,
            allowed=(faults is not None and faults.injects_anything)
            or ctx.metrics.degraded_to_bf,
        )
    if tr is not None:
        tr.end(
            solve_span,
            settled=int(sum(int(st.settled.sum()) for st in states)),
        )
        tr.finish(metrics=ctx.metrics)
    return _gather_distances(states, graph.num_vertices), ctx


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
    delta = config.delta
    strategy = make_strategy(config)
    ctx = make_context(graph, machine, config)
    tr = ctx.tracer
    solve_span = (
        tr.begin(
            "solve", cat="solve", engine="spmd-delta", root=int(root),
            n=int(graph.num_vertices), delta=int(delta),
        )
        if tr is not None
        else None
    )
    # Rank states carry the short/long split of the strategy's
    # classification width (Δ for delta, effectively ∞ for radius/ρ).
    states = build_rank_states(
        ctx.graph, ctx.partition, min(config.classification_width, 2**60), root
    )
    mailbox, manager = _fault_setup(ctx, machine, states, faults)
    defense = _Defense(
        ctx,
        states,
        mailbox,
        root,
        "spmd-delta",
        checkpoint_dir=checkpoint_dir,
        checkpoint_interval=checkpoint_interval,
        checkpoint_keep=checkpoint_keep,
        resume=resume,
        deadline=deadline,
    )
    bucket_ordinal = defense.bucket_ordinal
    if defense.start is not None and manager is not None:
        # Re-snapshot: the in-memory crash checkpoint must cover the
        # *restored* state, not the pre-resume initial one.
        manager.checkpoint()
    if config.incremental_buckets and strategy.uses_bucket_index:
        # Attach after the defense layer so a resumed solve indexes the
        # restored state, not the initial one. Only the delta strategy
        # can use the index — it is keyed on the fixed bucket width.
        for st in states:
            st.attach_index(delta)
    strategy.prepare_spmd(ctx, states)
    bf_hook = _chain(
        manager.on_epoch if manager is not None else None,
        defense.bf_hook if defense.enabled else None,
    )

    try:
        if defense.stage == "bf":
            # Resuming past the hybrid switch (or a forced timeout
            # checkpoint): run the Bellman-Ford tail directly.
            _bf_stage(ctx, states, mailbox, epoch_hook=bf_hook)
            for st in states:
                st.settled |= st.d < INF
        else:
            while True:
                # Next-step search: full unsettled scan, then the
                # strategy's selection collective over rank candidates.
                total_unsettled = sum(st.unsettled_count() for st in states)
                ctx.scan_all_ranks(total_unsettled)
                step = strategy.next_step_spmd(
                    ctx, states, mailbox, bucket_ordinal
                )
                if step is None:
                    break
                if ctx.guards is not None:
                    ctx.guards.on_bucket_start(step.key)
                if manager is not None:
                    manager.on_epoch()
                _process_epoch_spmd(
                    ctx, states, mailbox, step, bucket_ordinal, strategy
                )
                bucket_ordinal += 1
                defense.bucket_ordinal = bucket_ordinal
                if config.use_hybrid:
                    settled_total = mailbox.allreduce_sum(
                        [
                            st.num_local - st.num_unsettled
                            if st.index is not None
                            else int(st.settled.sum())
                            for st in states
                        ]
                    )
                    n = ctx.graph.num_vertices
                    if n == 0 or settled_total / n > config.tau:
                        ctx.metrics.hybrid_switch_bucket = step.key
                        for st in states:
                            st.active = np.nonzero(
                                ~st.settled & (st.d < INF)
                            )[0].astype(np.int64)
                        defense.stage = "bf"
                        if defense.enabled:
                            defense.on_epoch()
                        _bf_stage(ctx, states, mailbox, epoch_hook=bf_hook)
                        for st in states:
                            st.settled |= st.d < INF
                        break
                if defense.enabled:
                    defense.on_epoch()
    except DeadlineExceeded as exc:
        _resolve_deadline_spmd(ctx, states, root, defense, deadline, exc)
    else:
        if manager is not None:
            manager.heal(mailbox, root)

    if ctx.guards is not None:
        ctx.guards.check_final(_gather_distances(states, graph.num_vertices), root)
        ctx.guards.check_recovery_separation(
            ctx.metrics,
            allowed=(faults is not None and faults.injects_anything)
            or ctx.metrics.degraded_to_bf,
        )
    if tr is not None:
        tr.end(
            solve_span,
            settled=int(sum(int(st.settled.sum()) for st in states)),
        )
        tr.finish(metrics=ctx.metrics)
    return _gather_distances(states, graph.num_vertices), ctx


# ----------------------------------------------------------------------
# Epoch processing
# ----------------------------------------------------------------------
def _window_members_local(st: RankState, step: Step) -> np.ndarray:
    if st.index is not None:
        return st.index.members(step.key)
    mask = (st.d >= step.lo) & (st.d < step.hi) & ~st.settled
    return np.nonzero(mask)[0].astype(np.int64)


def _decide_mode_spmd(
    ctx: ExecutionContext,
    states: list[RankState],
    mailbox: Mailbox,
    members_per_rank: list[np.ndarray],
    k: int,
    bucket_ordinal: int,
) -> str:
    """The expectation decision heuristic from rank-local partial sums.

    Equals :func:`repro.core.pushpull.estimate_models` *by construction*:
    both call :func:`repro.core.pushpull.expectation_partials` per rank and
    fold the partials with
    :func:`repro.core.pushpull.combine_expectation_costs`, so the per-bucket
    decision is bit-identical between the engines (a regression test pins
    this on every preset). Charges the same two decision allreduces.
    """
    cfg = ctx.config
    if not cfg.use_pruning:
        return "push"
    if cfg.pushpull_mode == "push":
        return "push"
    if cfg.pushpull_mode == "pull":
        return "pull"
    if cfg.pushpull_mode == "sequence" and bucket_ordinal < len(
        cfg.pushpull_sequence
    ):
        return cfg.pushpull_sequence[bucket_ordinal]

    delta = cfg.delta
    lo_d = k * delta
    hi_d = lo_d + delta
    w_max = max(ctx.graph.max_weight, 1)

    push_partials: list[float] = []
    pull_partials: list[float] = []
    for st, members in zip(states, members_per_rank):
        later = np.nonzero(~st.settled & (st.d >= hi_d))[0]
        if cfg.use_ios:
            # Undirected rank-local adjacency doubles as in-edges.
            total_in = st.local_degrees(later)
            long_in = None
        else:
            total_in = None
            long_in = st.local_degrees(later) - st.short_offsets[later]
        push_r, pull_r = expectation_partials(
            cfg,
            w_max,
            lo_d,
            st.local_degrees(members) - st.short_offsets[members],
            st.d[later],
            total_in,
            long_in,
        )
        push_partials.append(push_r)
        pull_partials.append(pull_r)

    est = combine_expectation_costs(cfg, ctx.machine, push_partials, pull_partials)
    ctx.comm.allreduce(2, phase_kind="long")
    if ctx.tracer is not None:
        ctx.tracer.instant(
            "pushpull-decision",
            bucket=int(k),
            mode=est.choice,
            estimator=est.estimator,
            push_cost=est.push_cost,
            pull_cost=est.pull_cost,
        )
    return est.choice


def _long_phase_push_spmd(
    ctx: ExecutionContext,
    states: list[RankState],
    mailbox: Mailbox,
    members_per_rank: list[np.ndarray],
    k: int,
) -> int:
    """Push-model long phase; returns the relaxation count."""
    cfg = ctx.config
    hi_d = (k + 1) * cfg.delta
    gen: list[tuple[np.ndarray, np.ndarray | None]] = []
    for st, members in zip(states, members_per_rank):
        long_starts = st.indptr[members] + st.short_offsets[members]
        long_ends = st.indptr[members + 1]
        arcs, owner_idx = concat_ranges(long_starts, long_ends)
        _post_relaxations(st, mailbox, ctx.partition, arcs, owner_idx, members)
        scanned = (long_ends - long_starts).astype(np.float64)
        if cfg.use_ios:
            s_arcs, s_owner = concat_ranges(st.indptr[members], long_starts)
            s_nd = st.d[members[s_owner]] + st.weights[s_arcs]
            outer = s_nd >= hi_d
            if ctx.guards is not None:
                ctx.guards.check_ios_coverage(int(s_arcs.size), int(s_nd.size))
                ctx.guards.check_ios_partition(s_nd, hi_d, ~outer)
            dst = st.adj[s_arcs][outer]
            nd = s_nd[outer]
            mailbox.post(st.rank, np.asarray(ctx.partition.owner(dst)), dst, nd)
            scanned += st.short_offsets[members].astype(np.float64)
        gen.append((st.to_global(members), scanned))
    _charge_compute(ctx, ComputeKind.LONG_PUSH_RELAX, gen, phase_kind="long")
    inboxes = mailbox.deliver(RELAX_RECORD_BYTES, phase_kind="long")
    all_dst = np.concatenate([box[0] for box in inboxes])
    _charge_compute(
        ctx,
        ComputeKind.LONG_PUSH_RELAX,
        [(all_dst, None)],
        phase_kind="long",
        count_as_relax=True,
    )
    ctx.metrics.note_phase("long", int(all_dst.size))
    for st, (dst, nd) in zip(states, inboxes):
        _apply_inbox(st, dst, nd)
    return int(all_dst.size)


def _long_phase_pull_spmd(
    ctx: ExecutionContext,
    states: list[RankState],
    mailbox: Mailbox,
    members_per_rank: list[np.ndarray],
    k: int,
) -> dict[str, int]:
    """Pull-model long phase: request and response mailbox rounds.

    Returns the phase stats (requests/responses/relaxations). Only valid
    for undirected graphs (rank-local adjacency doubles as in-edges),
    matching the paper's setting.
    """
    cfg = ctx.config
    delta = cfg.delta
    lo_d = k * delta
    hi_d = lo_d + delta

    # Round 1: later-bucket vertices issue requests along eq.-(1) arcs.
    gen: list[tuple[np.ndarray, np.ndarray | None]] = []
    total_later = 0
    for st in states:
        later = np.nonzero(~st.settled & (st.d >= hi_d))[0].astype(np.int64)
        total_later += later.size
        if cfg.use_ios:
            starts = st.indptr[later]
        else:
            starts = st.indptr[later] + st.short_offsets[later]
        ends = st.indptr[later + 1]
        arcs, owner_idx = concat_ranges(starts, ends)
        req_u = st.adj[arcs]
        req_w = st.weights[arcs]
        passes = req_w < st.d[later[owner_idx]] - lo_d
        req_u = req_u[passes]
        req_w = req_w[passes]
        req_v = st.to_global(later[owner_idx[passes]])
        mailbox.post(
            st.rank, np.asarray(ctx.partition.owner(req_u)), req_u, req_v, req_w
        )
        gen_units = np.bincount(owner_idx[passes], minlength=later.size).astype(
            np.float64
        )
        gen_units += 1.0
        gen.append((st.to_global(later), gen_units))

    if total_later == 0:
        ctx.metrics.note_phase("long", 0)
        return {"mode": "pull", "relaxations": 0, "requests": 0, "responses": 0}

    _charge_compute(ctx, ComputeKind.PULL_REQUEST, gen, phase_kind="long")
    req_inboxes = mailbox.deliver(
        REQUEST_RECORD_BYTES, phase_kind="long", num_columns=3
    )
    all_req_u = np.concatenate([box[0] for box in req_inboxes])
    _charge_compute(
        ctx,
        ComputeKind.PULL_REQUEST,
        [(all_req_u, None)],
        phase_kind="long",
        count_as_relax=True,
    )

    # Round 2: owners of current-bucket sources respond.
    for st, (req_u, req_v, req_w) in zip(states, req_inboxes):
        if req_u.size == 0:
            continue
        local_u = st.to_local(req_u)
        lo_mask = (
            st.settled[local_u]
            & (st.d[local_u] >= lo_d)
            & (st.d[local_u] < hi_d)
        )
        resp_v = req_v[lo_mask]
        nd = st.d[local_u[lo_mask]] + req_w[lo_mask]
        mailbox.post(st.rank, np.asarray(ctx.partition.owner(resp_v)), resp_v, nd)

    resp_inboxes = mailbox.deliver(RELAX_RECORD_BYTES, phase_kind="long")
    all_resp_v = np.concatenate([box[0] for box in resp_inboxes])
    _charge_compute(
        ctx,
        ComputeKind.PULL_RESPONSE,
        [(all_resp_v, None)],
        phase_kind="long",
        count_as_relax=True,
    )
    ctx.metrics.note_phase("long", int(all_req_u.size + all_resp_v.size))
    for st, (dst, nd) in zip(states, resp_inboxes):
        _apply_inbox(st, dst, nd)
    return {
        "mode": "pull",
        "relaxations": int(all_req_u.size + all_resp_v.size),
        "requests": int(all_req_u.size),
        "responses": int(all_resp_v.size),
    }


def _process_epoch_spmd(
    ctx: ExecutionContext,
    states: list[RankState],
    mailbox: Mailbox,
    step: Step,
    bucket_ordinal: int,
    strategy,
) -> None:
    cfg = ctx.config
    k = step.key
    lo_d = step.lo
    hi_d = step.hi
    tr = ctx.tracer
    epoch_span = (
        tr.begin(
            f"bucket {k}", cat="epoch", bucket=int(k),
            ordinal=int(bucket_ordinal),
        )
        if tr is not None
        else None
    )

    # Epoch start: identify members (scan of the unsettled set).
    total_unsettled = sum(st.unsettled_count() for st in states)
    ctx.scan_all_ranks(total_unsettled)
    for st in states:
        st.active = _window_members_local(st, step)

    # --- Stage 1: short phases.
    while True:
        total_active = mailbox.allreduce_sum([st.active.size for st in states])
        if total_active == 0:
            break
        short_span = (
            tr.begin("short", cat="phase", bucket=int(k), active=int(total_active))
            if tr is not None
            else None
        )
        _active_scan_charge(ctx, states)
        gen: list[tuple[np.ndarray, np.ndarray | None]] = []
        for st in states:
            starts = st.indptr[st.active]
            ends = starts + st.short_offsets[st.active]
            arcs, owner_idx = concat_ranges(starts, ends)
            keep = None
            if cfg.use_ios:
                nd = st.d[st.active[owner_idx]] + st.weights[arcs]
                keep = nd < hi_d
                if ctx.guards is not None:
                    ctx.guards.check_ios_coverage(int(arcs.size), int(nd.size))
                    ctx.guards.check_ios_partition(nd, hi_d, keep)
            _post_relaxations(
                st, mailbox, ctx.partition, arcs, owner_idx, st.active, keep
            )
            gen.append(
                (st.to_global(st.active), (ends - starts).astype(np.float64))
            )
        _charge_compute(ctx, ComputeKind.SHORT_RELAX, gen, phase_kind="short")
        inboxes = mailbox.deliver(RELAX_RECORD_BYTES, phase_kind="short")
        all_dst = np.concatenate([box[0] for box in inboxes])
        _charge_compute(
            ctx,
            ComputeKind.SHORT_RELAX,
            [(all_dst, None)],
            phase_kind="short",
            count_as_relax=True,
        )
        ctx.metrics.note_phase("short", int(all_dst.size))
        for st, (dst, nd) in zip(states, inboxes):
            changed = _apply_inbox(st, dst, nd)
            if changed.size:
                in_bucket = (st.d[changed] >= lo_d) & (st.d[changed] < hi_d)
                st.active = changed[in_bucket]
            else:
                st.active = changed
        if ctx.guards is not None:
            ctx.guards.after_relaxations(
                _gather_distances(states, ctx.graph.num_vertices)
            )
        if tr is not None:
            tr.end(short_span, relaxed=int(all_dst.size))

    # --- Settle and run the long phase.
    members_per_rank: list[np.ndarray] = []
    members_count = 0
    for st in states:
        members = _window_members_local(st, step)
        st.settled[members] = True
        if st.index is not None:
            st.index.on_settled(members)
            st.num_unsettled -= int(members.size)
        members_per_rank.append(members)
        members_count += members.size
    if ctx.guards is not None:
        n = ctx.graph.num_vertices
        ctx.guards.check_settled(
            _gather_distances(states, n), _gather_settled(states, n)
        )

    if strategy.short_phase_only:
        # The windowed strategies classify every edge short: no long
        # phase exists (mirrors the orchestrated engine's skip).
        mode = "none"
        stats: dict[str, int | str] = {"mode": "none", "relaxations": 0}
    else:
        long_span = (
            tr.begin("long", cat="phase", bucket=int(k)) if tr is not None else None
        )
        mode = _decide_mode_spmd(
            ctx, states, mailbox, members_per_rank, k, bucket_ordinal
        )
        if mode == "push":
            if members_count == 0:
                ctx.metrics.note_phase("long", 0)
                stats = {"mode": "push", "relaxations": 0}
            else:
                relax = _long_phase_push_spmd(
                    ctx, states, mailbox, members_per_rank, k
                )
                stats = {"mode": "push", "relaxations": relax}
        else:
            stats = _long_phase_pull_spmd(
                ctx, states, mailbox, members_per_rank, k
            )
        if tr is not None:
            tr.end(long_span, mode=mode, relaxed=int(stats.get("relaxations", 0)))
        if ctx.guards is not None:
            ctx.guards.after_relaxations(
                _gather_distances(states, ctx.graph.num_vertices)
            )
    if ctx.guards is not None:
        for st in states:
            if st.index is not None:
                ctx.guards.check_bucket_index(st.index, st.d, st.settled)
    stats["bucket"] = k
    stats["members"] = int(members_count)
    ctx.metrics.note_bucket(stats)
    if tr is not None:
        tr.end(epoch_span, members=int(members_count), mode=mode)
