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

What is the rank driver's own is the wire. :func:`run_ranks` works on a
prepared context — it is what :meth:`BatchSolver.solve(root, faults=plan)
<repro.core.solver.BatchSolver.solve>` runs on a fork of its template — and
:func:`spmd_delta_stepping` is ``make_context`` + ``run_ranks`` for callers
that want the context back (``make_context`` reads its per-graph tables off
the graph's memo, so the per-solve cost is the per-run state). With a
:class:`~repro.spmd.faults.FaultPlan` records travel through a
:class:`~repro.spmd.faults.FaultyMailbox` (reliable sequence/ack/resend
transport over a faulty wire), and the solve's
:class:`~repro.core.defence.Defence` snapshots the state before every epoch
so a crashed rank can restart, then heals the distances after the loop.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SolverConfig
from repro.core.context import ExecutionContext, make_context
from repro.core.phases import drive

# The one view constructor, under the name the stack benchmark's span
# recorder wraps on this module (``spmd.rank_state_build_ms``).
from repro.core.views import rooted_whole_view as build_rank_states
from repro.graph.csr import CSRGraph
from repro.runtime.machine import MachineConfig
from repro.spmd.faults import FaultPlan, FaultyMailbox
from repro.spmd.mailbox import Mailbox

__all__ = ["run_ranks", "spmd_delta_stepping"]


def run_ranks(
    ctx: ExecutionContext,
    root: int,
    *,
    faults: FaultPlan | None = None,
    **defence,
) -> np.ndarray:
    """Solve from ``root`` on ``ctx`` through a mailbox; returns distances.

    Δ = ∞ (``config.is_bellman_ford``) runs the whole solve as the
    Bellman-Ford stage, under its own checkpoint tag. With ``faults``,
    records travel through the fault-injecting reliable mailbox and the
    solve's :class:`~repro.core.defence.Defence` (whose options
    ``defence`` are) restarts crashed ranks and heals the distances to the
    fault-free run's, bit for bit.
    """
    view = build_rank_states(ctx, root)
    p = ctx.machine.num_ranks
    mailbox = (
        Mailbox(p, ctx.comm) if faults is None else FaultyMailbox(p, ctx.comm, faults)
    )
    return drive(
        ctx,
        view,
        mailbox,
        root,
        "spmd-bf" if ctx.config.is_bellman_ford else "spmd-delta",
        perfect=lambda: Mailbox(p, ctx.comm),
        faults=faults,
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
    faults: FaultPlan | None = None,
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
