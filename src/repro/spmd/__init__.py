"""True message-passing (SPMD) execution mode.

The whole-graph driver (:mod:`repro.core.delta_stepping`) runs the phase
kernels on one view of the entire graph and *declares* the traffic a
distributed run would generate to the accounting communicator. That style
is fast and debuggable, but on its own its honesty would rest on an
argument, not a mechanism.

This subpackage provides the mechanism: a rank driver that makes the *same*
kernel pass with a mailbox for the transport, so that *all* cross-rank
information flows through one bulk exchange per superstep — a rank's block of
the state is a range of the whole-graph arrays, written only from records
that arrived addressed to it (``tests/spmd/test_locality.py`` drops every
cross-rank record and checks nothing leaks). The transport-parity test
asserts bit-identical distances *and field-for-field identical accounting
records* between the two, which is the equivalence witness for the whole
simulation approach (DESIGN.md §5).

Because every cross-rank byte goes through the mailbox, the rank driver is
also the natural host for the fault-injection and recovery layer
(:mod:`repro.spmd.faults`, DESIGN.md §7): a :class:`FaultPlan` drives a
:class:`FaultyMailbox` — the :class:`Mailbox` with a sequence/ack/resend
protocol over a wire that loses, duplicates, reorders and delays records or
crashes whole ranks — while the solve's epoch snapshots and self-healing
sweeps (:class:`~repro.core.defence.Defence`) recover the exact fault-free
answer. Both mailboxes take records one way, the kernels'
``send``/``exchange``. A plan is handed to the front door:
``solve_sssp(..., faults=plan)``.
"""

from repro.core.defence import RecoveryError
from repro.spmd.checkpoint import (
    CheckpointError,
    CheckpointManager,
    SolveCheckpoint,
    ensure_checkpoint_dir,
    latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.spmd.engine import run_ranks, spmd_delta_stepping
from repro.spmd.faults import FaultPlan, FaultyMailbox, RankCrash, RankStall
from repro.spmd.mailbox import Mailbox

__all__ = [
    "CheckpointError",
    "CheckpointManager",
    "FaultPlan",
    "FaultyMailbox",
    "Mailbox",
    "RankCrash",
    "RankStall",
    "RecoveryError",
    "SolveCheckpoint",
    "ensure_checkpoint_dir",
    "latest_checkpoint",
    "load_checkpoint",
    "run_ranks",
    "save_checkpoint",
    "spmd_delta_stepping",
]
