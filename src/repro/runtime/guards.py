"""Runtime invariant guards for SSSP solves (DESIGN.md §8).

The paper's correctness argument (Section III) rests on a handful of
skeleton invariants that hold for *every* member of the algorithm family
— plain Δ-stepping, pruning, IOS, the load-balanced variants, and the
hybrid Bellman-Ford tail alike (Dong et al.'s stepping-framework
observation). These guards check them *while the solve runs* instead of
only validating the final distance array:

- **Bucket monotonicity** — the bucket loop processes strictly increasing
  bucket indices; a repeated or decreasing index means re-expansion of
  settled work.
- **Distance monotonicity** — min-apply relaxation only ever lowers
  tentative distances; any elementwise increase outside an explicit
  rollback is corruption. Where a relaxation round hands in the changed
  set its apply returned (the short phases and the Bellman-Ford stage),
  that set must be exactly the vertices whose distance fell, inside the
  round's window when it has one.
- **Settled finality** — once a vertex settles, its distance never
  changes and its settled flag never clears.
- **IOS edge conservation** — the inner/outer short-arc split partitions
  proposals exactly: inner targets fall below the bucket boundary, outer
  targets at or above it, and together they cover every scanned arc. The
  kernels read the inner arcs off a prefix table without testing an arc,
  so the guard re-derives the per-arc filter over every short arc and
  holds the table's prefixes to it.
- **Recovery-traffic separation** — a fault-free, non-degraded solve
  charges zero bytes/phases/supersteps to the recovery phase, so PR 1's
  accounting can never leak into the paper-facing numbers.
- **Unsettled-set equivalence** — the set of reached unsettled vertices
  the vertex view keeps from the changed sets
  (:meth:`~repro.core.views.VertexView.unsettled`), which every step's
  window and members are read from, must equal the from-scratch scan
  after every epoch.

The first three describe an undisturbed run: a crash rollback re-baselines
distance monotonicity and suspends bucket monotonicity and settled finality
for the rest of that solve (:meth:`InvariantGuards.on_rollback`).

Guards are built only when ``SolverConfig.paranoid`` is set (CLI
``--paranoid``); every hook site in the engines is gated on
``ctx.guards is not None``, so a disabled run executes not one extra
comparison. Guards charge no metrics and send no traffic — enabling them
must not perturb the accounting the SPMD-vs-orchestrated equality tests
pin down.

A tripped guard raises :class:`GuardViolation` (an ``AssertionError``
subclass: these are internal-consistency failures, not user errors).
"""

from __future__ import annotations

import numpy as np

from repro.core.distances import INF
from repro.util.ranges import concat_ranges

__all__ = ["GuardViolation", "InvariantGuards"]


class GuardViolation(AssertionError):
    """A runtime invariant of the solve was violated."""


class InvariantGuards:
    """Per-solve monitor state for the invariants above.

    One instance lives on the :class:`~repro.core.context.ExecutionContext`
    for the duration of a solve. All checks are vectorised full-array
    comparisons — O(n) per superstep, fine at paranoid-debugging scale.
    """

    def __init__(self, num_vertices: int, delta: int) -> None:
        self.num_vertices = num_vertices
        self.delta = delta
        self._last_bucket: int | None = None
        self._d_prev: np.ndarray | None = None
        self._settled_prev: np.ndarray | None = None
        self._d_at_settle: np.ndarray | None = None
        self._rolled_back = False
        self.checks = 0
        self.violations = 0

    # ------------------------------------------------------------------
    def _fail(self, message: str) -> None:
        self.violations += 1
        raise GuardViolation(message)

    # -- bucket monotonicity -------------------------------------------
    def on_bucket_start(self, k: int) -> None:
        """The bucket loop is about to process bucket index ``k``."""
        if self._rolled_back:
            return
        self.checks += 1
        if self._last_bucket is not None and k <= self._last_bucket:
            self._fail(
                f"bucket monotonicity violated: processing bucket {k} after "
                f"bucket {self._last_bucket} (indices must strictly increase)"
            )
        self._last_bucket = k

    # -- distance monotonicity -----------------------------------------
    def after_relaxations(
        self,
        d: np.ndarray,
        changed: np.ndarray | None = None,
        window: tuple[int, int] | None = None,
    ) -> None:
        """A relaxation step finished; ``d`` is the new global array.

        ``changed`` is what the step's one apply returned — with
        ``window=(lo, hi)``, the changed vertices whose new distance lies
        inside it. It must be exactly the vertices whose distance fell
        since the last snapshot (within the window), sorted: the next
        phase's active set is read off it. Counted as part of the
        monotonicity check, and skipped with it right after a rollback."""
        self.checks += 1
        if self._d_prev is not None:
            raised = d > self._d_prev
            if raised.any():
                v = int(np.flatnonzero(raised)[0])
                self._fail(
                    f"distance monotonicity violated: d[{v}] rose from "
                    f"{int(self._d_prev[v])} to {int(d[v])} — relaxation "
                    "must only ever lower tentative distances"
                )
            if changed is not None:
                self._check_changed(d, changed, window)
        self._d_prev = d.copy()

    def _check_changed(
        self, d: np.ndarray, changed: np.ndarray, window: tuple[int, int] | None
    ) -> None:
        fell = np.flatnonzero(d < self._d_prev)
        if window is not None:
            lo, hi = window
            d_fell = d[fell]
            fell = fell[(d_fell >= lo) & (d_fell < hi)]
        if not np.array_equal(changed, fell):
            diff = np.setxor1d(changed, fell)
            at = f"vertex {int(diff[0])}" if diff.size else "the order or a repeat"
            self._fail(
                "changed-set equivalence violated: the apply's changed set "
                f"and the vertices whose distance fell disagree at {at} "
                f"({changed.size} ids against {fell.size})"
            )

    def on_rollback(self) -> None:
        """A legitimate state rollback happened (rank restart from a
        recovery checkpoint); distances may lawfully rise once, so the
        distance-monotonicity baseline is re-taken from the restored state.

        Bucket monotonicity and settled finality are suspended for the rest
        of the solve: the restarted rank lawfully re-opens the bucket it
        lost, and vertices other ranks settled on a path the crash cut are
        lowered later. What vouches for a crashed run is the self-healing
        sweep (DESIGN.md §7) and the end-of-solve checks, which keep
        running."""
        self._d_prev = None
        self._rolled_back = True

    # -- settled finality ----------------------------------------------
    def check_settled(self, d: np.ndarray, settled: np.ndarray) -> None:
        """The settle step finished for this epoch."""
        if self._rolled_back:
            return
        self.checks += 1
        if self._settled_prev is not None:
            unsettled = self._settled_prev & ~settled
            if unsettled.any():
                v = int(np.flatnonzero(unsettled)[0])
                self._fail(
                    f"settled finality violated: vertex {v} was settled and "
                    "became unsettled again"
                )
            changed = self._settled_prev & (d != self._d_at_settle)
            if changed.any():
                v = int(np.flatnonzero(changed)[0])
                self._fail(
                    f"settled finality violated: settled vertex {v} changed "
                    f"distance {int(self._d_at_settle[v])} -> {int(d[v])}"
                )
        self._settled_prev = settled.copy()
        self._d_at_settle = d.copy()

    # -- IOS edge conservation -----------------------------------------
    def check_ios_partition(
        self,
        proposed: np.ndarray,
        hi: int,
        inner_mask: np.ndarray,
    ) -> None:
        """An IOS short phase split ``proposed`` distances at boundary
        ``hi`` into inner (``inner_mask``) and outer (``~inner_mask``)."""
        self.checks += 1
        bad_inner = inner_mask & (proposed >= hi)
        if bad_inner.any():
            i = int(np.flatnonzero(bad_inner)[0])
            self._fail(
                f"IOS partition violated: proposal {int(proposed[i])} "
                f">= boundary {hi} classified as inner"
            )
        bad_outer = ~inner_mask & (proposed < hi)
        if bad_outer.any():
            i = int(np.flatnonzero(bad_outer)[0])
            self._fail(
                f"IOS partition violated: proposal {int(proposed[i])} "
                f"< boundary {hi} classified as outer"
            )

    def check_ios_coverage(self, num_short_arcs: int, num_proposals: int) -> None:
        """Every scanned short arc must be classified exactly once, inner
        or outer — none dropped, none duplicated."""
        self.checks += 1
        if num_proposals != num_short_arcs:
            self._fail(
                f"IOS edge conservation violated: {num_short_arcs} short arcs "
                f"scanned but {num_proposals} classified inner or outer"
            )

    def check_ios_split(
        self,
        starts: np.ndarray,
        short: np.ndarray,
        inner: np.ndarray,
        d: np.ndarray,
        weights: np.ndarray,
        hi: int,
    ) -> None:
        """An IOS kernel took the first ``inner[i]`` of the ``short[i]``
        short arcs of the row at ``starts[i]`` (tail distance ``d[i]``;
        ``weights`` is the graph's) as their inner arcs, reading each count
        off the prefix table. Re-derive the per-arc filter
        ``d + w < hi`` over every one of those short arcs and check that
        the kernel's inner counts and the filter's outer arcs cover the
        short arcs (:meth:`check_ios_coverage`), that no prefix runs past
        its row's short arcs, and that each prefix is exactly the filter's
        inner set (:meth:`check_ios_partition` over the kernel's split)."""
        arcs, row = concat_ranges(starts, starts + short)
        proposed = d[row] + weights[arcs]
        outer = int(np.count_nonzero(proposed >= hi))
        self.check_ios_coverage(int(short.sum()), int(inner.sum()) + outer)
        past = np.flatnonzero(inner > short)
        if past.size:
            i = int(past[0])
            self._fail(
                f"IOS prefix violated: an inner prefix of {int(inner[i])} arcs "
                f"runs past its row's {int(short[i])} short arcs"
            )
        self.check_ios_partition(proposed, hi, arcs - starts[row] < inner[row])

    # -- unsettled-set equivalence ------------------------------------
    def check_unsettled_set(
        self, ids: np.ndarray, d: np.ndarray, settled: np.ndarray
    ) -> None:
        """The view's unsettled ``ids`` (in no order) must be exactly the
        reached unsettled vertices of ``d``/``settled``, each once."""
        self.checks += 1
        expected = np.flatnonzero(~settled & (d < INF))
        actual = np.sort(ids)
        if not np.array_equal(actual, expected):
            diff = np.setxor1d(actual, expected)
            at = f"vertex {int(diff[0])}" if diff.size else "a repeated id"
            self._fail(
                "unsettled-set equivalence violated: the view's set and the "
                f"from-scratch scan disagree at {at} ({actual.size} ids "
                f"against {expected.size})"
            )

    # -- recovery traffic separation -----------------------------------
    def check_recovery_separation(self, metrics, *, allowed: bool) -> None:
        """At solve end: recovery-phase accounting must be zero unless the
        solve actually injected faults or degraded to a recovery pass."""
        self.checks += 1
        if allowed:
            return
        rec_bytes = metrics.recovery_bytes
        rec = metrics.recovery
        if rec_bytes or metrics.recovery_phases or rec.recovery_supersteps:
            self._fail(
                "recovery-traffic separation violated: fault-free solve "
                f"charged recovery_bytes={rec_bytes}, "
                f"recovery_phases={metrics.recovery_phases}, "
                f"recovery_supersteps={rec.recovery_supersteps}"
            )

    # -- final sanity ---------------------------------------------------
    def check_final(self, d: np.ndarray, root: int) -> None:
        """Cheap end-of-solve sanity: root at zero, no negative or
        overflowing distances."""
        self.checks += 1
        if int(d[root]) != 0:
            self._fail(f"final distances corrupt: d[root]={int(d[root])} != 0")
        finite = d[d < INF]
        if finite.size and int(finite.min()) < 0:
            self._fail("final distances corrupt: negative distance present")
