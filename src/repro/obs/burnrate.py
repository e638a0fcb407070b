"""Multi-window SLO burn-rate monitoring for the serving plane (DESIGN.md §14).

:class:`~repro.serve.slo.SloPolicy` renders an end-of-run pass/fail
verdict; operating a service needs the *leading* signal — how fast is
the error budget burning **right now**? This module implements the
standard multi-window, multi-burn-rate alerting shape (Google SRE
workbook ch. 5) over the broker's timestamped
:class:`~repro.serve.slo.LatencyWindow`:

- **burn rate** = (bad fraction in a window) / (error budget), where the
  error budget is ``1 - objective`` — burn 1.0 means "exactly on budget",
  burn 14.4 over an hour means "a 30-day budget gone in ~2 days";
- a **fast** window (high threshold → page: the budget is burning so
  fast a human must look now) and a **slow** window (lower threshold →
  ticket: sustained slow burn that will exhaust the budget);
- each window is paired with a **companion** window 1/12 its size that
  must *also* be over threshold, so an alert clears promptly once the
  burn actually stops (the long window alone would keep alerting on
  stale badness).

A sample is *bad* when its outcome source is not in ``ok_sources``
(sheds, timeouts, errors, refusals) or — when ``latency_slo_s`` is set —
when a good outcome exceeded the latency SLO (slow successes burn
budget too). Read-side only: the monitor owns no state beyond its
config; every evaluation re-reads the window, so it costs nothing
unless called.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["BurnAlert", "BurnRateConfig", "BurnRateMonitor", "OK_SOURCES"]

#: Outcome sources that do not burn error budget. Everything else
#: (timeout, error, corrupt, unavailable, cancelled, ...) is budget spend.
OK_SOURCES: tuple[str, ...] = ("cache", "solve", "repair", "coalesced", "degraded")

#: Companion window = window / COMPANION_DIVISOR (the SRE-workbook 1/12).
COMPANION_DIVISOR = 12.0


@dataclass(frozen=True)
class BurnRateConfig:
    """Objective, windows and thresholds of the burn-rate monitor.

    Defaults follow the SRE-workbook table scaled to bench-length runs:
    a 60 s fast window at burn 14.4 (page) and a 300 s slow window at
    burn 6.0 (ticket). ``latency_slo_s`` (optional) additionally counts
    good-but-slow requests as budget spend. ``min_samples`` suppresses
    verdicts from windows too thin to mean anything.
    """

    objective: float = 0.99
    latency_slo_s: float | None = None
    fast_window_s: float = 60.0
    fast_threshold: float = 14.4
    slow_window_s: float = 300.0
    slow_threshold: float = 6.0
    min_samples: int = 10
    ok_sources: tuple[str, ...] = OK_SOURCES

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be in (0, 1)")
        if self.fast_window_s <= 0 or self.slow_window_s <= 0:
            raise ValueError("windows must be positive")
        if self.fast_threshold <= 0 or self.slow_threshold <= 0:
            raise ValueError("thresholds must be positive")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective


@dataclass(frozen=True)
class BurnAlert:
    """One firing burn-rate alert.

    ``severity`` is ``"page"`` (fast window) or ``"ticket"`` (slow
    window); ``burn`` / ``companion_burn`` are the observed rates in the
    window and its 1/12 companion, both over ``threshold``.
    """

    severity: str
    window_s: float
    burn: float
    companion_burn: float
    threshold: float
    bad: int
    total: int

    def describe(self) -> str:
        return (
            f"[{self.severity}] burn {self.burn:.1f}x over {self.window_s:.0f}s "
            f"window (companion {self.companion_burn:.1f}x, "
            f"threshold {self.threshold:.1f}x, {self.bad}/{self.total} bad)"
        )


@dataclass
class BurnRateMonitor:
    """Evaluate multi-window burn rates over a :class:`LatencyWindow`.

    The window's samples are keyed by outcome source (the broker records
    every terminal outcome under its name), so classification is pure
    read-side: no broker hook is needed and arming the monitor cannot
    perturb the serving path.
    """

    window: object  # LatencyWindow (duck-typed: .recent(window_s, now=))
    config: BurnRateConfig = field(default_factory=BurnRateConfig)

    def _classify(self, rows) -> tuple[int, int]:
        """(bad, total) over ``(source, t, latency)`` rows."""
        cfg = self.config
        bad = 0
        total = 0
        for source, _t, latency in rows:
            total += 1
            if source not in cfg.ok_sources:
                bad += 1
            elif cfg.latency_slo_s is not None and latency > cfg.latency_slo_s:
                bad += 1
        return bad, total

    def burn_rate(
        self, window_s: float, *, now: float | None = None
    ) -> tuple[float, int, int]:
        """``(burn, bad, total)`` over the trailing ``window_s`` seconds.

        ``burn`` is NaN when the window holds fewer than ``min_samples``
        samples (too thin to judge).
        """
        bad, total = self._classify(self.window.recent(window_s, now=now))
        if total < self.config.min_samples:
            return float("nan"), bad, total
        return (bad / total) / self.config.error_budget, bad, total

    def evaluate(self, *, now: float | None = None) -> list[BurnAlert]:
        """Firing alerts, page before ticket (empty = budget healthy).

        Each severity fires only when the main window *and* its 1/12
        companion are both over threshold — the companion makes alerts
        clear promptly once the burn stops.
        """
        alerts: list[BurnAlert] = []
        for severity, window_s, threshold in (
            ("page", self.config.fast_window_s, self.config.fast_threshold),
            ("ticket", self.config.slow_window_s, self.config.slow_threshold),
        ):
            burn, bad, total = self.burn_rate(window_s, now=now)
            if not burn > threshold:  # NaN-safe: thin windows never fire
                continue
            companion, _, _ = self.burn_rate(
                window_s / COMPANION_DIVISOR, now=now
            )
            if companion > threshold:
                alerts.append(
                    BurnAlert(
                        severity=severity,
                        window_s=window_s,
                        burn=burn,
                        companion_burn=companion,
                        threshold=threshold,
                        bad=bad,
                        total=total,
                    )
                )
        return alerts

    def summary(self, *, now: float | None = None) -> dict:
        """Flat burn-rate row for reports and the dashboard."""
        fast, fast_bad, fast_total = self.burn_rate(
            self.config.fast_window_s, now=now
        )
        slow, slow_bad, slow_total = self.burn_rate(
            self.config.slow_window_s, now=now
        )
        alerts = self.evaluate(now=now)
        return {
            "objective": self.config.objective,
            "burn_fast": fast,
            "burn_fast_bad": fast_bad,
            "burn_fast_total": fast_total,
            "burn_slow": slow,
            "burn_slow_bad": slow_bad,
            "burn_slow_total": slow_total,
            "alerts": [a.describe() for a in alerts],
            "paging": any(a.severity == "page" for a in alerts),
        }
