"""Hybridization: Δ-stepping → Bellman-Ford switch rule (Section III-D).

Δ-stepping wins on work done; Bellman-Ford wins on phase count. The paper
observes that most relaxations concentrate in the first few buckets (the
high-degree vertices settle early in scale-free graphs), so it runs
Δ-stepping only until the fraction of settled vertices exceeds a threshold
τ (0.4 works well), then collapses all remaining buckets into one and
finishes with Bellman-Ford.
"""

from __future__ import annotations

__all__ = ["should_switch", "DEFAULT_TAU"]

DEFAULT_TAU = 0.4
"""The paper's recommended settled-fraction threshold."""


def should_switch(
    settled_count: int, num_vertices: int, tau: float, *, tracer=None
) -> bool:
    """True when the settled fraction exceeds ``tau``.

    Evaluated at the end of each epoch; the settled count is a global
    aggregate (one allreduce, charged by the solve loop). A ``tracer``
    (:class:`repro.obs.tracer.Tracer`), when given, records the check as an
    instant event — pure telemetry, no effect on the decision.
    """
    if num_vertices == 0:
        return True
    fraction = float(settled_count) / num_vertices
    decision = fraction > tau
    if tracer is not None:
        tracer.instant(
            "hybrid-check", settled_fraction=fraction, tau=tau, switch=decision
        )
    return decision
