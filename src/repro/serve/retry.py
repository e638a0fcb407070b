"""Retry and hedging policy for the serving plane (DESIGN.md §12).

A failed solve attempt is not a failed request: transient faults (an
injected error, a corrupted result caught by verification, a deadline
trip on a straggling attempt) are worth a bounded number of re-attempts
before the typed terminal error reaches the caller. :class:`RetryPolicy`
is the budget: how many attempts a request may consume, the capped
exponential backoff between them, and the *hedging* knobs — when an
attempt has been running longer than ``hedge_after_s``, a second attempt
is launched and the first successful result wins (the SP_Async
straggler-tolerance idea applied at the request layer).

Retries re-enter the micro-batcher (they do not block batch-mates), carry
their backoff as a ``ready_at`` gate, and are exempt from admission
capacity — a retried request was already admitted once; shedding it again
would double-count the overload. Hedges draw from a broker-wide integer
budget so a pathological workload cannot double every solve.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RetryPolicy", "FAILURE_CLASSES"]

#: The serving plane's failure taxonomy: ``error`` (the solve raised),
#: ``timeout`` (the watchdog tripped / injected stall), ``corrupt`` (the
#: output failed verification). Breaker state is tracked per class;
#: every class is retryable.
FAILURE_CLASSES = ("error", "timeout", "corrupt")

#: The backoff doubles per retry up to this cap (seconds).
BACKOFF_CAP_S = 0.05


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget, capped exponential backoff, and hedging knobs.

    ``max_attempts`` counts *total* solve attempts per request (1 = no
    retries); every failure class is retryable within it.
    ``backoff(attempt)`` is the delay inserted before attempt number
    ``attempt`` (the first retry is attempt 1):
    ``min(backoff_base_s * 2**(attempt-1), BACKOFF_CAP_S)``.
    ``hedge_after_s`` (None = hedging off) is the straggler threshold
    after which a hedged re-attempt launches; ``hedge_budget`` caps total
    hedges per broker lifetime.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.001
    hedge_after_s: float | None = None
    hedge_budget: int = 32

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if self.hedge_after_s is not None and self.hedge_after_s < 0:
            raise ValueError("hedge_after_s must be >= 0")
        if self.hedge_budget < 0:
            raise ValueError("hedge_budget must be >= 0")

    # ------------------------------------------------------------------
    def backoff(self, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt must be >= 1")
        return min(self.backoff_base_s * 2.0 ** (attempt - 1), BACKOFF_CAP_S)

    def allows(self, attempts_consumed: int) -> bool:
        """Whether one more attempt may be spent after a failure (of any
        class) with ``attempts_consumed`` attempts already used."""
        return attempts_consumed < self.max_attempts

    @property
    def hedging(self) -> bool:
        return self.hedge_after_s is not None and self.hedge_budget > 0
