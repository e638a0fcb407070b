"""The serving plane's failure policies take only the settings a caller
uses: each retired one is a module constant now, and passing it by name
is refused as an unknown keyword."""

import pytest

from repro.obs.tracer import TraceConfig
from repro.serve.breaker import BreakerConfig
from repro.serve.cache import EVICT_SCAN, MAX_NEGATIVE, DistanceCache
from repro.serve.retry import BACKOFF_CAP_S, RetryPolicy

RETIRED = [
    (RetryPolicy, "backoff_multiplier", 2.0),
    (RetryPolicy, "backoff_cap_s", 0.05),
    (RetryPolicy, "retry_on", ("error", "timeout", "corrupt")),
    (BreakerConfig, "classes", ("error", "timeout", "corrupt")),
    (BreakerConfig, "half_open_probes", 1),
    (BreakerConfig, "degrade_supersteps", 8),
    (lambda **kw: DistanceCache(1 << 20, **kw), "evict_scan", 8),
    (lambda **kw: DistanceCache(1 << 20, **kw), "max_negative", 4096),
    (TraceConfig, "enabled", False),
]


@pytest.mark.parametrize(
    "make, name, value", RETIRED, ids=[name for _, name, _ in RETIRED]
)
def test_retired_keyword_is_refused(make, name, value):
    with pytest.raises(TypeError):
        make(**{name: value})


def test_the_constants_keep_the_old_defaults():
    assert (BACKOFF_CAP_S, EVICT_SCAN, MAX_NEGATIVE) == (0.05, 8, 4096)
    assert RetryPolicy().backoff(7) == BACKOFF_CAP_S  # 0.001 · 2⁶ = 0.064, capped
