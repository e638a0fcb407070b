"""RetryPolicy: backoff arithmetic, attempt budget, hedging knobs."""

import pytest

from repro.serve.retry import RetryPolicy

#: settings that became module constants: refused as unknown keywords
RETIRED = {"backoff_multiplier", "backoff_cap_s", "retry_on"}


class TestValidation:
    def test_defaults_are_valid(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.backoff_base_s == 0.001
        assert not policy.hedging

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_base_s": -1.0},
            {"backoff_multiplier": 0.5},
            {"backoff_cap_s": -0.1},
            {"retry_on": ("error", "bogus")},
            {"hedge_after_s": -0.01},
            {"hedge_budget": -1},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        error = TypeError if RETIRED & set(kwargs) else ValueError
        with pytest.raises(error):
            RetryPolicy(**kwargs)


class TestBackoff:
    def test_exponential_with_cap(self):
        policy = RetryPolicy(backoff_base_s=0.015)
        assert policy.backoff(1) == pytest.approx(0.015)
        assert policy.backoff(2) == pytest.approx(0.03)
        assert policy.backoff(3) == pytest.approx(0.05)  # capped
        assert policy.backoff(10) == pytest.approx(0.05)

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff(0)


class TestBudget:
    def test_allows_respects_attempt_budget(self):
        policy = RetryPolicy(max_attempts=2)
        assert policy.allows(1)
        assert not policy.allows(2)

    def test_hedging_requires_threshold_and_budget(self):
        assert RetryPolicy(hedge_after_s=0.01).hedging
        assert not RetryPolicy(hedge_after_s=0.01, hedge_budget=0).hedging
        assert not RetryPolicy().hedging
