"""RetryPolicy and DegradedResult behave as documented."""

import pytest

from repro.faults import DegradedResult, RecoveryOutcome, RetryPolicy
from repro.rfaas import InvocationStatus
from repro.rfaas.messages import InvocationRequest, InvocationResult


def test_default_policy_matches_legacy_redirect_knob():
    assert RetryPolicy().max_attempts == 4
    assert RetryPolicy().backoff(1) == 0.0  # legacy: retry immediately


@pytest.mark.parametrize("kwargs", [
    {"max_attempts": 0},
    {"backoff_base_s": -1.0},
    {"backoff_max_s": -1.0},
    {"backoff_multiplier": 0.5},
    {"timeout_s": 0.0},
])
def test_policy_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        RetryPolicy(**kwargs)


def test_backoff_is_exponential_and_capped():
    policy = RetryPolicy(backoff_base_s=0.1, backoff_multiplier=2.0, backoff_max_s=0.5)
    assert [policy.backoff(i) for i in (1, 2, 3, 4, 5)] == [
        pytest.approx(0.1), pytest.approx(0.2), pytest.approx(0.4), 0.5, 0.5,
    ]
    with pytest.raises(ValueError):
        policy.backoff(0)


def _result(status=InvocationStatus.OK):
    return InvocationResult(
        request=InvocationRequest(function="noop", payload_bytes=0, invocation_id=1), status=status,
    )


def test_degraded_result_story():
    clean = DegradedResult(result=_result(), outcome=RecoveryOutcome.OK,
                           attempts=1, retries=0, elapsed_s=0.01)
    assert clean.ok and not clean.degraded

    recovered = DegradedResult(
        result=_result(), outcome=RecoveryOutcome.RECOVERED,
        attempts=3, retries=2, elapsed_s=0.5, recovery_s=0.4,
        error=TimeoutError("boom"),
    )
    assert recovered.ok and recovered.degraded

    failed = DegradedResult(
        result=_result(InvocationStatus.TERMINATED),
        outcome=RecoveryOutcome.GAVE_UP, attempts=4, retries=3, elapsed_s=1.0,
    )
    assert not failed.ok and failed.degraded
