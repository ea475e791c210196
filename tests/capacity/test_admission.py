"""Admission controller unit tests: buckets, priorities, backpressure."""

import pytest

from repro.capacity import (
    AdmissionConfig,
    AdmissionController,
    AdmissionRejected,
    TenantQuota,
    TokenBucket,
)
from repro.rfaas import AdmissionRejected as ReexportedRejection
from repro.sim import Environment


def admit_all(env, controller, requests):
    """Drive admissions; returns [(tenant, admitted_at | exception)]."""
    outcomes = []

    def one(tenant, priority):
        try:
            yield from controller.admit(tenant, priority=priority)
        except AdmissionRejected as err:
            outcomes.append((tenant, err))
        else:
            outcomes.append((tenant, env.now))

    for tenant, priority in requests:
        env.process(one(tenant, priority))
    env.run()
    return outcomes


def test_rejection_is_part_of_the_rfaas_taxonomy():
    assert ReexportedRejection is AdmissionRejected
    err = AdmissionRejected("nope", reason="queue_full", tenant="t")
    assert err.reason == "queue_full" and err.tenant == "t"


def test_token_bucket_accrues_and_caps():
    bucket = TokenBucket(TenantQuota(rate_per_s=2.0, burst=4.0))
    for _ in range(4):
        assert bucket.try_take(0.0)
    assert not bucket.try_take(0.0)
    assert bucket.eta(0.0) == pytest.approx(0.5)
    assert bucket.try_take(0.5)
    # Refill never exceeds the burst capacity.
    assert bucket.eta(100.0) == 0.0
    bucket._refill(100.0)
    assert bucket.tokens == 4.0


def test_token_bucket_float_residue_does_not_starve():
    """A sleep of exactly eta must succeed despite float residue."""
    bucket = TokenBucket(TenantQuota(rate_per_s=3.0, burst=1.0))
    t = 0.0
    for _ in range(1000):
        eta = bucket.eta(t)
        t += eta
        assert bucket.try_take(t), f"starved at t={t}"


def test_burst_then_queue_then_rate_limited():
    env = Environment()
    controller = AdmissionController(env, AdmissionConfig(
        quota=TenantQuota(rate_per_s=2.0, burst=2.0),
    ))
    outcomes = admit_all(env, controller, [("t", 1)] * 6)
    times = [t for _, t in outcomes]
    # Two ride the burst immediately, the rest drain at 2/s.
    assert times[:2] == [0.0, 0.0]
    assert times[2:] == pytest.approx([0.5, 1.0, 1.5, 2.0])
    assert controller.admitted == 6 and controller.rejected == {}


def test_bounded_queue_rejects_with_queue_full():
    env = Environment()
    controller = AdmissionController(env, AdmissionConfig(
        max_queue_depth=2,
        quota=TenantQuota(rate_per_s=1.0, burst=1.0),
    ))
    outcomes = admit_all(env, controller, [("t", 1)] * 5)
    rejections = [err for _, err in outcomes if isinstance(err, AdmissionRejected)]
    assert len(rejections) == 2          # 1 fast-path + 2 queued + 2 rejected
    assert all(err.reason == "queue_full" for err in rejections)
    assert controller.admitted == 3 and controller.rejected == {"queue_full": 2}


def test_queue_wait_bound_rejects_with_timeout():
    env = Environment()
    controller = AdmissionController(env, AdmissionConfig(
        max_queue_wait_s=0.4,
        quota=TenantQuota(rate_per_s=1.0, burst=1.0),
    ))
    outcomes = admit_all(env, controller, [("t", 1)] * 3)
    admitted = [t for _, t in outcomes if not isinstance(t, AdmissionRejected)]
    rejected = [err for _, err in outcomes if isinstance(err, AdmissionRejected)]
    # First takes the burst token; second would wait 1 s > 0.4 s bound.
    assert admitted == [0.0]
    assert len(rejected) == 2
    assert all(err.reason == "timeout" for err in rejected)
    assert env.now >= 0.4


def test_priorities_overtake_arrival_order():
    env = Environment()
    controller = AdmissionController(env, AdmissionConfig(
        quota=TenantQuota(rate_per_s=1.0, burst=1.0),
    ))
    order = []

    def one(label, priority, delay):
        yield env.timeout(delay)
        yield from controller.admit("t", priority=priority)
        order.append(label)

    # Same tenant throughout: one bucket, so the later requests contend.
    env.process(one("burst", 1, 0.0))        # takes the only token
    env.process(one("low", 5, 0.01))         # queues first...
    env.process(one("high", 0, 0.02))        # ...but lower priority value wins
    env.run()
    assert order == ["burst", "high", "low"]


def test_per_tenant_buckets_are_isolated():
    env = Environment()
    controller = AdmissionController(env, AdmissionConfig(
        quota=TenantQuota(rate_per_s=1.0, burst=2.0),
    ))
    outcomes = admit_all(
        env, controller, [("busy", 1)] * 2 + [("quiet", 1)] * 2 + [("busy", 1)])
    busy_times = [t for tenant, t in outcomes if tenant == "busy"]
    quiet_times = [t for tenant, t in outcomes if tenant == "quiet"]
    # "busy" spent its whole burst, yet "quiet" draws from its own bucket.
    assert quiet_times == [0.0, 0.0]
    assert busy_times == pytest.approx([0.0, 0.0, 1.0])


def test_config_validation():
    with pytest.raises(ValueError):
        AdmissionConfig(max_queue_depth=-1)
    with pytest.raises(ValueError):
        AdmissionConfig(max_queue_wait_s=0.0)
    with pytest.raises(ValueError):
        TenantQuota(rate_per_s=0.0)
    with pytest.raises(ValueError):
        TenantQuota(burst=0.5)
