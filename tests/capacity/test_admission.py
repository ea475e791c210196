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
from repro.telemetry import Telemetry


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
        default_quota=TenantQuota(rate_per_s=2.0, burst=2.0),
    ))
    outcomes = admit_all(env, controller, [("t", 1)] * 6)
    times = [t for _, t in outcomes]
    # Two ride the burst immediately, the rest drain at 2/s.
    assert times[:2] == [0.0, 0.0]
    assert times[2:] == pytest.approx([0.5, 1.0, 1.5, 2.0])
    assert controller.admitted == 6 and controller.rejected == 0


def test_bounded_queue_rejects_with_queue_full():
    env = Environment()
    controller = AdmissionController(env, AdmissionConfig(
        max_queue_depth=2,
        default_quota=TenantQuota(rate_per_s=1.0, burst=1.0),
    ))
    outcomes = admit_all(env, controller, [("t", 1)] * 5)
    rejections = [err for _, err in outcomes if isinstance(err, AdmissionRejected)]
    assert len(rejections) == 2          # 1 fast-path + 2 queued + 2 rejected
    assert all(err.reason == "queue_full" for err in rejections)
    assert controller.admitted == 3 and controller.rejected == 2


def test_queue_wait_bound_rejects_with_timeout():
    env = Environment()
    controller = AdmissionController(env, AdmissionConfig(
        max_queue_wait_s=0.4,
        default_quota=TenantQuota(rate_per_s=1.0, burst=1.0),
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
        default_quota=TenantQuota(rate_per_s=1.0, burst=1.0),
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
        default_quota=TenantQuota(rate_per_s=1.0, burst=1.0),
        quotas={"vip": TenantQuota(rate_per_s=100.0, burst=10.0)},
    ))
    outcomes = admit_all(
        env, controller, [("vip", 1)] * 5 + [("slow", 1)] * 2)
    vip_times = [t for tenant, t in outcomes if tenant == "vip"]
    slow_times = [t for tenant, t in outcomes if tenant == "slow"]
    assert vip_times == [0.0] * 5            # vip burst absorbs all five
    assert slow_times == pytest.approx([0.0, 1.0])


@pytest.mark.parametrize("max_wait", [None, 5.0])
def test_cost_beyond_burst_is_rejected_at_once(max_wait):
    """Tokens cap at the burst, so such a request could never be served:
    it is refused immediately instead of sleeping forever (no wait bound)
    or surfacing as a misleading timeout (with one)."""
    env = Environment()
    telemetry = Telemetry(env=env).install(env)
    controller = AdmissionController(env, AdmissionConfig(
        max_queue_wait_s=max_wait,
        default_quota=TenantQuota(rate_per_s=1.0, burst=2.0),
    ))
    errors = []

    def one():
        try:
            yield from controller.admit("t", cost=3.0)
        except AdmissionRejected as err:
            errors.append((env.now, err.reason))

    env.process(one())
    # Bounded so a regression fails instead of hanging; with nothing
    # left scheduled, a bare env.run() returns at once.
    env.run(until=60.0)
    assert env.peek() == float("inf")
    env.run()
    assert controller.rejected == 1 and controller.admitted == 0
    assert errors == [(0.0, "cost_exceeds_burst")]
    assert controller.queue_depth() == 0
    counter = telemetry.metrics.get(
        "repro_capacity_rejected_total", {"reason": "cost_exceeds_burst"})
    assert counter is not None and counter.value == 1
    rejects = [s for s in telemetry.spans if s.name == "capacity.reject"]
    assert [s.attrs["reason"] for s in rejects] == ["cost_exceeds_burst"]


def test_cost_equal_to_burst_is_still_served():
    env = Environment()
    controller = AdmissionController(env, AdmissionConfig(
        default_quota=TenantQuota(rate_per_s=1.0, burst=2.0),
    ))
    waits = []

    def one():
        waits.append((yield from controller.admit("t", cost=2.0)))

    env.process(one())
    env.process(one())
    env.run()
    # The first empties the full bucket; the second waits for a refill.
    assert waits == [0.0, pytest.approx(2.0)]
    assert controller.admitted == 2 and controller.rejected == 0


def test_config_validation():
    with pytest.raises(ValueError):
        AdmissionConfig(max_queue_depth=-1)
    with pytest.raises(ValueError):
        AdmissionConfig(max_queue_wait_s=0.0)
    with pytest.raises(ValueError):
        TenantQuota(rate_per_s=0.0)
    with pytest.raises(ValueError):
        TenantQuota(burst=0.5)
