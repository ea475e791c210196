"""Client-side failover: a manager outage costs backoff, not failures."""

from repro.faults import FaultPlan, RecoveryOutcome, RetryPolicy

from .conftest import build_ha_platform

#: Storm-at-crash plan: the lease storm lands at the *same* timestamp
#: as the manager fault (stable tie order applies the storm first), so
#: revoked clients must re-lease into the dead/partitioned control
#: plane and exercise the typed ManagerUnavailableError retry arm.
def _storm_plan(at_s: float, kind: str, duration_s: float) -> FaultPlan:
    plan = FaultPlan(name="storm-at-crash").lease_storm(at_s=at_s, count=8)
    if kind == "crash":
        return plan.manager_crash(at_s=at_s, duration_s=duration_s)
    return plan.manager_partition(at_s=at_s, duration_s=duration_s)


def _drive(platform, window_s: float, policy: RetryPolicy, streams: int = 2):
    client = platform.client("n0000", retry_policy=policy)
    outcomes = []

    def stream():
        while platform.env.now < window_s:
            detailed = yield client.invoke_detailed("noop", payload_bytes=256)
            outcomes.append(detailed)
            yield platform.env.timeout(0.005)

    for _ in range(streams):
        platform.process(stream())
    platform.run(window_s + 10.0)
    client.close()
    platform.run()
    return outcomes


def test_clients_ride_out_a_primary_crash_with_retries():
    platform = build_ha_platform(
        standbys=1, runtime_s=0.02,
        plan=_storm_plan(1.0, "crash", duration_s=2.0),
    )
    outcomes = _drive(platform, window_s=4.0,
                      policy=RetryPolicy(max_attempts=7, backoff_base_s=0.05,
                                         backoff_multiplier=2.0,
                                         backoff_max_s=1.0))
    assert outcomes and all(d.ok for d in outcomes)
    recovered = [d for d in outcomes if d.outcome is RecoveryOutcome.RECOVERED]
    assert recovered  # somebody actually crossed the outage
    assert max(d.retries for d in recovered) >= 1
    metrics = platform.telemetry.metrics
    down = metrics.get("repro_faults_retries_total", {"reason": "manager_down"})
    assert down is not None and down.value >= 1
    assert platform.ha.epoch >= 2  # a standby took over behind the scenes


def test_clients_ride_out_a_primary_partition_too():
    platform = build_ha_platform(
        standbys=1, runtime_s=0.02,
        plan=_storm_plan(1.0, "partition", duration_s=1.5),
    )
    outcomes = _drive(platform, window_s=4.0,
                      policy=RetryPolicy(max_attempts=7, backoff_base_s=0.05,
                                         backoff_multiplier=2.0,
                                         backoff_max_s=1.0))
    assert outcomes and all(d.ok for d in outcomes)
    assert platform.ha.epoch >= 2
    # The healed ex-primary stepped down instead of splitting the brain.
    assert platform.ha.primary_rank == 1


def test_too_small_a_budget_gives_up_during_a_k0_crash():
    platform = build_ha_platform(
        standbys=0, runtime_s=0.02,
        plan=_storm_plan(1.0, "crash", duration_s=0.0),  # never restarts
    )
    outcomes = _drive(platform, window_s=2.0,
                      policy=RetryPolicy(max_attempts=2, backoff_base_s=0.05,
                                         backoff_multiplier=2.0,
                                         backoff_max_s=0.2))
    gave_up = [d for d in outcomes if d.outcome is RecoveryOutcome.GAVE_UP]
    assert gave_up  # two attempts cannot outlive a permanent outage
    from repro.rfaas import ManagerUnavailableError
    assert any(isinstance(d.error, ManagerUnavailableError) for d in gave_up)
