"""The injector applies every fault kind through public platform hooks."""

import pytest

from repro.faults import (FaultEvent, FaultKind, FaultPlan, Injector,
                          RecoveryOutcome, RetryPolicy)
from repro.interference import ResourceDemand

from .conftest import build_platform


def test_empty_plan_is_a_guaranteed_noop():
    platform = build_platform(plan=FaultPlan())
    assert platform.injector is None  # Platform does not even build one
    injector = Injector(platform.env, FaultPlan(), platform.manager,
                        fabric=platform.fabric)
    assert injector.start() is None
    assert not injector.started
    platform.run()
    assert injector.injected == [] and injector.skipped == []


def test_injector_cannot_start_twice():
    platform = build_platform(plan=FaultPlan().lease_storm(at_s=1.0))
    with pytest.raises(RuntimeError):
        platform.injector.start()


def test_network_faults_require_a_fabric():
    platform = build_platform()
    plan = FaultPlan().network_degrade(at_s=1.0, duration_s=1.0, latency_factor=2.0)
    with pytest.raises(ValueError):
        Injector(platform.env, plan, platform.manager, fabric=None)


def test_node_crash_then_timed_recovery():
    plan = FaultPlan(name="crash").node_crash(at_s=1.0, node="n0001", duration_s=2.0)
    platform = build_platform(plan=plan)
    seen = {}

    def probe():
        yield platform.env.timeout(1.5)
        seen["down"] = platform.manager.is_registered("n0001")
        yield platform.env.timeout(2.0)
        seen["up"] = platform.manager.is_registered("n0001")

    platform.process(probe())
    platform.run()
    assert seen == {"down": False, "up": True}
    assert platform.injector.injected == [(1.0, "node_crash", "n0001")]
    registry = platform.telemetry.metrics
    assert registry.get("repro_faults_node_recoveries_total").value == 1
    assert registry.get("repro_faults_injected_total", {"kind": "node_crash"}).value == 1
    # The node comes back with its original capacity.
    assert platform.manager.node_info("n0001").cores_total == 4


def test_plan_faults_precede_recoveries_due_at_the_same_instant():
    # Every plan timer is armed at start(), before any recovery exists,
    # so the partition at 1.5 s applies before the crash's recovery,
    # which falls due at that instant too.
    plan = (FaultPlan().node_crash(at_s=1.0, node="n0001", duration_s=0.5)
            .network_partition(at_s=1.5, duration_s=0.5, node="n0002"))
    platform = build_platform(plan=plan)
    platform.run()
    faults = [(span.start, span.name) for span in platform.telemetry.spans
              if span.name.startswith("fault.")]
    assert faults == [(1.0, "fault.node_crash"),
                      (1.5, "fault.network_partition"),
                      (1.5, "fault.node_recovered"),
                      (2.0, "fault.partition_healed")]


def test_crash_of_unknown_node_is_skipped_not_fatal():
    plan = FaultPlan().node_crash(at_s=0.5, node="n9999")
    platform = build_platform(plan=plan)
    platform.run()
    assert platform.injector.injected == []
    assert [ev.node for ev in platform.injector.skipped] == ["n9999"]


def test_lease_storm_revokes_and_client_releases():
    plan = FaultPlan(name="storm").lease_storm(at_s=0.05, count=2)
    platform = build_platform(plan=plan, runtime_s=0.02)
    client = platform.client("n0000")
    results = []

    def driver():
        for _ in range(5):
            result = yield client.invoke("noop", payload_bytes=64)
            results.append(result)

    platform.process(driver())
    platform.run()
    assert len(results) == 5 and all(r.ok for r in results)
    assert (0.05, "lease_storm", None) in platform.injector.injected
    registry = platform.telemetry.metrics
    assert registry.get("repro_manager_revoked_leases_total").value >= 1


def test_straggler_sets_and_restores_dispatch_multiplier():
    plan = FaultPlan().add(FaultEvent(FaultKind.STRAGGLER, 1.0, duration_s=1.0,
                                      magnitude=8.0, node="n0001"))
    platform = build_platform(plan=plan)
    executor = platform.manager.node_info("n0001").executor
    seen = {}

    def probe():
        yield platform.env.timeout(1.5)
        seen["during"] = executor.dispatch_multiplier
        yield platform.env.timeout(1.0)
        seen["after"] = executor.dispatch_multiplier

    platform.process(probe())
    platform.run()
    assert seen == {"during": 8.0, "after": 1.0}


def test_warmpool_pressure_evicts_parked_containers():
    plan = FaultPlan().add(FaultEvent(FaultKind.WARMPOOL_PRESSURE, 1.0,
                                      magnitude=1.0, node="n0001"))
    platform = build_platform(plan=plan)
    info = platform.manager.node_info("n0001")
    info.executor.prewarm(platform.image)
    assert info.warm_pool.resident_bytes() > 0
    platform.run()
    assert info.warm_pool.resident_bytes() == 0
    assert platform.injector.injected == [(1.0, "warmpool_pressure", "n0001")]


def test_network_degrade_conditions_the_fabric_then_restores():
    plan = FaultPlan().network_degrade(at_s=0.5, duration_s=1.0, latency_factor=4.0,
                                       bandwidth_factor=0.5, drop_rate=0.1)
    platform = build_platform(plan=plan)
    conditioner = platform.fabric.conditioner
    seen = {}

    def probe():
        yield platform.env.timeout(1.0)
        seen["during"] = (conditioner.latency_factor, conditioner.bandwidth_factor,
                          conditioner.drop_rate)
        yield platform.env.timeout(1.0)
        seen["pristine"] = conditioner.pristine

    platform.process(probe())
    platform.run()
    assert seen == {"during": (4.0, 0.5, 0.1), "pristine": True}


def test_partition_mid_flight_forces_redirect_to_healthy_node():
    # The client leases n0001 (first fit) and starts a 1 s function; the
    # partition lands mid-execution, so the response transfer is dropped
    # and the retry loop re-runs the invocation on an unpartitioned node.
    plan = FaultPlan().network_partition(at_s=0.5, duration_s=2.0, node="n0001")
    platform = build_platform(plan=plan)
    platform.functions.register(
        "slow", platform.image, runtime_s=1.0,
        demand=ResourceDemand(cores=1, membw=0.0, frac_membw=0.0), output_bytes=1,
    )
    client = platform.client("n0000", retry_policy=RetryPolicy(max_attempts=4))
    out = {}

    def driver():
        out["d"] = yield client.invoke_detailed("slow", payload_bytes=64)

    platform.process(driver())
    platform.run()
    detailed = out["d"]
    assert detailed.ok
    assert detailed.outcome is RecoveryOutcome.RECOVERED
    assert detailed.result.node_name != "n0001"
    assert detailed.retries >= 1


def test_same_seed_picks_identical_victims():
    def injected_for(seed):
        plan = (FaultPlan()
                .straggler(at_s=0.5, duration_s=0.1)
                .node_crash(at_s=1.0, duration_s=0.5)
                .warmpool_pressure(at_s=2.0, fraction=0.5))
        platform = build_platform(plan=plan, seed=seed)
        platform.run()
        return platform.injector.injected

    assert injected_for(3) == injected_for(3)
