"""CapacityPlane end-to-end tests: routes, conservation, facade, chaos."""

import pytest

from repro.api import Platform, PlatformConfig
from repro.capacity import (
    AdmissionConfig,
    CapacityConfig,
    CapacityPlane,
    TenantQuota,
)
from repro.containers import Image
from repro.faults import FaultPlan
from repro.interference import ResourceDemand
from repro.telemetry import TelemetryCollector

MiB = 1024**2
GiB = 1024**3


def build(nodes=3, executors=("n0001", "n0002"), cores=2,
          capacity=CapacityConfig(), faults=None, seed=0):
    platform = Platform.build(
        PlatformConfig(nodes=nodes, jitter=0.0, capacity=capacity), seed=seed,
        faults=faults,
    )
    for node in executors:
        platform.register_node(node, cores=cores, memory_bytes=8 * GiB)
    platform.functions.register(
        "fn", Image("img", size_bytes=100 * MiB, runtime_memory_bytes=256 * MiB),
        runtime_s=0.05,
        demand=ResourceDemand(cores=1, membw=0.0, frac_membw=0.0),
        output_bytes=1,
    )
    return platform


def govern(platform, count, tenants=2, until=30.0):
    plane = platform.capacity
    clients = [platform.client("n0000", name=f"t{i}") for i in range(tenants)]
    results = []

    def one(client):
        result = yield plane.invoke(client, "fn", tenant=client.name)
        results.append(result)

    def source():
        for i in range(count):
            platform.process(one(clients[i % tenants]))
            yield platform.env.timeout(0.05)

    platform.process(source())
    platform.run(until)
    platform.run()
    for client in clients:
        client.close()
    return plane, results


def test_happy_path_routes_hpc_and_conserves():
    platform = build()
    plane, results = govern(platform, count=20)
    assert len(results) == 20
    assert all(r.route == "hpc" and r.ok for r in results)
    stats = plane.stats()
    assert stats["completed"] == 20
    assert (stats["completed"] + stats["rejected"] + stats["bursts"]
            == stats["invocations"] == 20)


def test_unplaceable_overflows_to_cloud_with_cost():
    # One single-core executor, several concurrent tenants: some
    # invocations find no lease and must burst.
    platform = build(executors=("n0001",), cores=1)
    plane, results = govern(platform, count=30, tenants=6)
    routes = {r.route for r in results}
    assert "cloud" in routes
    clouds = [r for r in results if r.route == "cloud"]
    assert all(r.ok and r.cost > 0 and r.cloud is not None for r in clouds)
    assert plane.stats()["burst_cost"] == pytest.approx(
        sum(r.cost for r in clouds))
    # Nothing silently dropped.
    stats = plane.stats()
    assert (stats["completed"] + stats["rejected"] + stats["bursts"]
            == stats["invocations"] == 30)


def test_burst_disabled_turns_unplaceable_into_rejection():
    config = CapacityConfig(burst_enabled=False)
    platform = build(executors=("n0001",), cores=1, capacity=config)
    plane, results = govern(platform, count=30, tenants=6)
    rejected = [r for r in results if r.route == "rejected"]
    assert rejected
    assert all(not r.ok and r.error is not None for r in rejected)
    assert plane.stats()["bursts"] == 0


def test_admission_backpressure_surfaces_as_rejected_route():
    config = CapacityConfig(
        admission=AdmissionConfig(
            max_queue_depth=0,
            quota=TenantQuota(rate_per_s=1.0, burst=1.0),
        ),
    )
    platform = build(capacity=config)
    plane, results = govern(platform, count=10, tenants=1)
    rejected = [r for r in results if r.route == "rejected"]
    assert rejected
    assert all(r.error.reason == "queue_full" for r in rejected)
    stats = plane.stats()
    assert stats["rejected"] == len(rejected)
    assert (stats["completed"] + stats["rejected"] + stats["bursts"]
            == stats["invocations"] == 10)


def test_survives_node_crash_storm():
    """FaultPlan chaos: crashes + heals mid-run, no hang, conservation."""
    plan = (FaultPlan(name="storm")
            .node_crash(at_s=0.3, node="n0001", duration_s=0.5, immediate=True)
            .node_crash(at_s=0.6, node="n0002", duration_s=0.5, immediate=True))
    platform = build(faults=plan)
    plane, results = govern(platform, count=40, until=10.0)
    assert len(results) == 40
    stats = plane.stats()
    assert (stats["completed"] + stats["rejected"] + stats["bursts"]
            == stats["invocations"] == 40)
    assert platform.injector.injected  # the storm actually fired
    # The autoscaler kept running through the chaos.
    assert plane.autoscaler.ticks > 0


def test_release_idle_leases_returns_capacity():
    platform = build(executors=("n0001",), cores=1)
    plane = platform.capacity
    client = platform.client("n0000", name="t0")
    done = []

    def flow():
        result = yield plane.invoke(client, "fn", tenant="t0")
        done.append(result)

    platform.process(flow())
    platform.run(5.0)
    platform.run()
    assert done[0].route == "hpc"
    # The tenant's lease went back to the pool once it idled.
    assert client._lease is None
    assert platform.manager.active_leases() == []
    client.close()


def test_facade_wiring_and_validation():
    platform = build()
    assert isinstance(platform.capacity, CapacityPlane)
    assert platform.capacity.autoscaler.running
    # cloud is lazy and memoized.
    assert platform.cloud is platform.cloud
    with pytest.raises(TypeError):
        PlatformConfig(nodes=2, capacity="yes")


def test_no_capacity_by_default():
    platform = Platform.build(PlatformConfig(nodes=2))
    assert platform.capacity is None


def test_capacity_metrics_emitted():
    with TelemetryCollector():
        platform = build()
    govern(platform, count=10)
    names = {m.name for m in platform.telemetry.metrics}
    assert "repro_capacity_admitted_total" in names
    assert "repro_capacity_invocations_total" in names
    assert "repro_capacity_latency_seconds" in names
    assert "repro_capacity_supply_cores_count" in names
