"""Telemetry wired through the real invocation path, without perturbing it.

Covers the acceptance criteria of the telemetry PR: fig07 traces carry
nested spans for the hot, warm, and cold invocation paths; traced and
untraced runs of the same seed produce identical simulated event
timelines; the warm pool / manager / scheduler instrumentation
reports what the subsystem statistics already report; and an untraced
sweep or certification builds no telemetry at all, while the counts its
points report agree with the metrics a collector sees.
"""

import numpy as np
import pytest

from repro.cluster import Cluster, DAINT_MC, DragonflyTopology
from repro.containers import Image
from repro.containers.runtime import SARUS
from repro.containers.warmpool import WarmPool
from repro.experiments import fig07_latency
from repro.experiments.base import get_sweep
from repro.faults.certify import certify
from repro.interference import ResourceDemand
from repro.network import IBVERBS, DrcManager, NetworkFabric
from repro.rfaas import (
    FunctionRegistry,
    NodeLoadRegistry,
    ResourceManager,
    RFaaSClient,
)
from repro.sim import Environment
from repro.slurm.job import JobSpec
from repro.slurm.scheduler import BatchScheduler
from repro.sweep import sweep_names
from repro.telemetry import Telemetry, TelemetryCollector, install

MiB = 1024**2
GiB = 1024**3


def build_platform(env, seed=0):
    cluster = Cluster(topology=DragonflyTopology(nodes_per_group=2))
    cluster.add_nodes("n", 2, DAINT_MC)
    drc = DrcManager()
    fabric = NetworkFabric(env, cluster, IBVERBS, rng=np.random.default_rng(seed), drc=drc)
    loads = NodeLoadRegistry(cluster)
    manager = ResourceManager(env, cluster, loads=loads, drc=drc,
                              rng=np.random.default_rng(seed))
    manager.register_node("n0001", cores=2, memory_bytes=8 * GiB)
    functions = FunctionRegistry()
    image = Image("fn", size_bytes=50 * MiB)
    functions.register(
        "fn", image, runtime_s=0.001,
        demand=ResourceDemand(cores=1, membw=0.0, frac_membw=0.0),
        output_bytes=1,
    )
    client = RFaaSClient(env, manager, fabric, functions, client_node="n0000")
    return manager, client


def run_invocations(env, client, count=4):
    statuses = []

    def driver():
        for _ in range(count):
            result = yield client.invoke("fn", payload_bytes=64)
            statuses.append(result.status)

    env.process(driver())
    env.run()
    return statuses


def test_invocation_spans_nest_under_invocation():
    env = Environment()
    telemetry = Telemetry(env=env).install(env)
    _, client = build_platform(env)
    run_invocations(env, client, count=3)

    spans = telemetry.spans
    invocations = [s for s in spans if s.name == "rfaas.invocation"]
    assert len(invocations) == 3
    inv_ids = {s.span_id for s in invocations}
    for child_name in ("rfaas.dispatch", "rfaas.sandbox", "rfaas.execution"):
        children = [s for s in spans if s.name == child_name]
        assert len(children) == 3
        assert all(c.parent_id in inv_ids for c in children)
    # First invocation cold-starts, later ones reuse the attached container.
    kinds = [s.attrs["kind"] for s in spans if s.name == "rfaas.sandbox"]
    assert kinds[0] == "cold"
    assert set(kinds[1:]) == {"attached"}
    # Span timestamps are simulated seconds and properly ordered.
    for span in invocations:
        assert span.end >= span.start >= 0.0


def test_executor_metrics_match_executor_statistics():
    env = Environment()
    telemetry = Telemetry(env=env).install(env)
    manager, client = build_platform(env)
    run_invocations(env, client, count=5)

    executor = manager.node_info("n0001").executor
    metrics = telemetry.metrics
    labels = {"node": "n0001", "mode": "hot"}
    assert metrics.get("repro_executor_invocations_total", labels).value == executor.completed == 5
    dispatch = metrics.get("repro_executor_dispatch_seconds", labels)
    assert dispatch.count == 5
    assert dispatch.quantile(0.5) == pytest.approx(0.3e-6)


def test_manager_metrics_track_lease_lifecycle():
    env = Environment()
    telemetry = Telemetry(env=env).install(env)
    manager, client = build_platform(env)
    run_invocations(env, client, count=2)
    client.close()

    metrics = telemetry.metrics
    assert metrics.get("repro_manager_leases_total").value == 1
    assert metrics.get("repro_manager_registered_nodes_count").value == 1
    # All cores free again after the client released its lease.
    assert metrics.get("repro_manager_free_cores_count").value == 2
    names = {s.name for s in telemetry.spans}
    assert {"manager.register_node", "manager.lease", "manager.release_lease"} <= names


def test_warmpool_metrics_match_pool_statistics():
    env = Environment()
    telemetry = Telemetry(env=env).install(env)
    cluster = Cluster()
    cluster.add_nodes("m", 1, DAINT_MC)
    pool = WarmPool(env, cluster.node("m0000"), SARUS)
    image = Image("img", size_bytes=50 * MiB)

    first = pool.acquire(image)          # cold
    pool.release(first.container)
    second = pool.acquire(image)         # warm hit
    pool.release(second.container)
    pool.reclaim(1, swap=True)           # evict to PFS
    third = pool.acquire(image)          # swap-in

    metrics = telemetry.metrics
    labels = {"node": "m0000"}
    assert metrics.get("repro_warmpool_cold_starts_total", labels).value == pool.cold_starts == 1
    assert metrics.get("repro_warmpool_hits_total", labels).value == pool.hits == 1
    assert metrics.get("repro_warmpool_swapins_total", labels).value == pool.swap_ins == 1
    assert metrics.get("repro_warmpool_evictions_total", labels).value == pool.evictions == 1
    gauge = metrics.get("repro_warmpool_resident_bytes", labels)
    assert gauge.value == pool.resident_bytes()
    kinds = [s.attrs["kind"] for s in telemetry.spans if s.name == "warmpool.acquire"]
    assert kinds == ["cold", "warm", "swapped"]
    pool.discard(third.container)


def test_scheduler_queue_wait_and_free_node_gauge():
    env = Environment()
    telemetry = Telemetry(env=env).install(env)
    cluster = Cluster()
    cluster.add_nodes("s", 2, DAINT_MC)
    scheduler = BatchScheduler(env, cluster)

    spec = JobSpec(user="u", app="app", nodes=2, cores_per_node=4,
                   memory_per_node=GiB, walltime=100.0, runtime=50.0)
    scheduler.submit(spec)               # starts immediately, wait = 0
    scheduler.submit(spec)               # must wait for the first to finish
    env.run()

    metrics = telemetry.metrics
    wait = metrics.get("repro_scheduler_queue_wait_seconds")
    assert wait.count == 2
    assert wait.quantile(0.0) == 0.0
    assert wait.quantile(1.0) == pytest.approx(50.0)
    free_nodes = metrics.get("repro_scheduler_free_nodes_count")
    assert free_nodes.value == 2         # everything finished
    job_spans = [s for s in telemetry.spans if s.name == "slurm.job"]
    assert len(job_spans) == 2
    assert all(s.duration == pytest.approx(50.0) for s in job_spans)
    assert {s.attrs["state"] for s in job_spans} == {"completed"}


# Process-global counters (lease/client/invocation ids) differ between
# runs in one interpreter; they are identities, not timings.
_VOLATILE_KEYS = ("lease_id", "client", "invocation_id")


def event_timeline(env, client, manager, count):
    statuses = run_invocations(env, client, count)
    records = [
        (
            r.time,
            r.kind,
            tuple(sorted(
                (k, v) for k, v in r.payload.items() if k not in _VOLATILE_KEYS
            )),
        )
        for r in manager.log
    ]
    return records, statuses, env.now


def test_traced_and_untraced_runs_are_identical():
    """Telemetry must not perturb simulated time or seeded determinism."""
    env_plain = Environment()
    manager_plain, client_plain = build_platform(env_plain, seed=7)
    baseline = event_timeline(env_plain, client_plain, manager_plain, count=6)

    env_traced = Environment()
    install(env_traced, Telemetry(env=env_traced))
    manager_traced, client_traced = build_platform(env_traced, seed=7)
    traced = event_timeline(env_traced, client_traced, manager_traced, count=6)

    assert traced == baseline


def test_fig07_traced_equals_untraced():
    untraced = fig07_latency.run(sizes=(1, 1024), samples=10, seed=5)
    with TelemetryCollector():
        traced = fig07_latency.run(sizes=(1, 1024), samples=10, seed=5)
    assert traced == untraced


def test_fig07_trace_covers_hot_warm_and_cold_paths():
    collector = TelemetryCollector()
    with collector:
        fig07_latency.run(sizes=(1,), samples=3, seed=0)
    invocations = [s for s in collector.spans if s.name == "rfaas.invocation"]
    modes = {s.attrs["mode"] for s in invocations}
    assert modes == {"hot", "warm"}
    sandbox_kinds = {s.attrs["kind"] for s in collector.spans if s.name == "rfaas.sandbox"}
    assert "cold" in sandbox_kinds
    inv_ids = {s.span_id for s in invocations}
    nested = [s for s in collector.spans if s.parent_id in inv_ids]
    assert nested  # children attach to invocation spans


#: name -> plan_scenarios kwargs; the first scenario is the one run.
SMALLEST = {
    "chaos": dict(rates=(8.0,), window_s=4.0),
    "autoscale": dict(loads=(1.0,), window_s=4.0),
    "memdurability": dict(factors=(1,), window_s=4.0, accesses=40),
    "gpu_scaling": dict(batch_sizes=(8,), requests=64),
    "manager_failover": dict(standbys=(0,), window_s=4.0),
    "loadstorm": dict(shards=(1,), window_s=2.0, rate_per_s=600.0,
                      population=50000),
}


def _first_point(name, **kwargs):
    return get_sweep(name).plan(**kwargs).scenarios[0].execute()


@pytest.mark.parametrize("name", sweep_names() + ["certify"])
def test_untraced_runs_build_no_telemetry(name, monkeypatch):
    built = []
    init = Telemetry.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Telemetry, "__init__", counting_init)
    if name == "certify":
        assert certify(budget=1, window_s=4.0).ok
    else:
        _first_point(name, **SMALLEST[name])
    assert built == []


def _metric_total(collector, name, **labels):
    wanted = set(labels.items())
    return sum(m.value for registry in collector.registries() for m in registry
               if m.name == name and wanted <= set(m.labels))


def test_chaos_counts_agree_with_the_metrics_they_replace():
    collector = TelemetryCollector()
    with collector:
        point = _first_point("chaos", rates=(16.0,), window_s=15.0)
    assert point["faults_injected"] and point["retries"] and point["recovered"]
    assert point["faults_injected"] == _metric_total(
        collector, "repro_faults_injected_total")
    assert point["retries"] == _metric_total(
        collector, "repro_faults_retries_total")
    (hist,) = [m for registry in collector.registries() for m in registry
               if m.name == "repro_faults_recovery_seconds"]
    assert hist.count == point["recovered"]
    assert point["mean_recovery_ms"] == hist.mean() * 1e3


@pytest.mark.parametrize("standbys", [0, 1])
def test_failover_counts_agree_with_the_metrics_they_replace(standbys):
    collector = TelemetryCollector()
    with collector:
        point = _first_point("manager_failover", standbys=(standbys,),
                             window_s=4.0)
    assert point["manager_down_retries"] == _metric_total(
        collector, "repro_faults_retries_total", reason="manager_down")
    assert point["failovers"] == _metric_total(
        collector, "repro_controlplane_failovers_total")
    assert point["fenced_grants"] == _metric_total(
        collector, "repro_controlplane_fenced_grants_total")
    assert point["orphaned_leases"] == _metric_total(
        collector, "repro_controlplane_orphaned_leases_total")
    assert point["manager_down_retries"] >= 1
    assert point["failovers"] >= standbys
