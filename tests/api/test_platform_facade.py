"""The Platform facade: one build() call wires the whole stack."""

import hashlib
import json
import pickle
from dataclasses import fields

import pytest

from repro.api import Platform, PlatformConfig
from repro.capacity import CapacityConfig
from repro.containers import Image
from repro.controlplane import HAConfig
from repro.experiments import chaos_sweep
from repro.faults import FaultPlan
from repro.gpuservice import GpuServiceConfig
from repro.interference import ResourceDemand
from repro.memservice import DurableMemoryConfig
from repro.network import IBVERBS
from repro.shard import ShardConfig
from repro.telemetry import NULL_TELEMETRY, TelemetryCollector

MiB = 1024**2
GiB = 1024**3


def _ready_platform(**build_kwargs):
    platform = Platform.build(
        PlatformConfig(nodes=3, provider=IBVERBS, jitter=0.0), **build_kwargs
    )
    platform.register_node("n0001", cores=4, memory_bytes=8 * GiB)
    image = Image("fn-image", size_bytes=50 * MiB)
    platform.functions.register(
        "noop", image, runtime_s=0.01,
        demand=ResourceDemand(cores=1, membw=0.0, frac_membw=0.0),
        output_bytes=1,
    )
    return platform


def _run_some(platform, n=3):
    client = platform.client("n0000")
    results = []

    def driver():
        for _ in range(n):
            result = yield client.invoke("noop", payload_bytes=64)
            results.append(result)

    platform.process(driver())
    platform.run()
    return results


def test_build_defaults():
    platform = Platform.build()
    assert platform.config == PlatformConfig()
    assert platform.env.now == 0.0
    assert platform.injector is None
    assert platform.telemetry is NULL_TELEMETRY
    assert platform.cluster.node("n0001") is not None


def test_platform_config_validation():
    with pytest.raises(ValueError):
        PlatformConfig(nodes=0)
    for name in ("capacity", "durable_memory", "gpu", "ha"):
        with pytest.raises(TypeError, match=f"PlatformConfig.{name}"):
            PlatformConfig(**{name: True})


#: One non-default value per PlatformConfig field (a new field without
#: one fails the test below with a KeyError).
FIELD_VALUES = {
    "nodes": 3,
    "provider": IBVERBS,
    "jitter": 0.0,
    "capacity": CapacityConfig(),
    "durable_memory": DurableMemoryConfig(),
    "gpu": GpuServiceConfig(),
    "ha": HAConfig(),
    "shards": ShardConfig(shards=2),
}


@pytest.mark.parametrize("name", [f.name for f in fields(PlatformConfig)])
def test_each_field_set_alone_builds_a_serving_platform(name):
    platform = Platform.build(PlatformConfig(**{name: FIELD_VALUES[name]}))
    assert getattr(platform.config, name) == FIELD_VALUES[name]
    assert (platform.capacity is not None) == (name == "capacity")
    assert (platform.durable_memory is not None) == (name == "durable_memory")
    if name == "ha":
        assert platform.ha is platform.manager
    if name == "gpu":
        assert platform.gpu.devices_online()
    platform.register_node("n0001", cores=4, memory_bytes=8 * GiB)
    platform.functions.register(
        "noop", Image("fn-image", size_bytes=50 * MiB), runtime_s=0.01,
        demand=ResourceDemand(cores=1, membw=0.0, frac_membw=0.0),
        output_bytes=1,
    )
    results = _run_some(platform)
    assert len(results) == 3 and all(r.ok for r in results)


def test_missing_subsystems_name_their_config_field():
    platform = Platform.build()
    with pytest.raises(RuntimeError, match=r"PlatformConfig\(gpu="):
        platform.gpu
    with pytest.raises(RuntimeError, match=r"PlatformConfig\(ha="):
        platform.ha
    with pytest.raises(RuntimeError, match=r"PlatformConfig\(durable_memory="):
        platform.memory_client("n0000")


def _digest(point: dict) -> str:
    return hashlib.sha256(json.dumps(point, sort_keys=True).encode()).hexdigest()


def test_a_point_replays_from_its_pickled_config():
    """A chaos point whose config carries durable memory, run from the
    planned params and from their pickle round trip: the same digest."""
    spec = chaos_sweep.plan_scenarios(rates=(8.0,), window_s=4.0,
                                      memservice=True).scenarios[0]
    config = spec.params["platform"]
    clone = pickle.loads(pickle.dumps(config))
    assert clone == config and clone.durable_memory is not None
    replayed = spec.fn({**spec.params, "platform": clone}, spec.seed)
    assert _digest(replayed) == _digest(spec.fn(spec.params, spec.seed))


def test_invoke_roundtrip_through_facade():
    platform = _ready_platform()
    results = _run_some(platform)
    assert len(results) == 3 and all(r.ok for r in results)
    assert results[0].node_name == "n0001"
    assert platform.env.now > 0


def test_a_fresh_collector_pins_a_fresh_scope():
    with TelemetryCollector():
        platform = _ready_platform()
    assert platform.telemetry is not NULL_TELEMETRY
    _run_some(platform)
    counter = platform.telemetry.metrics.get("repro_manager_leases_total")
    assert counter is not None and counter.value >= 1


def test_an_active_collector_scopes_the_platform():
    with TelemetryCollector() as collector:
        platform = Platform.build()
    assert platform.telemetry in collector.scopes
    assert platform.telemetry is not NULL_TELEMETRY
    assert Platform.build().telemetry is NULL_TELEMETRY


def test_empty_fault_plan_changes_nothing():
    plain = _run_some(_ready_platform(seed=5))
    with_empty_plan = _run_some(_ready_platform(seed=5, faults=FaultPlan()))
    assert [r.timings.total for r in plain] == \
        [r.timings.total for r in with_empty_plan]
    assert _ready_platform(faults=FaultPlan()).injector is None


def test_nonempty_fault_plan_starts_an_injector():
    plan = FaultPlan().lease_storm(at_s=1.0)
    platform = _ready_platform(faults=plan)
    assert platform.injector is not None
    assert platform.injector.started
    assert platform.injector.plan is plan


def test_same_seed_same_run():
    def totals(seed):
        # The default UGNI provider, jitter and all.
        platform = Platform.build(PlatformConfig(nodes=3), seed=seed)
        platform.register_node("n0001", cores=4, memory_bytes=8 * GiB)
        image = Image("fn-image", size_bytes=50 * MiB)
        platform.functions.register(
            "noop", image, runtime_s=0.01,
            demand=ResourceDemand(cores=1, membw=0.0, frac_membw=0.0),
            output_bytes=1,
        )
        return [r.timings.total for r in _run_some(platform)]

    assert totals(2) == totals(2)
    # The default UGNI provider has latency jitter, so a different seed
    # observably reshuffles the network samples.
    assert totals(2) != totals(3)
