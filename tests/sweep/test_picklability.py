"""Everything that crosses the process-pool boundary must pickle.

The sweep fabric ships :class:`~repro.experiments.base.ScenarioSpec`
objects to workers, and specs embed the experiment configuration
objects — so both the specs of every registered sweep's plan and the
public config types must survive a pickle round-trip unchanged.  A
frozen :class:`~repro.api.PlatformConfig` is a value, so it must hash
too.
"""

import pickle

import pytest

from repro.api import PlatformConfig
from repro.capacity import CapacityConfig
from repro.controlplane import HAConfig
from repro.experiments import (autoscale_sweep, chaos_sweep,
                               gpu_scaling_sweep, memdurability_sweep)
from repro.experiments.base import registered_sweeps
from repro.faults import FaultPlan
from repro.gpuservice import GpuServiceConfig
from repro.memservice import DurableMemoryConfig
from repro.shard import ShardConfig


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


def test_fault_plan_roundtrips_with_events():
    plan = (FaultPlan(name="storm")
            .node_crash(at_s=5.0, duration_s=20.0)
            .lease_storm(at_s=8.0, count=4)
            .network_degrade(at_s=12.0, duration_s=3.0, latency_factor=10.0))
    clone = _roundtrip(plan)
    assert clone.name == "storm"
    assert len(clone) == len(plan)
    assert [ev.to_dict() for ev in clone] == [ev.to_dict() for ev in plan]


def test_capacity_config_roundtrips():
    config = CapacityConfig(burst_enabled=False)
    clone = _roundtrip(config)
    assert clone == config


def test_durable_memory_config_roundtrips():
    config = DurableMemoryConfig(replication=3, hosts=("n0001", "n0002"))
    clone = _roundtrip(config)
    assert clone == config


def test_platform_config_roundtrips():
    config = PlatformConfig(nodes=4, jitter=0.0,
                            capacity=CapacityConfig(burst_enabled=False))
    clone = _roundtrip(config)
    assert clone == config


def _unhashable(config) -> bool:
    try:
        hash(config)
    except TypeError:
        return True
    return False


def test_every_default_plan_platform_config_hashes():
    platforms = {
        f"{name}:{spec.label}": spec.params["platform"]
        for name, sweep in registered_sweeps().items()
        for spec in sweep.plan().scenarios
        if "platform" in spec.params
    }
    assert any(label.startswith("autoscale:") for label in platforms)
    assert [label for label, config in platforms.items()
            if _unhashable(config)] == []


@pytest.mark.parametrize("config", [
    PlatformConfig(capacity=CapacityConfig(), durable_memory=DurableMemoryConfig(),
                   gpu=GpuServiceConfig(), ha=HAConfig()),
    PlatformConfig(capacity=CapacityConfig(), gpu=GpuServiceConfig(),
                   ha=HAConfig(), shards=ShardConfig(shards=2)),
], ids=["durable_memory", "shards"])
def test_a_platform_config_with_every_subsystem_hashes(config):
    assert hash(config) == hash(_roundtrip(config))


@pytest.mark.parametrize("module", [chaos_sweep, autoscale_sweep,
                                    gpu_scaling_sweep, memdurability_sweep])
def test_every_planned_scenario_spec_roundtrips(module):
    for spec in module.plan_scenarios().scenarios:
        clone = _roundtrip(spec)
        assert clone.label == spec.label
        assert clone.seed == spec.seed
        assert clone.fn is spec.fn  # pickled by reference: module-level
        assert clone.params == spec.params
        # The unpickler interns instance-state keys but not dict keys, so
        # a params key that is also a config field name (autoscale's
        # ``window_s``) re-pickles to other bytes; from the clone on, the
        # bytes are a fixed point.
        assert pickle.dumps(_roundtrip(clone.params)) == pickle.dumps(clone.params)
