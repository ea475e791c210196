"""An open-ended run returns while every background loop is still alive.

Each build below starts at least one periodic loop (heartbeat, repair,
autoscaler, rebalancer).  The loops are daemon processes, so after some
foreground work a bare ``run()`` returns on its own, with no stop call.
"""

import pytest

from repro.api import ClusterSpec, Platform
from repro.capacity import AutoscalerConfig
from repro.containers import Image
from repro.controlplane import HAConfig
from repro.gpu import GpuFunctionSpec
from repro.gpuservice import BatchPolicy, GpuServiceConfig
from repro.interference import ResourceDemand
from repro.memservice import DurableMemoryConfig

from ..shard.conftest import build_plane, drive

MiB = 1024**2
GiB = 1024**3


def _invocations(platform, count=3):
    """Register two executors and invoke a function ``count`` times."""
    for node in ("n0001", "n0002"):
        platform.register_node(node, cores=2, memory_bytes=8 * GiB)
    platform.functions.register(
        "fn", Image("img", size_bytes=50 * MiB), runtime_s=0.05,
        demand=ResourceDemand(cores=1, membw=0.0, frac_membw=0.0),
        output_bytes=1,
    )
    client = platform.client("n0000")
    results = []

    def one():
        if platform.capacity is not None:
            results.append((yield platform.capacity.invoke(client, "fn")))
        else:
            results.append((yield client.invoke("fn")))

    for _ in range(count):
        platform.process(one())
    return results


def _ha():
    platform = Platform.build(ClusterSpec(nodes=3), seed=0, ha=True)
    results = _invocations(platform)
    return platform.run, lambda: len(results) == 3, [platform.ha._process]


def _capacity():
    platform = Platform.build(ClusterSpec(nodes=3), seed=0, capacity=True)
    results = _invocations(platform)
    return (platform.run, lambda: len(results) == 3,
            [platform.capacity.autoscaler._proc])


def _durable_memory():
    platform = Platform.build(
        ClusterSpec(nodes=4), seed=0,
        durable_memory=DurableMemoryConfig(
            size_bytes=32 * MiB, chunk_bytes=16 * MiB,
            hosts=("n0001", "n0002", "n0003"),
        ),
    )
    client = platform.memory_client("n0000")
    reads = [client.read(0, 2 * MiB), client.read(16 * MiB, 2 * MiB)]
    return (platform.run, lambda: all(r.processed for r in reads),
            [platform.durable_memory.repair._proc])


def _gpu_autoscale():
    platform = Platform.build(
        ClusterSpec(nodes=2), seed=0,
        gpu=GpuServiceConfig(policy=BatchPolicy(max_batch_size=4),
                             autoscale=AutoscalerConfig()),
    )
    service = platform.gpu
    service.register(GpuFunctionSpec(
        name="fn", kernel_count=2, kernel_time_s=1e-3, occupancy=0.5,
        input_bytes=1_000, device_memory_bytes=64 * MiB,
    ))
    requests = [service.submit("fn") for _ in range(6)]  # one partial batch
    return (platform.run, lambda: all(r.done.processed for r in requests),
            [service.autoscaler._proc])


def _sharded_ha_rebalance():
    env, plane = build_plane(shards=2, nodes=4, ha=HAConfig(standbys=1),
                             rebalance_interval_s=0.25)
    done = []
    for i in range(4):
        env.process(drive(env, plane.request_grant(f"t{i}"), done))
    return (env.run, lambda: len(done) == 4,
            [shard.manager._process for shard in plane.shards])


BUILDS = {
    "ha": _ha,
    "capacity": _capacity,
    "durable_memory": _durable_memory,
    "gpu_autoscale": _gpu_autoscale,
    "sharded_ha_rebalance": _sharded_ha_rebalance,
}


@pytest.mark.parametrize("build", sorted(BUILDS))
def test_open_ended_run_returns_with_loops_alive(build):
    run, finished, loops = BUILDS[build]()
    run()
    assert finished()
    assert loops and all(loop.is_alive and loop.daemon for loop in loops)
