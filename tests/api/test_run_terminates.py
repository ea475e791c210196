"""An open-ended run returns while every background loop is still alive.

Each build below starts at least one periodic loop (heartbeat, repair,
autoscaler, rebalancer, utilization sampler).  The loops wait on
``env.tick``, so after some foreground work a bare ``run()`` returns on
its own, with no stop call; a bounded run after it still advances every
loop.
"""

import pytest

from repro.api import Platform, PlatformConfig
from repro.cluster import DAINT_MC, Cluster
from repro.capacity import CapacityConfig
from repro.capacity.autoscaler import INTERVAL_S
from repro.containers import Image
from repro.controlplane import HAConfig
from repro.interference import ResourceDemand
from repro.memservice import DurableMemoryConfig
from repro.shard import ShardConfig
from repro.sim import Environment
from repro.slurm import BatchScheduler, JobSpec, UtilizationSampler

from ..shard.conftest import drive

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


def _last_heartbeat(ha):
    return max(replica.last_heartbeat_s for replica in ha.replicas)


# Each build returns ``(env, finished, interval, progress)``: ``progress``
# reads one counter per loop, and every counter must grow over a run of
# two of the longest ``interval``.

def _ha():
    platform = Platform.build(PlatformConfig(nodes=3, ha=HAConfig()), seed=0)
    results = _invocations(platform)
    ha = platform.ha
    return (platform.env, lambda: len(results) == 3,
            ha.config.heartbeat_interval_s, lambda: [_last_heartbeat(ha)])


def _capacity():
    platform = Platform.build(PlatformConfig(nodes=3, capacity=CapacityConfig()),
                              seed=0)
    results = _invocations(platform)
    autoscaler = platform.capacity.autoscaler
    return (platform.env, lambda: len(results) == 3,
            INTERVAL_S, lambda: [autoscaler.ticks])


def _durable_memory():
    platform = Platform.build(
        PlatformConfig(nodes=4, durable_memory=DurableMemoryConfig(
            size_bytes=32 * MiB, chunk_bytes=16 * MiB,
            hosts=("n0001", "n0002", "n0003"),
        )),
        seed=0,
    )
    client = platform.memory_client("n0000")
    reads = [client.read(0, 2 * MiB), client.read(16 * MiB, 2 * MiB)]
    repair = platform.durable_memory.repair
    return (platform.env, lambda: all(r.processed for r in reads),
            repair.interval_s, lambda: [repair.ticks])


def _sharded_ha_rebalance():
    platform = Platform.build(
        PlatformConfig(nodes=4, ha=HAConfig(standbys=1),
                       shards=ShardConfig(shards=2, rebalance_interval_s=0.25)),
        seed=0,
    )
    plane = platform.manager
    for i in range(4):
        platform.register_node(f"n{i:04d}", cores=4, memory_bytes=4 * GiB)
    done = []
    for i in range(4):
        platform.process(drive(platform.env, plane.request_grant(f"t{i}"), done))
    rebalances = []
    rebalance = plane.rebalance
    plane.rebalance = lambda: rebalances.append(platform.env.now) or rebalance()
    return (platform.env, lambda: [kind for kind, _ in done] == ["ok"] * 4,
            plane.config.rebalance_interval_s,
            lambda: [len(rebalances)] + [_last_heartbeat(shard.manager)
                                         for shard in plane.shards])


def _utilization_sampler():
    """fig01's sampler, on a bare environment outside ``Platform``."""
    env = Environment()
    cluster = Cluster()
    cluster.add_nodes("n", 2, DAINT_MC)
    scheduler = BatchScheduler(env, cluster)
    sampler = UtilizationSampler(env, scheduler, interval=120.0)
    job = scheduler.submit(JobSpec(user="u", app="a", nodes=1,
                                   cores_per_node=1, memory_per_node=0,
                                   walltime=600.0, runtime=500.0))
    return (env, lambda: job in scheduler.completed, sampler.interval,
            lambda: [len(sampler.idle_nodes.times)])


BUILDS = {
    "ha": _ha,
    "capacity": _capacity,
    "durable_memory": _durable_memory,
    "sharded_ha_rebalance": _sharded_ha_rebalance,
    "utilization_sampler": _utilization_sampler,
}


@pytest.mark.parametrize("build", sorted(BUILDS))
def test_open_ended_run_returns_with_loops_alive(build):
    env, finished, interval, progress = BUILDS[build]()
    env.run()
    assert finished()
    before = progress()
    horizon = env.now + 2 * interval
    env.run(until=horizon)
    assert env.now == horizon
    after = progress()
    assert all(b > a for a, b in zip(before, after)), (before, after)
