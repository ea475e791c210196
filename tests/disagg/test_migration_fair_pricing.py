"""Container migration (Sec. III-C) and fair pricing (ref [40]) tests."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import Cluster, DAINT_MC, DragonflyTopology
from repro.containers import ContainerState, Image
from repro.disagg import JobBill
from repro.network import DrcManager, IBVERBS, NetworkFabric
from repro.rfaas import NodeLoadRegistry, ResourceManager
from repro.sim import Environment

GiB = 1024**3
MiB = 1024**2


def make_manager(nodes=3):
    env = Environment()
    cluster = Cluster(topology=DragonflyTopology(nodes_per_group=2))
    cluster.add_nodes("n", nodes, DAINT_MC)
    manager = ResourceManager(env, cluster, loads=NodeLoadRegistry(cluster),
                              drc=DrcManager(), rng=np.random.default_rng(0))
    return env, cluster, manager


def warm_up(manager, node_name, images):
    info = manager.node_info(node_name)
    for image in images:
        result = info.warm_pool.acquire(image)
        info.warm_pool.release(result.container)
    return info


def test_migration_moves_warm_containers():
    env, cluster, manager = make_manager()
    manager.register_node("n0000", cores=4, memory_bytes=8 * GiB)
    manager.register_node("n0001", cores=4, memory_bytes=8 * GiB)
    images = [Image(f"img{i}", size_bytes=200 * MiB) for i in range(3)]
    src = warm_up(manager, "n0000", images)
    dst = manager.node_info("n0001")
    assert src.warm_pool.warm_count == 3

    moved = {}

    def prog():
        n = yield manager.migrate_warm_containers("n0000", "n0001")
        moved["n"] = n
        moved["t"] = env.now

    env.process(prog())
    env.run()
    assert moved["n"] == 3
    assert moved["t"] > 0  # transfer took time
    assert src.warm_pool.warm_count == 0
    assert dst.warm_pool.warm_count == 3
    # Memory accounting moved with them.
    assert cluster.node("n0000").allocated_memory == 0
    assert cluster.node("n0001").allocated_memory == 3 * 256 * MiB
    # Migrated containers give warm hits at the destination.
    result = dst.warm_pool.acquire(images[0])
    assert result.kind == "warm"


def test_migration_overflow_swaps_to_pfs():
    env, cluster, manager = make_manager()
    manager.register_node("n0000", cores=4, memory_bytes=8 * GiB)
    manager.register_node("n0001", cores=4, memory_bytes=8 * GiB)
    # Destination node's memory is almost entirely taken by a batch job.
    cluster.node("n0001").allocate("job", memory_bytes=127 * GiB + 900 * MiB)
    big = Image("big", size_bytes=200 * MiB, runtime_memory_bytes=1 * GiB)
    src = warm_up(manager, "n0000", [big])

    def prog():
        n = yield manager.migrate_warm_containers("n0000", "n0001")
        assert n == 0

    env.process(prog())
    env.run()
    # Fell back to the parallel filesystem.
    assert src.warm_pool.swapped_count == 1
    swapped = next(iter(src.warm_pool._swapped.values()))
    assert swapped.state == ContainerState.SWAPPED
    # A later acquire on the source swaps it back in (cheaper than cold).
    result = src.warm_pool.acquire(big)
    assert result.kind == "swapped"


def test_migration_validation():
    env, _, manager = make_manager()
    manager.register_node("n0000", cores=1, memory_bytes=1 * GiB)
    with pytest.raises(KeyError):
        manager.migrate_warm_containers("n0000", "n0002")
    manager.register_node("n0001", cores=1, memory_bytes=1 * GiB)
    with pytest.raises(ValueError):
        manager.migrate_warm_containers("n0000", "n0001", transfer_bandwidth=0)


def test_fair_pricing_removes_interference_cost():
    bill = JobBill(nodes=2, node_cores=36, requested_cores_per_node=32,
                   runtime_s=3600.0, slowdown=1.04)
    # Naive shared billing charges the inflated wall clock...
    assert bill.shared_cost() > bill.fair_shared_cost()
    # ...fair billing charges the exclusive-equivalent time.
    assert bill.fair_shared_cost() == pytest.approx(2 * 32 * 1.0)
    assert bill.colocation_rebate() == pytest.approx(2 * 32 * 0.04)


def test_fair_pricing_neutral_without_interference():
    bill = JobBill(nodes=1, node_cores=36, requested_cores_per_node=36,
                   runtime_s=100.0, slowdown=1.0)
    assert bill.colocation_rebate() == pytest.approx(0.0)
    assert bill.fair_shared_cost() == pytest.approx(bill.shared_cost())
