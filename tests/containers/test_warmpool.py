"""Warm container pool: hits, swap, eviction, reclamation."""

from dataclasses import replace

import pytest

from repro.cluster import AllocationError, DAINT_MC, Node
from repro.containers import ContainerState, Image, SARUS, WarmPool
from repro.sim import Environment

MiB = 1024**2
GiB = 1024**3


def make_pool(node_mem=None):
    env = Environment()
    spec = DAINT_MC if node_mem is None else replace(DAINT_MC, memory_bytes=node_mem)
    node = Node("n0", spec)
    pool = WarmPool(env, node, SARUS)
    return env, node, pool


def image(name="fn-image", mem=256 * MiB):
    return Image(name=name, size_bytes=300 * MiB, runtime_memory_bytes=mem)


def test_first_acquire_is_cold():
    env, node, pool = make_pool()
    res = pool.acquire(image())
    assert res.kind == "cold"
    assert res.startup_cost_s > 0.1
    assert pool.cold_starts == 1
    assert node.allocated_memory == 256 * MiB


def test_release_then_acquire_is_warm():
    env, node, pool = make_pool()
    res = pool.acquire(image())
    pool.release(res.container)
    assert pool.warm_count == 1
    res2 = pool.acquire(image())
    assert res2.kind == "warm"
    assert res2.container is res.container
    assert res2.startup_cost_s == pytest.approx(SARUS.warm_attach_s)
    assert pool.hits == 1


def test_warm_hit_matches_by_image_name():
    env, node, pool = make_pool()
    res = pool.acquire(image("a"))
    pool.release(res.container)
    res2 = pool.acquire(image("b"))
    assert res2.kind == "cold"


def test_reclaim_swaps_out_lru():
    env, node, pool = make_pool()
    r1 = pool.acquire(image("a"))
    pool.release(r1.container)
    env.run(until=10)  # advance clock for distinct LRU stamps
    r2 = pool.acquire(image("b"))
    pool.release(r2.container)
    freed = pool.reclaim(200 * MiB)
    assert freed == 256 * MiB
    assert pool.warm_count == 1
    assert pool.swapped_count == 1
    # LRU (image a) was the victim.
    assert r1.container.state == ContainerState.SWAPPED
    assert r2.container.state == ContainerState.WARM


def test_swapped_acquire_pays_swap_in():
    env, node, pool = make_pool()
    r1 = pool.acquire(image("a"))
    pool.release(r1.container)
    pool.reclaim(1)  # swap it out
    res = pool.acquire(image("a"))
    assert res.kind == "swapped"
    cold = SARUS.cold_start_time(image("a"))
    assert 0 < res.startup_cost_s < cold
    assert pool.swap_ins == 1
    assert node.allocated_memory == 256 * MiB


def test_reclaim_without_swap_discards():
    env, node, pool = make_pool()
    r = pool.acquire(image("a"))
    pool.release(r.container)
    pool.reclaim(1, swap=False)
    assert pool.swapped_count == 0
    assert pool.acquire(image("a")).kind == "cold"


def test_memory_pressure_evicts_warm_containers():
    env, node, pool = make_pool(node_mem=1 * GiB)
    big = 400 * MiB
    r1 = pool.acquire(image("a", mem=big))
    pool.release(r1.container)
    r2 = pool.acquire(image("b", mem=big))
    pool.release(r2.container)
    # Node has 1 GiB; a third 400 MiB container forces an eviction.
    r3 = pool.acquire(image("c", mem=big))
    assert r3.kind == "cold"
    assert pool.evictions >= 1
    assert node.allocated_memory <= 1 * GiB


def test_acquire_raises_when_memory_unavailable():
    env, node, pool = make_pool(node_mem=1 * GiB)
    node.allocate("batch-job", memory_bytes=900 * MiB, kind="batch")
    with pytest.raises(AllocationError):
        pool.acquire(image("a", mem=256 * MiB))


def test_drain_empties_pool():
    env, node, pool = make_pool()
    for name in ("a", "b", "c"):
        res = pool.acquire(image(name))
        pool.release(res.container)
    pool.drain()
    assert pool.warm_count == 0
    assert pool.swapped_count == 3
    assert node.allocated_memory == 0


def test_discard_frees_memory():
    env, node, pool = make_pool()
    res = pool.acquire(image())
    pool.discard(res.container)
    assert node.allocated_memory == 0
    assert pool.warm_count == 0


def test_release_requires_in_use():
    env, node, pool = make_pool()
    res = pool.acquire(image())
    pool.release(res.container)
    with pytest.raises(ValueError):
        pool.release(res.container)


def test_warm_pool_and_swap_beat_cold_starts():
    """Sec. IV-B: 50 invocations with the batch system reclaiming idle
    memory every 10 -- pooling sandboxes beats a cold start per call, and
    swapping them out on reclaim beats discarding them."""

    def total_startup_s(mode):
        env, node, pool = make_pool()
        total = 0.0
        for i in range(50):
            res = pool.acquire(image())
            total += res.startup_cost_s
            if mode == "cold-always":
                pool.discard(res.container)
                continue
            pool.release(res.container)
            if i % 10 == 9:
                pool.reclaim(10**12, swap=(mode == "pooled+swap"))
        return total

    assert (total_startup_s("pooled+swap") < total_startup_s("pooled")
            < total_startup_s("cold-always"))
