"""``PlatformConfig(shards=)``: the sharded plane composed from the
platform's own managers."""

import pytest

from repro.api import Platform, PlatformConfig
from repro.capacity import CapacityConfig
from repro.containers import Image
from repro.controlplane import HAConfig
from repro.faults import FaultPlan
from repro.interference import ResourceDemand
from repro.memservice import DurableMemoryConfig
from repro.rfaas import ExecutorMode
from repro.shard import ShardConfig, ShardedControlPlane

from ..manager_ops import record_manager_ops

MiB = 1024**2
GiB = 1024**3


def _register_function(platform):
    platform.functions.register(
        "fn", Image("img", size_bytes=50 * MiB), runtime_s=0.05,
        demand=ResourceDemand(cores=1, membw=0.0, frac_membw=0.0),
        output_bytes=1,
    )


def _stream(platform, client, outcomes, count):
    """``count`` back-to-back invocations; record each outcome."""
    env = platform.env
    for _ in range(count):
        start = env.now
        detailed = yield client.invoke_detailed("fn", payload_bytes=64)
        outcomes.append((client.name, detailed.outcome, detailed.attempts,
                         detailed.result.ok, env.now - start))


def _storm_history(**subsystems):
    """Three warm executors, two clients, a node crash and a lease storm:
    the invocation outcomes, the manager's op sequence and the engine's
    final event count."""
    plan = (FaultPlan(name="eq")
            .node_crash(at_s=0.6, node="n0001", duration_s=0.5)
            .lease_storm(at_s=1.4, count=2))
    platform = Platform.build(PlatformConfig(nodes=4, **subsystems), seed=3,
                              faults=plan)
    manager = platform.manager
    if isinstance(manager, ShardedControlPlane):
        manager = manager.shards[0].manager
    ops = record_manager_ops(manager, [])
    for node in ("n0001", "n0002", "n0003"):
        platform.register_node(node, cores=2, memory_bytes=8 * GiB,
                               mode=ExecutorMode.WARM)
    _register_function(platform)
    outcomes = []
    for node in ("n0000", "n0001"):
        platform.process(_stream(platform, platform.client(node), outcomes, 12))
    platform.run()
    assert len(platform.injector.injected) == 2
    return outcomes, ops, platform.env.event_count


def test_one_shard_platform_is_the_bare_manager():
    """A one-shard plane over the manager ``build`` would have made
    grants, serves and fails exactly as that manager alone: the same
    invocation outcomes and latencies, the same manager ops, and the
    same engine events (the plane's idle batcher costs none)."""
    bare = _storm_history()
    sharded = _storm_history(shards=ShardConfig(shards=1))
    assert bare == sharded
    outcomes, ops, _events = bare
    assert len(outcomes) == 24
    assert any(attempts > 1 for _, _, attempts, _, _ in outcomes)
    assert {op for _, _, op, *_ in ops} == {
        "register_node", "lease", "revoke_lease", "remove_node",
    }


def _two_tenants(plane):
    names = (f"tenant-{i}" for i in range(1000))
    first = next(names)
    second = next(n for n in names if plane.shard_of(n) != plane.shard_of(first))
    return first, second


@pytest.mark.parametrize("capacity", [None, True])
@pytest.mark.parametrize("ha", [None, HAConfig(standbys=1)])
def test_every_sharded_combination_builds_and_serves(ha, capacity):
    platform = Platform.build(PlatformConfig(
        nodes=5, ha=ha, capacity=CapacityConfig() if capacity else None,
        shards=ShardConfig(shards=2),
    ), seed=0)
    plane = platform.manager
    assert isinstance(plane, ShardedControlPlane)
    assert len(plane.shards) == 2
    for node in ("n0001", "n0002", "n0003", "n0004"):
        platform.register_node(node, cores=2, memory_bytes=8 * GiB)
    _register_function(platform)
    clients = [platform.client("n0000", name=tenant)
               for tenant in _two_tenants(plane)]
    results = []

    def invoke(client):
        if platform.capacity is not None:
            outcome = yield platform.capacity.invoke(client, "fn")
            assert outcome.route == "hpc"
        else:
            outcome = yield client.invoke("fn")
        results.append(outcome.ok)
        client.close()

    for client in clients:
        platform.process(invoke(client))
    platform.run()

    assert results == [True, True]
    leases = [lease for lease, _shard in plane._leases.values()]
    assert sorted(lease.client for lease in leases) == sorted(
        client.name for client in clients)
    for lease in leases:
        home = plane.shards[plane.shard_of(lease.client)]
        assert home.manager.is_registered(lease.node_name)
    assert plane.conservation_ok(drained=True)
    with pytest.raises(RuntimeError, match=r"shards\[i\]\.manager"):
        platform.ha


def test_durable_memory_with_shards_is_rejected_at_build():
    with pytest.raises(ValueError, match="durable_memory"):
        PlatformConfig(durable_memory=DurableMemoryConfig(),
                       shards=ShardConfig(shards=2))


def test_shards_option_is_type_checked():
    with pytest.raises(TypeError, match="ShardConfig"):
        PlatformConfig(shards=2)


def test_a_total_shard_loss_leaves_no_stale_node_in_the_plane():
    """With k=0 a shard's crash orphans its nodes inside its manager:
    the plane must stop reporting them, and a fault aimed at one is
    skipped rather than crashing the run."""
    plan = (FaultPlan(name="orphan")
            .manager_crash(at_s=1.0, shard=0)
            .node_crash(at_s=2.0, node="n0000"))
    platform = Platform.build(
        PlatformConfig(nodes=4, ha=HAConfig(standbys=0),
                       shards=ShardConfig(shards=2)),
        seed=0, faults=plan,
    )
    for node in ("n0000", "n0001", "n0002", "n0003"):
        platform.register_node(node, cores=2, memory_bytes=8 * GiB)
    plane = platform.manager
    assert plane.shards[0].manager.registered_nodes() == ["n0000", "n0002"]
    platform.run(5.0)
    assert plane.shards[0].manager.registered_nodes() == []
    assert plane.registered_nodes() == sorted(
        name for shard in plane.shards
        for name in shard.manager.registered_nodes())
    assert not plane.is_registered("n0000")
    skipped = platform.injector.skipped
    assert [(ev.kind, ev.node) for ev in skipped] == [("node_crash", "n0000")]
