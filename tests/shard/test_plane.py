"""Sharded control plane: placement, batching, conservation, migration."""

import gc
import types

import pytest

from repro.controlplane import HAConfig
from repro.rfaas.errors import ManagerUnavailableError, NoCapacityError
from repro.rfaas.lease import LeaseState
from repro.sweep import run_sweep
from repro.telemetry import TelemetryCollector, telemetry_of

from .conftest import GiB, build_plane, drive


def test_tenants_stick_to_their_home_shard():
    env, plane = build_plane(shards=4, nodes=8)
    tenants = [f"t{i:07d}" for i in range(100)]
    homes = {t: plane.shard_of(t) for t in tenants}
    assert set(homes.values()) <= set(range(4))
    assert homes == {t: plane.shard_of(t) for t in tenants}
    env.run()


def test_grant_and_release_flow_through_the_batcher():
    env, plane = build_plane(shards=2, nodes=4)
    done = []
    env.process(drive(env, plane.request_grant("tenant-a", cores=1), done))
    env.run()
    assert done and done[0][0] == "ok"
    lease, executor = done[0][1]
    assert lease.active
    assert executor is not None
    assert plane.active_leases() == [(lease, lease.node_name)]

    env.process(drive(env, plane.request_release(lease), done))
    env.run()
    assert done[-1][0] == "ok"
    assert lease.state is LeaseState.RELEASED
    assert plane.active_leases() == []
    env.run()
    assert plane.conservation_ok(drained=True)


def test_no_capacity_fails_the_grant_event_honestly():
    env, plane = build_plane(shards=1, nodes=1, cores=2)
    done = []
    for _ in range(3):  # 2 cores, 3 single-core asks: the third must fail
        env.process(drive(env, plane.request_grant("t", cores=1), done))
    env.run()
    outcomes = [kind for kind, _ in done]
    assert outcomes.count("ok") == 2
    assert outcomes.count("fail") == 1
    failure = next(value for kind, value in done if kind == "fail")
    assert isinstance(failure, NoCapacityError)
    assert plane.conservation_ok(drained=False)
    env.run()


def _grant_tally(plane, tenant, tally):
    # The event stays off the frame: a frame holding the failed event
    # would itself be a cycle (event -> error -> traceback -> frame).
    try:
        yield plane.request_grant(tenant, cores=1)
    except NoCapacityError:
        tally["denied"] += 1
    else:
        tally["granted"] += 1


def test_denials_leave_no_cyclic_garbage():
    """A capacity denial is a value from the manager to the grant event,
    so no traceback pins the batcher's frame and its batch: with the
    cyclic collector off, 200 grants against one core leave no
    ``NoCapacityError`` and no traceback behind."""
    env, plane = build_plane(shards=1, nodes=1, cores=1)
    tally = {"granted": 0, "denied": 0}

    def tracebacks():
        return sum(isinstance(obj, types.TracebackType)
                   for obj in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = tracebacks()
        for i in range(200):
            env.process(_grant_tally(plane, f"t{i:03d}", tally))
        env.run()
        errors = [obj for obj in gc.get_objects()
                  if isinstance(obj, NoCapacityError)]
        after = tracebacks()
    finally:
        gc.enable()
    assert tally == {"granted": 1, "denied": 199}
    assert errors == []
    assert after == before
    assert plane.conservation()["ops_failed"] == 199


@pytest.mark.parametrize("ha", [None, HAConfig(standbys=1)])
def test_denials_keep_their_message_and_counts(ha):
    """Denials as values change no answer: each failed grant carries the
    manager's message, and both denial counters count every one."""
    env, plane = build_plane(shards=2, nodes=3, cores=2, ha=ha)
    done = []
    for i in range(40):
        env.process(drive(env, plane.request_grant(f"t{i:03d}", cores=1 + i % 2),
                          done))
    env.run()
    failures = [value for kind, value in done if kind == "fail"]
    assert len(failures) == 36
    assert all(type(failure) is NoCapacityError for failure in failures)
    assert sorted({str(failure) for failure in failures}) == [
        "no registered node fits 1 cores",
        "no registered node fits 2 cores",
    ]
    metrics = telemetry_of(env).metrics
    assert metrics.get("repro_shard_rejected_total").value == 36
    assert metrics.get("repro_manager_lease_denied_total").value == 36


def test_loadstorm_denial_counts_under_a_collector():
    """The denial-heavy storm (one core per node) counts the same
    rejections, denials and grants as when denials were raised."""
    with TelemetryCollector() as collector:
        result = run_sweep("loadstorm", shards=(1, 2), window_s=1,
                           rate_per_s=600, population=50000, cores_per_node=1)

    def total(name):
        return sum(registry.get(name).value
                   for registry in collector.registries()
                   if registry.get(name) is not None)

    assert [(p.admitted, p.completed, p.degraded) for p in result.points] == [
        (558, 428, 130), (558, 453, 105),
    ]
    assert total("repro_shard_rejected_total") == 3586
    assert total("repro_manager_lease_denied_total") == 3586
    assert total("repro_manager_leases_total") == 881


def _shard_holding(plane, node_name):
    """Index of the one shard whose manager has ``node_name`` registered."""
    (index,) = [shard.index for shard in plane.shards
                if shard.manager.is_registered(node_name)]
    return index


def test_nodes_spread_across_shards_least_cores_first():
    env, plane = build_plane(shards=2, nodes=4, cores=4)
    per_shard = {shard.index: shard.manager.registered_nodes()
                 for shard in plane.shards}
    assert sorted(per_shard) == [0, 1]
    assert all(len(nodes) == 2 for nodes in per_shard.values())
    env.run()


def test_bare_shard_crash_fences_leases_and_rejects_ops():
    env, plane = build_plane(shards=2, nodes=4)
    tenant = next(f"t{i}" for i in range(100) if plane.shard_of(f"t{i}") == 0)
    done = []
    env.process(drive(env, plane.request_grant(tenant, cores=1), done))
    env.run()
    lease, _ = done[0][1]

    assert plane.crash_shard(0) == "shard-0"
    assert lease.state is LeaseState.CANCELLED  # lease-expiry fencing
    assert not plane.shards[0].available

    env.process(drive(env, plane.request_grant(tenant, cores=1), done))
    env.run()
    assert done[-1][0] == "fail"
    assert isinstance(done[-1][1], ManagerUnavailableError)
    env.run()
    assert plane.conservation_ok(drained=True)


def test_bare_shard_restarts_after_outage():
    env, plane = build_plane(shards=2, nodes=4)
    plane.crash_shard(1, outage_s=0.5)
    assert not plane.shards[1].available
    env.run(until=1.0)
    assert plane.shards[1].available
    env.run()


def test_ha_shard_crash_fails_over_instead_of_fencing():
    env, plane = build_plane(shards=2, nodes=4,
                             ha=HAConfig(standbys=1, heartbeat_interval_s=0.1,
                                         suspect_after=3))
    name = plane.crash_shard(0)
    assert name is not None and name.startswith("shard-0/")
    env.run(until=2.0)  # detector timeout + takeover
    assert plane.shards[0].available  # a standby leads a new epoch
    env.run()


def test_untargeted_register_with_every_shard_down_is_unavailable():
    env, plane = build_plane(shards=1, nodes=0)   # one spare node, n0000
    plane.crash_shard(0)
    with pytest.raises(ManagerUnavailableError):
        plane.register_node("n0000", cores=4, memory_bytes=4 * GiB)
    assert plane.registered_nodes() == []
    env.run()


def test_migration_moves_only_idle_nodes():
    env, plane = build_plane(shards=2, nodes=4)
    done = []
    env.process(drive(env, plane.request_grant("tenant-b", cores=1), done))
    env.run()
    lease, _ = done[0][1]
    busy = lease.node_name
    busy_shard = _shard_holding(plane, busy)
    other = 1 - busy_shard

    assert not plane.migrate_node(busy, other)  # leased: must not move
    idle = next(n for n in plane.shards[busy_shard].manager.registered_nodes()
                if n != busy)
    assert plane.migrate_node(idle, other)
    assert _shard_holding(plane, idle) == other
    assert plane.migrations == 1
    env.run()


def test_drain_rebalances_toward_the_starved_shard():
    env, plane = build_plane(shards=2, nodes=4, cores=2)
    # Saturate every core shard 0 owns, then drain nothing — instead
    # exhaust it so rebalance() sees zero free cores.
    shard0_nodes = plane.shards[0].manager.registered_nodes()
    done = []
    tenant = next(f"t{i}" for i in range(200) if plane.shard_of(f"t{i}") == 0)
    for _ in range(len(shard0_nodes) * 2):
        env.process(drive(env, plane.request_grant(tenant, cores=1), done))
    env.run()
    assert plane.shards[0].manager.total_free_cores() == 0
    moved = plane.rebalance()
    assert moved >= 1  # an idle shard-1 node crossed over
    assert plane.shards[0].manager.total_free_cores() > 0
    env.run()


def test_conservation_ledger_accounts_for_every_op_and_lease():
    env, plane = build_plane(shards=2, nodes=4)
    done = []
    for i in range(6):
        env.process(drive(env, plane.request_grant(f"t{i}", cores=1), done))
    env.run()
    leases = [value[0] for kind, value in done if kind == "ok"]
    for lease in leases[:2]:
        env.process(drive(env, plane.request_release(lease), done))
    env.run()
    plane.revoke_lease(leases[2], reason="test")
    ledger = plane.conservation()
    assert ledger["ops_submitted"] == ledger["ops_applied"] + ledger["ops_failed"]
    assert ledger["granted"] == (
        ledger["active"] + ledger["released"] + ledger["revoked"]
    )
    assert ledger["released"] == 2
    assert ledger["revoked"] == 1
    assert plane.conservation_ok(drained=False)
    assert not plane.conservation_ok(drained=True)  # leases still active
    env.run()


def test_config_validation():
    with pytest.raises(ValueError):
        from repro.shard import ShardConfig
        ShardConfig(shards=0)
