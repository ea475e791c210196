"""Fractional GPU lease manager: deterministic grants, revocation."""

import pytest

from repro.cluster.specs import P100
from repro.gpu import GpuDevice
from repro.gpuservice import GpuLeaseManager, GpuLeaseState
from repro.rfaas import GpuLeaseRevokedError, NoCapacityError
from repro.sim import Environment

MiB = 1024**2


def make_fleet(devices=("b/gpu0", "a/gpu0")):
    """Registration order deliberately unsorted: grants must not care."""
    env = Environment()
    manager = GpuLeaseManager(env)
    for name in devices:
        node = name.split("/")[0]
        manager.add_device(GpuDevice(env, P100, name=name), node)
    return env, manager


def test_grant_prefers_least_committed_with_name_tiebreak():
    _, manager = make_fleet()
    # Both empty: the name tie-break picks "a/gpu0" regardless of
    # registration order.
    first = manager.grant("fn_a", occupancy=0.5, memory_bytes=256 * MiB)
    assert first.device == "a/gpu0"
    # Now "a" carries 0.5: the next grant lands on the emptier "b".
    second = manager.grant("fn_b", occupancy=0.5, memory_bytes=256 * MiB)
    assert second.device == "b/gpu0"
    assert manager.granted == 2
    assert [l.function for l in manager.active_leases()] == ["fn_a", "fn_b"]


def test_grant_respects_occupancy_and_memory_ceilings():
    _, manager = make_fleet(devices=("a/gpu0",))
    manager.grant("fat", occupancy=0.8, memory_bytes=P100.memory_bytes - MiB)
    with pytest.raises(NoCapacityError):
        manager.grant("occ", occupancy=0.3, memory_bytes=MiB)  # 1.1 > 1.0
    with pytest.raises(NoCapacityError):
        manager.grant("mem", occupancy=0.1, memory_bytes=2 * MiB)
    # A share that fits both ceilings still goes through.
    lease = manager.grant("thin", occupancy=0.2, memory_bytes=MiB)
    assert lease.device == "a/gpu0"


def test_release_returns_capacity_without_callbacks():
    _, manager = make_fleet(devices=("a/gpu0",))
    lease = manager.grant("fn", 1.0, MiB)
    manager.release(lease)
    assert lease.state == GpuLeaseState.RELEASED
    assert manager.revoked == 0
    assert manager.committed_occupancy("a/gpu0") == 0.0
    manager.grant("fn", 1.0, MiB)  # the share is grantable again


def test_remove_device_revokes_every_lease_on_it():
    _, manager = make_fleet()
    a = manager.grant("fn_a", 0.5, MiB)
    b = manager.grant("fn_b", 0.4, MiB)
    assert {a.device, b.device} == {"a/gpu0", "b/gpu0"}
    victims = manager.remove_device(a.device, cause="device-loss")
    assert victims == [a]
    assert a.state == GpuLeaseState.REVOKED and a.revoked_cause == "device-loss"
    assert b.is_active
    with pytest.raises(KeyError):
        manager.device_of(a.device)
    assert manager.revoked == 1


def test_revoked_lease_error_carries_device_and_cause():
    _, manager = make_fleet(devices=("a/gpu0",))
    lease = manager.grant("fn", 0.5, MiB)
    manager.remove_device("a/gpu0", cause="reclaimed-by-batch-job")
    error = lease.error()
    assert isinstance(error, GpuLeaseRevokedError)
    assert "a/gpu0" in str(error)
    assert "reclaimed-by-batch-job" in str(error)


def test_double_revoke_and_revoke_after_release_are_noops():
    _, manager = make_fleet(devices=("a/gpu0", "b/gpu0"))
    lease = manager.grant("fn", 0.5, MiB)       # ties break to "a/gpu0"
    assert lease.device == "a/gpu0"
    manager.remove_device("a/gpu0", cause="first")
    assert manager.remove_device("a/gpu0", cause="second") == []
    assert lease.revoked_cause == "first"
    assert manager.revoked == 1
    released = manager.grant("fn2", 0.5, MiB)
    manager.release(released)
    assert manager.remove_device(released.device) == []
    assert released.state == GpuLeaseState.RELEASED
    assert manager.revoked == 1
