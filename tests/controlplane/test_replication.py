"""Epoch-fenced replication: every mutation lands in the one commit log."""

from repro.controlplane import ReplicaRole
from repro.controlplane.replica import replay
from repro.faults.certify import check_epoch_monotonic, check_no_double_grant

from .conftest import build_ha_platform


def test_bootstrap_group_shape():
    platform = build_ha_platform(standbys=2)
    ha = platform.ha
    assert len(ha.replicas) == 3
    assert ha.epoch == 1
    assert ha.primary_rank == 0
    assert ha.primary.role is ReplicaRole.PRIMARY
    assert [r.role for r in ha.replicas[1:]] == [ReplicaRole.STANDBY] * 2
    assert ha.elections[0].cause == "bootstrap"
    assert ha.available
    assert platform.manager is ha  # downstream consumers see the wrapper


def test_registrations_replicate_to_every_standby():
    platform = build_ha_platform(standbys=2)
    assert all(replica.live for replica in platform.ha.replicas)
    registrations = replay(platform.ha.commit_log).registrations
    assert set(registrations) == {"n0001", "n0002", "n0003"}
    assert registrations["n0001"]["cores"] == 4


def test_grant_and_release_replicate_and_log():
    platform = build_ha_platform(standbys=1)
    ha = platform.ha
    lease, _executor = ha.lease("client-0", cores=2)
    assert lease.epoch == 1
    leases = replay(ha.commit_log).leases
    assert leases[lease.lease_id]["cores"] == 2
    ha.release_lease(lease)
    assert lease.lease_id not in replay(ha.commit_log).leases
    ops = [record.op for record in ha.commit_log]
    assert ops == ["register"] * 3 + ["grant", "release"]
    assert check_epoch_monotonic(ha.commit_log) == []
    assert check_no_double_grant(ha.commit_log) == []


def test_revoke_replicates():
    platform = build_ha_platform(standbys=1)
    ha = platform.ha
    lease, _ = ha.lease("client-0")
    assert ha.revoke_lease(lease) is True
    assert lease.lease_id not in replay(ha.commit_log).leases
    assert ha.commit_log[-1].op == "revoke"


def test_noop_mutations_are_not_logged():
    """Idempotent no-ops (unknown node, dead lease) must not pollute the
    fenced log — replay on a standby would otherwise diverge."""
    platform = build_ha_platform(standbys=1)
    ha = platform.ha
    before = len(ha.commit_log)
    assert ha.remove_node("n9999") is False
    lease, _ = ha.lease("client-0")
    ha.release_lease(lease)
    assert ha.revoke_lease(lease) is False  # already released
    log_ops = [r.op for r in ha.commit_log[before:]]
    assert log_ops == ["grant", "release"]  # no record for either no-op


def test_unfenced_reads_pass_through():
    platform = build_ha_platform(standbys=1)
    ha = platform.ha
    assert set(ha.registered_nodes()) == {"n0001", "n0002", "n0003"}
    assert ha.is_registered("n0001")
    assert ha.total_registered_cores() == 12
    assert ha.total_free_cores() == 12
    lease, _ = ha.lease("client-0", cores=4)
    assert ha.total_free_cores() == 8
    assert [l.lease_id for l, _node in ha.active_leases()] == [lease.lease_id]
