"""Crash failover: detection, election, reconciliation, k=0 blast radius."""

from repro.controlplane import ReplicaRole
from repro.controlplane.replica import replay
from repro.rfaas import NoCapacityError, ResourceManager

import pytest

from .conftest import HEARTBEAT_S, SUSPECT_AFTER, build_ha_platform


def test_crash_promotes_lowest_rank_standby_within_the_detection_window():
    platform = build_ha_platform(standbys=2)
    ha = platform.ha
    platform.run(0.25)
    crashed = ha.crash_primary()
    assert crashed == "rm-0"
    assert not ha.available
    platform.run(3.0)
    platform.run()
    assert ha.primary_rank == 1  # lowest standby rank wins, always
    assert ha.epoch == 2
    election = ha.elections[-1]
    assert election.cause == "crash" and election.rank == 1
    # Detection is quantized to heartbeat ticks: the takeover lands
    # between `suspect_after` and `suspect_after + 2` intervals after
    # the crash (never sooner — no false positive from one late tick).
    latency = election.at_s - 0.25
    assert SUSPECT_AFTER * HEARTBEAT_S <= latency + 1e-9
    assert latency <= (SUSPECT_AFTER + 2) * HEARTBEAT_S + 1e-9
    hist = platform.telemetry.metrics.get("repro_controlplane_detection_seconds")
    assert hist is not None and hist.count == 1


def test_crashed_primary_rejoins_as_a_synced_standby():
    platform = build_ha_platform(standbys=1)
    ha = platform.ha
    lease, _ = ha.lease("client-0", cores=2)
    platform.run(0.25)
    ha.crash_primary(outage_s=1.0)
    platform.run(3.0)
    platform.run()
    rejoined = ha.replica(0)
    assert rejoined.role is ReplicaRole.STANDBY
    assert rejoined.epoch == ha.epoch == 2
    # The rejoined standby follows the one commit log, which still
    # holds every registration and the lease granted before the crash.
    view = replay(ha.commit_log)
    assert set(view.registrations) == {"n0001", "n0002", "n0003"}
    assert lease.lease_id in view.leases


def test_k0_crash_is_total_loss_and_restarts_empty():
    platform = build_ha_platform(standbys=0)
    ha = platform.ha
    lease, _ = ha.lease("client-0", cores=2)
    platform.run(0.25)
    ha.crash_primary(outage_s=0.5)
    # Lease-expiry fencing: with nobody left to account for leases the
    # data plane is orphaned immediately.
    assert not lease.active
    assert ha.registered_nodes() == []
    metrics = platform.telemetry.metrics
    assert metrics.get("repro_controlplane_orphaned_leases_total").value == 1
    platform.run(2.0)
    platform.run()
    # The restarted primary leads a fresh epoch with empty state: the
    # control plane is back, the capacity is gone until re-registration.
    assert ha.primary_rank == 0
    assert ha.epoch == 2
    assert ha.elections[-1].cause == "restart"
    view = replay(ha.commit_log)  # every orphaning removal was logged
    assert view.registrations == {} and view.leases == {}
    with pytest.raises(NoCapacityError):
        ha.lease("client-0")


def test_takeover_revokes_leases_the_standby_never_saw():
    """Reconciliation: a grant that bypassed replication (modeling state
    the dead primary never shipped) is revoked at takeover, so the new
    primary's view and the data plane agree."""
    platform = build_ha_platform(standbys=1)
    ha = platform.ha
    replicated, _ = ha.lease("client-0")
    # The unfenced base grant: reaches the data plane, never the log.
    unreplicated, _ = ResourceManager.try_lease(ha, "client-1")
    platform.run(0.25)
    ha.crash_primary()
    platform.run(2.0)
    platform.run()
    assert replicated.active
    assert not unreplicated.active
    metrics = platform.telemetry.metrics
    assert metrics.get("repro_controlplane_reconciled_leases_total").value == 1


def test_release_during_outage_is_buffered_then_reconciled():
    platform = build_ha_platform(standbys=1)
    ha = platform.ha
    lease, _ = ha.lease("client-0", cores=3)
    platform.run(0.25)
    ha.crash_primary()
    ha.release_lease(lease)  # voluntary return while nobody listens
    assert not lease.active  # the client is done either way
    platform.run(2.0)
    platform.run()
    assert ha.commit_log[-1].op == "release"
    assert lease.lease_id not in replay(ha.commit_log).leases
    assert ha.total_free_cores() == 12  # the cores actually came back


def test_crash_with_no_primary_is_a_noop():
    platform = build_ha_platform(standbys=1)
    ha = platform.ha
    platform.run(0.25)
    assert ha.crash_primary() == "rm-0"
    assert ha.crash_primary() is None  # nobody left to kill
