"""Epoch fencing: a partitioned ex-primary can never split the brain."""

import pytest

from repro.controlplane import ReplicaRole
from repro.controlplane.replica import replay
from repro.rfaas import ManagerUnavailableError, StaleEpochError

from .conftest import build_ha_platform


def _partitioned_takeover(heal_after_s):
    """Partition the primary at t=0.25 and run past the takeover."""
    platform = build_ha_platform(standbys=1)
    ha = platform.ha
    platform.run(0.25)
    assert ha.partition_primary(heal_after_s=heal_after_s) == "rm-0"
    return platform, ha


def test_partition_triggers_takeover_and_fences_the_old_primary():
    platform, ha = _partitioned_takeover(heal_after_s=0.0)
    platform.run(1.0)
    assert ha.epoch == 2
    assert ha.elections[-1].cause == "partition"
    assert ha.primary_rank == 1
    assert ha.replica(0).role is ReplicaRole.FENCED
    platform.run()


def test_mutations_during_partition_raise_unavailable():
    platform, ha = _partitioned_takeover(heal_after_s=0.0)
    with pytest.raises(ManagerUnavailableError) as exc:
        ha.lease("client-0")
    assert exc.value.cause == "partition"
    platform.run()


def test_fenced_ex_primary_cannot_grant_and_changes_no_state():
    platform, ha = _partitioned_takeover(heal_after_s=0.0)
    platform.run(1.0)  # standby has taken over; rm-0 fenced
    log_len = len(ha.commit_log)
    free = ha.total_free_cores()
    with pytest.raises(StaleEpochError) as exc:
        ha._grant(ha.replica(0), "client-0", cores=1)
    assert exc.value.current_epoch == 2
    assert len(ha.commit_log) == log_len  # fenced before any state change
    assert ha.total_free_cores() == free
    metrics = platform.telemetry.metrics
    assert metrics.get("repro_controlplane_fenced_grants_total").value == 1
    # The *current* primary grants normally through the same path.
    lease, _ = ha._grant(ha.replica(1), "client-0", cores=1)
    assert lease.epoch == 2
    platform.run()


def test_only_capacity_denials_are_values():
    """``try_lease`` answers a denial with ``None`` but still raises
    through an unreachable primary, and a grant via a fenced replica or
    a crashed primary raises even when no node could fit it:
    availability and fencing are checked before capacity."""
    platform, ha = _partitioned_takeover(heal_after_s=0.0)
    huge = ha.total_registered_cores() + 1
    with pytest.raises(ManagerUnavailableError) as exc:
        ha.try_lease("client-0", cores=huge)
    assert exc.value.cause == "partition"
    platform.run(1.0)  # standby has taken over; rm-0 fenced
    log_len = len(ha.commit_log)
    with pytest.raises(StaleEpochError):
        ha._grant(ha.replica(0), "client-0", cores=huge)
    assert ha.fenced_grants == 1
    assert ha.try_lease("client-0", cores=huge) is None
    assert ha._grant(ha.replica(1), "client-0", cores=huge) is None
    assert len(ha.commit_log) == log_len
    assert ha.fenced_grants == 1
    ha.crash_primary()
    with pytest.raises(ManagerUnavailableError) as exc:
        ha.try_lease("client-0", cores=huge)
    assert exc.value.cause == "crash"
    platform.run()


def test_healed_ex_primary_steps_down_and_resyncs():
    platform, ha = _partitioned_takeover(heal_after_s=1.0)
    platform.run(0.9)
    assert ha.replica(0).role is ReplicaRole.FENCED
    lease, _ = ha.lease("client-0")  # granted by the epoch-2 primary
    platform.run(2.0)
    platform.run()
    stepped_down = ha.replica(0)
    assert stepped_down.role is ReplicaRole.STANDBY
    assert stepped_down.epoch == 2
    assert lease.lease_id in replay(ha.commit_log).leases  # one log for all
    assert ha.primary_rank == 1  # leadership does NOT bounce back
    metrics = platform.telemetry.metrics
    assert metrics.get("repro_controlplane_stepdowns_total").value == 1


def test_short_partition_heals_inside_the_detection_timeout():
    """A blip shorter than the detector's timeout is a false positive
    avoided: no election, no epoch bump, the primary just resumes."""
    platform, ha = _partitioned_takeover(heal_after_s=0.15)
    platform.run(2.0)
    platform.run()
    assert ha.epoch == 1
    assert len(ha.elections) == 1  # bootstrap only
    assert ha.primary_rank == 0
    assert ha.replica(0).role is ReplicaRole.PRIMARY
    # And the front door works throughout.
    lease, _ = ha.lease("client-0")
    assert lease.epoch == 1


def test_partition_of_partitioned_primary_is_a_noop():
    platform, ha = _partitioned_takeover(heal_after_s=0.0)
    assert ha.partition_primary() is None
    platform.run()
