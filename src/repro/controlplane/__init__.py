"""Highly-available control plane: a replicated resource manager.

The paper's architecture hangs everything off one global resource
manager — leases, registrations, credentials (Sec. IV-E).  That is a
single point of failure no platform serving real HPC tenants can
accept, so this package replicates it: one **primary** plus ``k``
**standbys**, with

* deterministic, seed-free **rank-based leader election** — the live
  standby with the lowest rank wins, no randomness anywhere;
* a sim-time **heartbeat failure detector** (deadline-style: suspect
  after ``suspect_after`` missed ``heartbeat_interval_s`` beats), whose
  timeout is the knob trading detection latency against false
  positives;
* **epoch-fenced replication** — every grant/revoke/register is a
  record of one commit log, the only replicated state (a replica is a
  role over it), and every mutation is fenced on the issuing replica's
  epoch so a partitioned ex-primary can never grant after a takeover
  (no split brain);
* **takeover reconciliation** — the new primary revokes data-plane
  leases absent from a replay of the log and applies releases
  buffered while the control plane was dark.

See ``docs/control_plane_ha.md`` for the failure matrix and the
certification invariants (:mod:`repro.faults.certify`).
"""

from .replica import LogRecord, ManagerReplica, ReplicaRole
from .ha import ElectionRecord, HAConfig, ReplicatedResourceManager

__all__ = [
    "ElectionRecord",
    "HAConfig",
    "LogRecord",
    "ManagerReplica",
    "ReplicaRole",
    "ReplicatedResourceManager",
]
