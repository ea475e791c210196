"""The replicated resource manager: election, fencing, reconciliation.

:class:`ReplicatedResourceManager` is a
:class:`~repro.rfaas.manager.ResourceManager` whose pools, allocations
and credentials (the *data plane*) are governed by a group of 1 + k
:class:`~repro.controlplane.replica.ManagerReplica` members.  It adds
the three mechanisms that make a manager crash survivable:

**Election** is rank-based and seed-free: the live standby with the
lowest rank wins, always.  No randomness means identical failover
choices run to run — a hard requirement of the byte-identical sweep
protocol (``repro.sweep``) and cheap insurance against split votes.

**Failure detection** is a deadline detector driven by one sim-time
loop: the primary heartbeats every ``heartbeat_interval_s``; a standby
suspects the primary after ``suspect_after`` silent intervals.  The
product of the two is the availability knob — small timeouts detect a
crash in fractions of a second but declare a slow/partitioned primary
dead (false positive, forcing a needless epoch bump); large timeouts
never cry wolf but stretch the unavailability window every client
rides out with :class:`~repro.faults.recovery.RetryPolicy` backoff.
Takeover happens between ``suspect_after`` and ``suspect_after + 1``
intervals after the last heartbeat (detection is quantized to ticks).

**Epoch fencing** replaces quorum commit (with k=1, a majority of two
is two — the surviving replica could never commit after failover, which
defeats the point).  Every mutation is stamped with the group epoch and
shipped synchronously to the live, reachable standbys; every *issuer*
is checked against the current epoch first, so a partitioned ex-primary
whose term ended raises :class:`~repro.rfaas.errors.StaleEpochError`
before touching any state — no split brain, no double grant.

With **zero standbys** a primary crash is total control-plane loss:
outstanding leases can no longer be renewed or safely reused, so the
manager models lease-expiry fencing by orphaning the data plane
(every node removed immediately, terminating in-flight work) and the
restarted primary comes back *empty* — exactly the blast radius the
standbys exist to remove.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..rfaas.errors import ManagerUnavailableError, StaleEpochError
from ..rfaas.manager import ResourceManager
from ..telemetry import telemetry_of
from .replica import LogRecord, ManagerReplica, ReplicaRole

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.machine import Cluster
    from ..rfaas.lease import Lease
    from ..sim.engine import Environment

__all__ = ["HAConfig", "ElectionRecord", "ReplicatedResourceManager"]


@dataclass(frozen=True)
class HAConfig:
    """Shape of the replicated control plane."""

    #: Standby replicas behind the primary (k). 0 = a restartable but
    #: unreplicated manager: crashes lose all control-plane state.
    standbys: int = 1
    #: Primary heartbeat period (sim seconds).
    heartbeat_interval_s: float = 0.1
    #: Missed intervals before a standby suspects the primary.  The
    #: detection-latency / false-positive tradeoff knob: takeover fires
    #: only after ``suspect_after * heartbeat_interval_s`` of silence.
    suspect_after: int = 3

    def __post_init__(self):
        if self.standbys < 0:
            raise ValueError("standbys must be >= 0")
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        if self.suspect_after < 1:
            raise ValueError("suspect_after must be >= 1")

    @property
    def detection_timeout_s(self) -> float:
        """Silence that makes the detector declare the primary dead."""
        return self.heartbeat_interval_s * self.suspect_after


@dataclass(frozen=True)
class ElectionRecord:
    """One leadership change: who won which epoch, when, and why."""

    epoch: int
    rank: int
    at_s: float
    cause: str  # "bootstrap" | "crash" | "partition" | "restart"


class ReplicatedResourceManager(ResourceManager):
    """A :class:`ResourceManager` run by 1 primary + k standbys.

    Reads are inherited and served from the (always-consistent) data
    plane regardless of control-plane health.  The five mutations
    (``register_node``, ``remove_node``, ``lease``, ``revoke_lease``,
    ``release_lease``) require a live, reachable, current-epoch primary
    and otherwise raise :class:`ManagerUnavailableError` (no primary in
    reach — transient, retryable) or :class:`StaleEpochError` (fenced
    issuer — the split-brain guard); each one fences, applies the base
    mutation, then commits it to the replicated log.  Keyword arguments
    other than ``config`` go to :class:`ResourceManager`.
    """

    def __init__(self, env: "Environment", cluster: "Cluster", *,
                 config: Optional[HAConfig] = None, **kwargs):
        super().__init__(env, cluster, **kwargs)
        self.config = config if config is not None else HAConfig()
        self.replicas = [ManagerReplica(rank=i, epoch=1)
                         for i in range(self.config.standbys + 1)]
        self.replicas[0].role = ReplicaRole.PRIMARY
        self.epoch = 1
        self._primary_rank: Optional[int] = 0
        #: Ranks currently unreachable from the rest of the group.
        self._partitioned: set[int] = set()
        #: Full fenced mutation history (certification evidence).
        self.commit_log: list[LogRecord] = []
        self.elections: list[ElectionRecord] = [
            ElectionRecord(epoch=1, rank=0, at_s=env.now, cause="bootstrap")
        ]
        #: Releases accepted while no primary was reachable; applied by
        #: the next primary during takeover reconciliation.
        self._pending_releases: list["Lease"] = []
        self._lost_at: Optional[float] = None
        self._process = None
        #: Takeovers, fenced mutations and k=0 orphaned leases, counted
        #: with their ``repro_controlplane_*`` metrics.
        self.failovers = 0
        self.fenced_grants = 0
        self.orphaned_leases = 0

        metrics = telemetry_of(env).metrics
        self._m_heartbeats = metrics.counter(
            "repro_controlplane_heartbeats_total",
            help="heartbeat rounds delivered primary -> standbys",
        )
        self._m_failovers = metrics.counter(
            "repro_controlplane_failovers_total",
            help="standby takeovers (epoch bumps by election)",
        )
        self._m_epoch = metrics.gauge(
            "repro_controlplane_epoch_count", help="current control-plane epoch",
        )
        self._m_epoch.set(self.epoch)
        self._m_fenced = metrics.counter(
            "repro_controlplane_fenced_grants_total",
            help="mutations rejected because the issuer's epoch was stale",
        )
        self._m_unavailable = metrics.counter(
            "repro_controlplane_unavailable_total",
            help="front-door mutations rejected: no reachable primary",
        )
        self._m_reconciled = metrics.counter(
            "repro_controlplane_reconciled_leases_total",
            help="leases revoked or released by takeover reconciliation",
        )
        self._m_detection = metrics.histogram(
            "repro_controlplane_detection_seconds",
            help="primary loss -> takeover latency",
            buckets=(0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0),
        )
        self._m_crashes = metrics.counter(
            "repro_controlplane_crashes_total", help="primary crashes injected",
        )
        self._m_partitions = metrics.counter(
            "repro_controlplane_partitions_total",
            help="primary partitions injected",
        )
        self._m_stepdowns = metrics.counter(
            "repro_controlplane_stepdowns_total",
            help="fenced ex-primaries that rejoined as standbys after heal",
        )
        self._m_orphaned = metrics.counter(
            "repro_controlplane_orphaned_leases_total",
            help="active leases lost to total control-plane loss (k=0)",
        )

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        """Start the combined heartbeat + failure-detector loop (a daemon:
        it never keeps an open-ended ``env.run()`` alive)."""
        if self._process is None:
            self._process = self.env.process(self._run(),
                                             name="controlplane-detector")
            self._process.daemon = True

    # -- group introspection -----------------------------------------------------
    @property
    def primary(self) -> Optional[ManagerReplica]:
        if self._primary_rank is None:
            return None
        return self.replicas[self._primary_rank]

    @property
    def primary_rank(self) -> Optional[int]:
        return self._primary_rank

    @property
    def available(self) -> bool:
        """True when a front-door mutation would be accepted right now."""
        rank = self._primary_rank
        return rank is not None and rank not in self._partitioned

    def replica(self, rank: int) -> ManagerReplica:
        return self.replicas[rank]

    # -- heartbeats + detection --------------------------------------------------
    def _run(self):
        interval = self.config.heartbeat_interval_s
        while True:
            yield self.env.timeout(interval)
            self._tick()

    def _tick(self) -> None:
        now = self.env.now
        rank = self._primary_rank
        if rank is not None and rank not in self._partitioned:
            # Healthy primary: deliver one heartbeat round.
            for replica in self.replicas:
                if replica.role is ReplicaRole.STANDBY:
                    replica.last_heartbeat_s = now
            self._m_heartbeats.inc()
            return
        self._maybe_failover(now)

    def _maybe_failover(self, now: float) -> None:
        candidates = [r for r in self.replicas if r.role is ReplicaRole.STANDBY]
        if not candidates:
            return
        # A standby suspects the primary after `suspect_after` silent
        # intervals; the *stalest* view drives detection, the *lowest
        # rank* wins the election (seed-free determinism).
        oldest = min(r.last_heartbeat_s for r in candidates)
        if now - oldest <= self.config.detection_timeout_s + 1e-9:
            return
        old_rank = self._primary_rank
        if old_rank is not None:
            # A partitioned primary that missed its own funeral: expel
            # it from the group until it heals and resyncs.
            self.replicas[old_rank].role = ReplicaRole.FENCED
        winner = candidates[0]
        self.epoch += 1
        winner.epoch = self.epoch
        winner.role = ReplicaRole.PRIMARY
        self._primary_rank = winner.rank
        cause = "partition" if old_rank is not None else "crash"
        self.elections.append(
            ElectionRecord(epoch=self.epoch, rank=winner.rank, at_s=now, cause=cause)
        )
        detection_s = now - (self._lost_at if self._lost_at is not None else oldest)
        self._lost_at = None
        self.failovers += 1
        self._m_failovers.inc()
        self._m_epoch.set(self.epoch)
        self._m_detection.observe(detection_s)
        self._tracer.instant(
            "controlplane.failover", track="controlplane",
            epoch=self.epoch, rank=winner.rank, cause=cause,
            detection_s=detection_s,
        )
        self._reconcile(winner)

    def _reconcile(self, primary: ManagerReplica) -> None:
        """Align the data plane with the new primary's replicated view."""
        known = set(primary.lease_records)
        stale = [lease for lease, _node in self.active_leases()
                 if lease.lease_id not in known]
        for lease in stale:
            super().revoke_lease(lease, reason="failover-reconcile")
        pending, self._pending_releases = self._pending_releases, []
        released = 0
        for lease in pending:
            if lease.lease_id in primary.lease_records:
                super().release_lease(lease)
                self._commit("release", {"lease_id": lease.lease_id})
                released += 1
        if stale or pending:
            self._m_reconciled.inc(len(stale) + released)
            self._tracer.instant(
                "controlplane.reconcile", track="controlplane",
                epoch=self.epoch, revoked=len(stale), released=released,
            )

    # -- fault hooks (driven by repro.faults.Injector) ---------------------------
    def crash_primary(self, outage_s: float = 0.0) -> Optional[str]:
        """Kill the current primary; restart it after ``outage_s`` (0 = never).

        Returns the crashed replica's name, or None when there is no
        primary to kill (already down).
        """
        rank = self._primary_rank
        if rank is None:
            return None
        replica = self.replicas[rank]
        replica.role = ReplicaRole.DOWN
        # In-memory state dies with the process; a rejoin resyncs.
        replica.registrations = {}
        replica.lease_records = {}
        self._partitioned.discard(rank)
        self._primary_rank = None
        self._lost_at = self.env.now
        self._m_crashes.inc()
        self._tracer.instant(
            "controlplane.crash", track="controlplane",
            rank=rank, epoch=self.epoch, outage_s=outage_s,
        )
        if not any(r.role is ReplicaRole.STANDBY for r in self.replicas):
            self._orphan_data_plane()
        if outage_s > 0:
            self.env.process(self._restart(replica, outage_s),
                             name=f"controlplane-restart-{replica.name}")
        return replica.name

    def partition_primary(self, heal_after_s: float = 0.0) -> Optional[str]:
        """Cut the primary off from clients and standbys alike.

        The primary keeps running (and believes it leads) but its
        heartbeats stop arriving and front-door mutations cannot reach
        it; after the detection timeout a standby takes over and the
        ex-primary is fenced.  ``heal_after_s`` > 0 heals the partition
        later: a fenced ex-primary observes the higher epoch, steps
        down, and resyncs as a standby.  Returns the partitioned
        replica's name, or None if there is no reachable primary.
        """
        rank = self._primary_rank
        if rank is None or rank in self._partitioned:
            return None
        self._partitioned.add(rank)
        self._lost_at = self.env.now
        self._m_partitions.inc()
        self._tracer.instant(
            "controlplane.partition", track="controlplane",
            rank=rank, epoch=self.epoch, heal_after_s=heal_after_s,
        )
        if heal_after_s > 0:
            self.env.process(self._heal(rank, heal_after_s),
                             name=f"controlplane-heal-rm-{rank}")
        return self.replicas[rank].name

    def _restart(self, replica: ManagerReplica, outage_s: float):
        yield self.env.timeout(outage_s)
        if replica.role is not ReplicaRole.DOWN:
            return
        live = [r for r in self.replicas if r.live]
        if live:
            # Rejoin as a standby, state-transferred from the most
            # advanced live member (they are all synchronous copies).
            source = max(live, key=lambda r: r.applied_index)
            replica.resync_from(source)
            replica.role = ReplicaRole.STANDBY
            replica.last_heartbeat_s = self.env.now
            self._tracer.instant(
                "controlplane.resync", track="controlplane",
                rank=replica.rank, source=source.rank, epoch=self.epoch,
            )
            return
        # Total loss (k=0, or every standby died too): restart with
        # empty state under a fresh epoch.  The data plane was already
        # orphaned at crash time — this primary starts from scratch.
        self.epoch += 1
        replica.epoch = self.epoch
        replica.role = ReplicaRole.PRIMARY
        replica.registrations = {}
        replica.lease_records = {}
        replica.applied_index = len(self.commit_log)
        self._primary_rank = replica.rank
        self._lost_at = None
        self.elections.append(
            ElectionRecord(epoch=self.epoch, rank=replica.rank,
                           at_s=self.env.now, cause="restart")
        )
        self._m_epoch.set(self.epoch)
        self._tracer.instant(
            "controlplane.restart", track="controlplane",
            rank=replica.rank, epoch=self.epoch,
        )

    def _heal(self, rank: int, after_s: float):
        yield self.env.timeout(after_s)
        self._partitioned.discard(rank)
        replica = self.replicas[rank]
        if replica.role not in (ReplicaRole.PRIMARY, ReplicaRole.FENCED):
            return  # crashed meanwhile; the restart path owns it
        if self._primary_rank is not None and self._primary_rank != rank:
            # Somebody took over behind the partition: the ex-primary
            # sees the higher epoch, steps down, and resyncs.
            current = self.replicas[self._primary_rank]
            replica.resync_from(current)
            replica.role = ReplicaRole.STANDBY
            replica.last_heartbeat_s = self.env.now
            self._m_stepdowns.inc()
            self._tracer.instant(
                "controlplane.stepdown", track="controlplane",
                rank=rank, epoch=self.epoch,
            )
        else:
            # Healed inside the detection timeout: false alarm avoided,
            # the primary resumes heartbeating on the next tick.
            self._lost_at = None
            self._tracer.instant(
                "controlplane.heal", track="controlplane",
                rank=rank, epoch=self.epoch,
            )

    def _orphan_data_plane(self) -> None:
        """Lease-expiry fencing under total control-plane loss.

        With no replica left to renew or account for leases, the data
        plane cannot be safely reused: every registration is withdrawn
        immediately, terminating in-flight work — the k=0 blast radius
        the standbys exist to remove.  Each withdrawal is logged like
        any removal, so a replay of the log sees the pool empty before
        a restarted primary registers nodes again.
        """
        orphaned = len(self.active_leases())
        for node_name in self.registered_nodes():
            super().remove_node(node_name, immediate=True)
            self._commit("remove", {"node": node_name, "immediate": True})
        self.orphaned_leases += orphaned
        self._m_orphaned.inc(orphaned)
        self._tracer.instant(
            "controlplane.orphan", track="controlplane",
            leases=orphaned, epoch=self.epoch,
        )

    # -- fencing + replication ---------------------------------------------------
    def _require_primary(self, op: str) -> ManagerReplica:
        rank = self._primary_rank
        if rank is None:
            self._m_unavailable.inc()
            raise ManagerUnavailableError(
                f"{op}: no live primary (takeover pending)",
                epoch=self.epoch, cause="crash",
            )
        if rank in self._partitioned:
            self._m_unavailable.inc()
            raise ManagerUnavailableError(
                f"{op}: primary rm-{rank} unreachable (partitioned)",
                epoch=self.epoch, cause="partition",
            )
        return self.replicas[rank]

    def _fence(self, issuer: ManagerReplica) -> None:
        if issuer.role is not ReplicaRole.PRIMARY or issuer.epoch != self.epoch:
            self.fenced_grants += 1
            self._m_fenced.inc()
            self._tracer.instant(
                "controlplane.fenced", track="controlplane",
                rank=issuer.rank, stale_epoch=issuer.epoch,
                current_epoch=self.epoch,
            )
            raise StaleEpochError(
                f"replica {issuer.name} ({issuer.role.value}, epoch "
                f"{issuer.epoch}) is fenced out of epoch {self.epoch}",
                epoch=issuer.epoch, current_epoch=self.epoch,
            )

    def _commit(self, op: str, payload: dict) -> LogRecord:
        record = LogRecord(index=len(self.commit_log) + 1, epoch=self.epoch,
                           op=op, at_s=self.env.now, payload=payload)
        self.commit_log.append(record)
        for replica in self.replicas:
            if replica.live and replica.rank not in self._partitioned:
                replica.apply(record)
        return record

    # -- fenced mutations (the ResourceManager front door) -----------------------
    def register_node(self, node_name: str, *args, **kwargs):
        self._fence(self._require_primary("register_node"))
        registered = super().register_node(node_name, *args, **kwargs)
        self._commit("register", {
            "node": node_name,
            "registration": self.registration_of(node_name),
        })
        return registered

    def remove_node(self, node_name: str, immediate: bool = False) -> bool:
        self._fence(self._require_primary("remove_node"))
        removed = super().remove_node(node_name, immediate=immediate)
        if removed:
            self._commit("remove", {"node": node_name, "immediate": immediate})
        return removed

    def lease(self, client: str, cores: int = 1, memory_bytes: int = 0,
              gpus: int = 0, image=None, exclude: tuple = ()):
        return self._grant(
            self._require_primary("lease"), client, cores=cores,
            memory_bytes=memory_bytes, gpus=gpus, image=image, exclude=exclude,
        )

    def revoke_lease(self, lease, reason: str = "revoked") -> bool:
        self._fence(self._require_primary("revoke_lease"))
        revoked = super().revoke_lease(lease, reason=reason)
        if revoked:
            self._commit("revoke", {"lease_id": lease.lease_id, "reason": reason})
        return revoked

    def release_lease(self, lease) -> None:
        if not self.available:
            # The client is done with the lease but nobody is listening:
            # buffer the release for takeover reconciliation instead of
            # failing a voluntary return.
            lease.release()
            if lease not in self._pending_releases:
                self._pending_releases.append(lease)
            return
        self._fence(self.primary)
        super().release_lease(lease)
        self._commit("release", {"lease_id": lease.lease_id})

    def attempt_grant_via(self, rank: int, client: str, **kwargs):
        """Issue a grant *through a specific replica* (test/chaos hook).

        This is how certification proves fencing: a grant attempted via
        a DOWN replica raises :class:`ManagerUnavailableError`; via a
        fenced/stale replica raises :class:`StaleEpochError` before any
        state changes; via the current primary it is a normal grant.
        """
        replica = self.replicas[rank]
        if replica.role is ReplicaRole.DOWN:
            self._m_unavailable.inc()
            raise ManagerUnavailableError(
                f"replica {replica.name} is down", epoch=self.epoch, cause="crash",
            )
        return self._grant(replica, client, **kwargs)

    def _grant(self, issuer: ManagerReplica, client: str, **kwargs):
        """Fence ``issuer``, grant on the data plane, commit the grant."""
        self._fence(issuer)
        lease, executor = super().lease(client, **kwargs)
        lease.epoch = self.epoch
        self._commit("grant", {
            "lease_id": lease.lease_id, "client": client,
            "node": lease.node_name, "cores": lease.cores,
            "memory_bytes": lease.memory_bytes, "gpus": lease.gpus,
        })
        return lease, executor
