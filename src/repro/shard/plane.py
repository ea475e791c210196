"""The sharded control plane: N manager shards behind one front door.

A replicated resource manager is still one serialization point for
every tenant.  :class:`ShardedControlPlane` removes that by
consistent-hashing tenants onto the
:class:`~repro.rfaas.manager.ResourceManager` instances it is given
(a platform built from ``PlatformConfig(shards=...)`` builds them,
replicated when ``ha`` is set), so lease churn scales horizontally with client count (the
Function Delivery Network premise, applied to the rFaaS lease model).

Mechanics:

* **Placement** — :class:`~repro.shard.ring.HashRing` maps a tenant to
  its home shard.  ``try_lease``/``lease`` grant there at once;
  ``request_grant``/``request_release`` queue the same grant and
  release on that shard's :class:`~repro.shard.batch.ShardBatcher`,
  which charges the batched serialization cost in sim time.
* **Nodes** — registrations spread across shards (least registered
  cores first); each shard only ever places leases on its own nodes.
* **Cross-shard migration on drain** — after the batch system retrieves
  a node, :meth:`rebalance` (periodic under ``rebalance_interval_s``, or
  called explicitly) moves *idle* nodes from capacity-rich shards to
  starved ones, so one shard's reclaim does not strand its tenants
  while neighbours sit on free cores.
* **Shard-targeted faults** — :meth:`crash_shard` kills one shard: a
  replicated shard fails over via its replica group; a bare shard
  models lease-expiry fencing (every active lease cancelled) and
  rejects ops with :class:`ManagerUnavailableError` until it restarts.
* **Conservation** — the no-silent-drops invariant, global across
  shards: every submitted op is applied or failed
  (``ops_submitted == ops_applied + ops_failed + queued``), and every
  lease ever granted ends exactly one of ACTIVE / RELEASED / CANCELLED
  (:meth:`conservation` / :meth:`conservation_ok`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..controlplane import ReplicatedResourceManager
from ..rfaas.errors import ManagerUnavailableError, StaleEpochError
from ..rfaas.lease import Lease, LeaseState
from ..rfaas.manager import ResourceManager, no_capacity_error
from ..sim.engine import Environment, Event
from ..telemetry import telemetry_of
from .batch import BatchOp, ShardBatcher
from .ring import HashRing

__all__ = ["ShardConfig", "ShardedControlPlane"]


@dataclass(frozen=True)
class ShardConfig:
    """Shape and cost model of the sharded control plane."""

    #: Manager shards (N >= 1). 1 reproduces the unsharded plane.
    shards: int = 4
    #: Max ops one batch flush applies.
    max_batch: int = 32
    #: Fixed sim-time cost per batch flush (amortized by batching).
    batch_overhead_s: float = 5e-4
    #: Per-op sim-time cost — the serialization floor that saturates a
    #: single shard and motivates horizontal scale.
    per_op_s: float = 2e-4
    #: Period of the automatic rebalance loop; 0 disables it (rebalance
    #: then runs only on explicit calls).
    rebalance_interval_s: float = 0.0

    def __post_init__(self):
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.batch_overhead_s < 0 or self.per_op_s < 0:
            raise ValueError("batch costs must be non-negative")
        if self.rebalance_interval_s < 0:
            raise ValueError("rebalance_interval_s must be >= 0")


class Shard:
    """One manager shard: its manager, batcher, and liveness state."""

    def __init__(self, index: int, manager: ResourceManager):
        self.index = index
        #: ResourceManager, or ReplicatedResourceManager when replicated.
        self.manager = manager
        self.batcher: Optional[ShardBatcher] = None
        #: Bare-shard outage flag (HA shards track liveness themselves).
        self.down = False

    @property
    def replicated(self) -> bool:
        return isinstance(self.manager, ReplicatedResourceManager)

    @property
    def available(self) -> bool:
        """Would a mutation be accepted right now?"""
        return self.manager.available if self.replicated else not self.down

    def up(self) -> ResourceManager:
        """The shard's manager; raises while a bare shard is down."""
        if self.down:
            raise ManagerUnavailableError(
                f"shard-{self.index} is down", cause="crash",
            )
        return self.manager

    def is_idle(self, node_name: str) -> bool:
        """Does ``node_name`` hold no active lease (safe to migrate)?"""
        info = self.manager.node_info(node_name)
        return not any(entry[0].active for entry in info.leases.values())

    def idle_nodes(self) -> list[str]:
        return [n for n in self.manager.registered_nodes() if self.is_idle(n)]


class ShardedControlPlane:
    """N manager shards (``managers``, in index order), one front door."""

    def __init__(
        self,
        env: Environment,
        managers: Sequence[ResourceManager],
        config: ShardConfig,
    ):
        self.env = env
        self.config = config
        count = len(managers)
        self.ring = HashRing(range(count))
        #: lease_id -> (lease, shard index) for every lease this plane
        #: ever granted (the conservation ledger).
        self._leases: dict[int, tuple[Lease, int]] = {}
        #: Ops failed with NoCapacityError, or on a down or fenced shard.
        self.rejected = 0
        self.unavailable = 0
        self.migrations = 0
        self.crashes = 0

        telemetry = telemetry_of(env)
        self._tracer = telemetry.tracer
        metrics = telemetry.metrics
        for i in range(count):
            metrics.counter("repro_shard_grants_total",
                            lambda i=i: sum(1 for _, s in self._leases.values()
                                            if s == i),
                            labels={"shard": str(i)},
                            help="leases granted, per shard")
        for i in range(count):
            metrics.counter("repro_shard_batches_total",
                            lambda i=i: self.shards[i].batcher.batches,
                            labels={"shard": str(i)},
                            help="batch flushes, per shard")
        self._g_depth = [
            metrics.gauge("repro_shard_queue_depth_count",
                          labels={"shard": str(i)},
                          help="ops queued at the shard batcher")
            for i in range(count)
        ]
        self._h_batch_ops = metrics.histogram(
            "repro_shard_batch_ops_count",
            help="ops applied per batch flush",
            buckets=(1, 2, 4, 8, 16, 32, 64),
        )
        self._h_grant_latency = metrics.histogram(
            "repro_shard_grant_latency_seconds",
            help="submit -> grant-applied latency through the batcher",
            buckets=(0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0),
        )
        metrics.counter(
            "repro_shard_rejected_total", lambda: self.rejected,
            help="ops failed with NoCapacityError",
        )
        metrics.counter(
            "repro_shard_unavailable_total", lambda: self.unavailable,
            help="ops failed because the owning shard was down or fenced",
        )
        metrics.counter(
            "repro_shard_migrations_total", lambda: self.migrations,
            help="idle nodes migrated between shards",
        )
        metrics.counter(
            "repro_shard_crashes_total", lambda: self.crashes,
            help="shard crashes injected",
        )

        self.shards = [Shard(index, manager)
                       for index, manager in enumerate(managers)]
        for shard in self.shards:
            shard.batcher = ShardBatcher(
                env, shard.index, lambda op, s=shard: self._apply(s, op),
                config, self._flushed,
            )
        if config.rebalance_interval_s > 0:
            env.process(self._rebalance_loop(), name="shard-rebalancer")

    # -- placement ---------------------------------------------------------------
    def shard_of(self, tenant: str) -> int:
        """Home shard of ``tenant`` (consistent-hash placement)."""
        return self.ring.shard_for(tenant)

    # -- node pool ---------------------------------------------------------------
    def register_node(self, node_name: str, **kwargs):
        """Add spare capacity to the available shard with the fewest
        registered cores; with every shard down it raises
        :class:`ManagerUnavailableError`."""
        live = [s for s in self.shards if s.available]
        if not live:
            raise ManagerUnavailableError(
                f"register_node: every shard is down ({node_name})",
                cause="crash",
            )
        shard = min(
            live, key=lambda s: (s.manager.total_registered_cores(), s.index),
        )
        return shard.manager.register_node(node_name, **kwargs)

    def remove_node(self, node_name: str, immediate: bool = False) -> bool:
        shard = self._shard_holding(node_name)
        if shard is None:
            return False
        return shard.manager.remove_node(node_name, immediate=immediate)

    # -- the manager surface, routed by node or by lease ------------------------
    def _shard_holding(self, node_name: str) -> Optional[Shard]:
        """The shard whose manager has ``node_name`` registered."""
        for shard in self.shards:
            if shard.manager.is_registered(node_name):
                return shard
        return None

    def _manager_of(self, node_name: str) -> ResourceManager:
        shard = self._shard_holding(node_name)
        if shard is None:
            raise KeyError(node_name)
        return shard.manager

    def registered_nodes(self) -> list[str]:
        return sorted(name for shard in self.shards
                      for name in shard.manager.registered_nodes())

    def is_registered(self, node_name: str) -> bool:
        return self._shard_holding(node_name) is not None

    def registration_of(self, node_name: str) -> dict:
        return self._manager_of(node_name).registration_of(node_name)

    def node_info(self, node_name: str):
        return self._manager_of(node_name).node_info(node_name)

    def credential_for(self, node_name: str):
        return self._manager_of(node_name).credential_for(node_name)

    def active_leases(self) -> list[tuple[Lease, str]]:
        """All active ``(lease, node)`` pairs, globally ordered by lease
        id (ids come from one env-wide stream, so the order is total)."""
        out = []
        for lease_id in sorted(self._leases):
            lease = self._leases[lease_id][0]
            if lease.active:
                out.append((lease, lease.node_name))
        return out

    def revoke_lease(self, lease: Lease, reason: str = "revoked") -> bool:
        """Direct (unbatched) revocation — the fault injector's path."""
        entry = self._leases.get(lease.lease_id)
        if entry is None:
            return False
        return self.shards[entry[1]].manager.revoke_lease(lease, reason=reason)

    def release_lease(self, lease: Lease) -> None:
        """Return a lease to its shard; raises while that bare shard is
        down (its crash already revoked every lease it held)."""
        entry = self._leases.get(lease.lease_id)
        if entry is not None:
            self.shards[entry[1]].up().release_lease(lease)

    def total_registered_cores(self) -> int:
        return sum(s.manager.total_registered_cores() for s in self.shards)

    def total_free_cores(self) -> int:
        return sum(s.manager.total_free_cores() for s in self.shards)

    # -- the lease API, routed by client to its home shard -----------------------
    def try_lease(self, client: str, cores: int = 1, image=None,
                  exclude: tuple[str, ...] = ()):
        """Grant on ``client``'s home shard now, or return ``None`` when
        none of its nodes fits (as :meth:`ResourceManager.try_lease`)."""
        return self._grant(self.shards[self.shard_of(client)], client, cores,
                           image, exclude)

    #: :meth:`try_lease`, raising :class:`NoCapacityError` on a denial.
    lease = ResourceManager.lease

    def _grant(self, shard: Shard, client: str, cores: int, image=None,
               exclude: tuple[str, ...] = ()):
        """The one grant body: ``shard``'s ``try_lease``, entered in the
        conservation ledger.  A down bare shard raises."""
        granted = shard.up().try_lease(
            client, cores=cores, image=image, exclude=exclude,
        )
        if granted is not None:
            lease = granted[0]
            self._leases[lease.lease_id] = (lease, shard.index)
        return granted

    # -- batched front door ------------------------------------------------------
    def request_grant(self, tenant: str, cores: int = 1) -> Event:
        """Queue a grant on the tenant's home shard; yields ``(lease,
        executor)`` or fails with the underlying platform error."""
        shard = self.shards[self.shard_of(tenant)]
        event = shard.batcher.submit("grant", (tenant, cores))
        self._g_depth[shard.index].set(shard.batcher.depth())
        return event

    def request_release(self, lease: Lease) -> Event:
        """Queue :meth:`release_lease` on the lease's shard."""
        shard = self.shards[self._leases[lease.lease_id][1]]
        event = shard.batcher.submit("release", lease)
        self._g_depth[shard.index].set(shard.batcher.depth())
        return event

    def _apply(self, shard: Shard, op: BatchOp):
        """Apply one batched op against its shard.

        A capacity denial is returned as a :class:`NoCapacityError`
        instance, never raised (the batcher fails the op with it); an
        unavailable or fenced shard still raises.
        """
        try:
            if op.kind == "release":
                self.release_lease(op.payload)
                return True
            granted = self._grant(shard, *op.payload)
        except (ManagerUnavailableError, StaleEpochError):
            self.unavailable += 1
            raise
        if granted is None:
            self.rejected += 1
            _tenant, cores = op.payload
            return no_capacity_error(cores)
        self._h_grant_latency.observe(self.env.now - op.submitted_s)
        return granted

    def _flushed(self, index: int, batch_size: int) -> None:
        self._h_batch_ops.observe(batch_size)
        self._g_depth[index].set(self.shards[index].batcher.depth())
        self._tracer.instant(
            "shard.batch", track="shard", shard=index, ops=batch_size,
        )

    # -- shard-targeted faults ---------------------------------------------------
    def crash_shard(self, index: int, outage_s: float = 0.0) -> Optional[str]:
        """Kill shard ``index``; restart it after ``outage_s`` (0 = never).

        Replicated shards delegate to their replica group (standby
        takeover, epoch fencing).  Bare shards model lease-expiry
        fencing: every active lease is cancelled, and ops fail with
        :class:`ManagerUnavailableError` until the shard restarts.
        """
        shard = self.shards[index]
        if shard.replicated:
            name = shard.manager.crash_primary(outage_s=outage_s)
            if name is None:
                return None
            self.crashes += 1
            self._tracer.instant(
                "shard.crash", track="shard", shard=index, ha=True,
                outage_s=outage_s,
            )
            return f"shard-{index}/{name}"
        if shard.down:
            return None
        shard.down = True
        self.crashes += 1
        victims = shard.manager.active_leases()
        for lease, _node in victims:
            shard.manager.revoke_lease(lease, reason="shard-crash")
        self._tracer.instant(
            "shard.crash", track="shard", shard=index, ha=False,
            outage_s=outage_s, leases_fenced=len(victims),
        )
        if outage_s > 0:
            self.env.timer(outage_s, lambda _: self._restart_shard(shard))
        return f"shard-{index}"

    def _restart_shard(self, shard: Shard) -> None:
        if not shard.down:
            return
        shard.down = False
        self._tracer.instant("shard.recover", track="shard", shard=shard.index)

    # -- cross-shard migration ---------------------------------------------------
    def migrate_node(self, node_name: str, to_shard: int) -> bool:
        """Move one *idle* node's registration to another shard.

        Only nodes without active leases move (moving a leased node
        would cancel tenant work — conservation forbids silent drops).
        The warm pool does not follow: this is a control-plane handoff,
        and the destination shard rebuilds warm state on first use.
        """
        source = self._shard_holding(node_name)
        if source is None or source.index == to_shard:
            return False
        destination = self.shards[to_shard]
        if not source.available or not destination.available:
            return False
        if not source.is_idle(node_name):
            return False
        spec = source.manager.registration_of(node_name)
        source.manager.remove_node(node_name, immediate=False)
        destination.manager.register_node(**spec)
        self.migrations += 1
        self._tracer.instant(
            "shard.migrate", track="shard", node=node_name,
            source=source.index, destination=to_shard,
        )
        return True

    def rebalance(self) -> int:
        """Move idle nodes from surplus shards to starved ones.

        A shard is *starved* when it is up but has zero free cores (or
        no nodes at all); a *donor* is an available shard that would
        keep free capacity after giving up one idle node.  Deterministic
        by construction: deepest-queue starved shard first, richest
        donor first, lowest index on ties.
        """
        moves = 0
        for _ in range(len(self.registered_nodes()) + 1):
            starved = [
                s for s in self.shards
                if s.available and s.manager.total_free_cores() == 0
            ]
            if not starved:
                break
            starved.sort(key=lambda s: (-s.batcher.depth(), s.index))
            moved = False
            for target in starved:
                donors = []
                for donor in self.shards:
                    if donor.index == target.index or not donor.available:
                        continue
                    idle = donor.idle_nodes()
                    if not idle:
                        continue
                    node = idle[0]
                    node_cores = donor.manager.node_info(node).cores_total
                    if donor.manager.total_free_cores() > node_cores:
                        donors.append((donor.manager.total_free_cores(),
                                       -donor.index, donor, node))
                if not donors:
                    continue
                donors.sort(reverse=True)
                _, _, donor, node = donors[0]
                if self.migrate_node(node, target.index):
                    moves += 1
                    moved = True
                    break
            if not moved:
                break
        return moves

    def _rebalance_loop(self):
        interval = self.config.rebalance_interval_s
        while True:
            yield self.env.tick(interval)
            self.rebalance()

    # -- conservation ------------------------------------------------------------
    def conservation(self) -> dict:
        """The global ledger: ops and lease states across every shard."""
        submitted = sum(s.batcher.ops_submitted for s in self.shards)
        applied = sum(s.batcher.ops_applied for s in self.shards)
        failed = sum(s.batcher.ops_failed for s in self.shards)
        queued = sum(s.batcher.depth() for s in self.shards)
        states = {LeaseState.ACTIVE: 0, LeaseState.RELEASED: 0,
                  LeaseState.CANCELLED: 0}
        for lease, _ in self._leases.values():
            states[lease.state] += 1
        return {
            "ops_submitted": submitted,
            "ops_applied": applied,
            "ops_failed": failed,
            "ops_queued": queued,
            "granted": len(self._leases),
            "active": states[LeaseState.ACTIVE],
            "released": states[LeaseState.RELEASED],
            "revoked": states[LeaseState.CANCELLED],
            "migrations": self.migrations,
        }

    def conservation_ok(self, drained: bool = True) -> bool:
        """No silent drops, globally.

        Always: every submitted op is applied, failed, or still queued,
        and every granted lease is in exactly one terminal-or-active
        state.  With ``drained=True`` (end of run): nothing queued and
        nothing still active — every grant was returned or revoked.
        """
        ledger = self.conservation()
        if ledger["ops_submitted"] != (
            ledger["ops_applied"] + ledger["ops_failed"] + ledger["ops_queued"]
        ):
            return False
        if ledger["granted"] != (
            ledger["active"] + ledger["released"] + ledger["revoked"]
        ):
            return False
        if drained and (ledger["ops_queued"] or ledger["active"]):
            return False
        return True
