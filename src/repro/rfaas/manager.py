"""The global rFaaS resource manager (Sec. IV-E, Fig. 6).

The manager is the integration point between the serverless platform and
the cluster:

* ``register_node`` — the single API call a batch-system integration
  makes when spare capacity appears ("B" in Fig. 6); resources are usable
  immediately, supporting capacity available only for minutes;
* ``remove_node`` — the batch manager retrieves resources ("12" in
  Fig. 6): graceful lets active invocations finish, immediate aborts them
  with *termination* replies;
* ``lease`` — clients obtain executor cores.  Computing is leased here;
  GPUs are shared through :mod:`repro.gpuservice` and remote memory is
  served by :mod:`repro.memservice`, each allocated and billed
  independently (software disaggregation's core property).

Placement prefers nodes that hold warm containers for the client's image,
implementing the warm-aware scheduling of Sec. IV-B.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from ..cluster.machine import Cluster
from ..cluster.node import Allocation, AllocationError
from ..containers.image import Image
from ..containers.runtime import SARUS, ContainerRuntime
from ..containers.warmpool import WarmPool
from ..network.drc import Credential, DrcManager
from ..sim.engine import Environment
from ..telemetry import telemetry_of
from .errors import NoCapacityError
from .executor import Executor, ExecutorMode
from .lease import Lease, LeaseState
from .load import NodeLoadRegistry

__all__ = ["ResourceManager", "RegisteredNode", "NoCapacityError"]


def no_capacity_error(cores: int) -> NoCapacityError:
    """The one denial a lease request for ``cores`` fails with."""
    return NoCapacityError(f"no registered node fits {cores} cores")


class RegisteredNode:
    """Book-keeping for one node's registered spare capacity."""

    def __init__(self, node_name: str, cores: int, memory_bytes: int,
                 executor: Executor, warm_pool: WarmPool, credential: Credential):
        self.node_name = node_name
        self.cores_total = cores
        self.memory_total = memory_bytes
        self.cores_free = cores
        self.executor = executor
        self.warm_pool = warm_pool
        self.credential = credential
        self.leases: dict[int, tuple[Lease, Allocation]] = {}

    def fits(self, cores: int) -> bool:
        return cores <= self.cores_free and not self.executor.draining


class ResourceManager:
    """Global serverless resource manager."""

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        loads: Optional[NodeLoadRegistry] = None,
        drc: Optional[DrcManager] = None,
        runtime: ContainerRuntime = SARUS,
        rng: Optional[np.random.Generator] = None,
    ):
        self.env = env
        self.cluster = cluster
        self.loads = loads if loads is not None else NodeLoadRegistry(cluster)
        self.drc = drc if drc is not None else DrcManager()
        self.runtime = runtime
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._nodes: dict[str, RegisteredNode] = {}
        # Sum of cores_free over registered nodes, kept live: every
        # mutation of RegisteredNode.cores_free happens in this class.
        self._free_cores = 0
        # Reclaim observers: called as hook(node_name, immediate) when the
        # batch system retrieves a node.  Co-located services (the durable
        # memory service) subscribe so a graceful reclaim lets them migrate
        # state off before the memory disappears.
        self.on_remove_node: list = []
        #: Leases granted, requests denied and leases revoked.
        self.granted = 0
        self.denied = 0
        self.revoked = 0
        # Telemetry: pool-level occupancy gauges and lease counters.
        telemetry = telemetry_of(env)
        self._tracer = telemetry.tracer
        metrics = telemetry.metrics
        metrics.counter(
            "repro_manager_leases_total", lambda: self.granted,
            help="leases granted",
        )
        metrics.counter(
            "repro_manager_lease_denied_total", lambda: self.denied,
            help="lease requests denied for lack of capacity",
        )
        self._m_nodes = metrics.gauge(
            "repro_manager_registered_nodes_count",
            help="nodes currently registered as spare capacity",
        )
        self._m_free_cores = metrics.gauge(
            "repro_manager_free_cores_count",
            help="registered executor cores not held by a lease",
        )
        metrics.counter(
            "repro_manager_revoked_leases_total", lambda: self.revoked,
            help="leases cancelled by the platform (reclaim or fault injection)",
        )

    def _record_pool(self) -> None:
        self._m_nodes.set(len(self._nodes))
        self._m_free_cores.set(self.total_free_cores())

    # -- REST-ish integration API ------------------------------------------------
    def register_node(
        self,
        node_name: str,
        cores: int,
        memory_bytes: int,
        mode: str = ExecutorMode.HOT,
        max_invocation_s: float = 30.0,
    ) -> RegisteredNode:
        """Add spare capacity to the pool; usable immediately."""
        if node_name in self._nodes:
            raise ValueError(f"node {node_name!r} already registered")
        if cores < 1:
            raise ValueError("must register >= 1 core to run the executor")
        node = self.cluster.node(node_name)
        if cores > node.free_cores or memory_bytes > node.free_memory:
            raise AllocationError(
                f"registering more than node {node_name} has free "
                f"({cores} cores / {memory_bytes} B)"
            )
        warm_pool = WarmPool(self.env, node, self.runtime)
        executor = Executor(
            self.env, node, warm_pool, self.loads, cores=cores, mode=mode,
            rng=self.rng, max_invocation_s=max_invocation_s,
        )
        credential = self.drc.acquire(owner=f"executor-{node_name}")
        registered = RegisteredNode(
            node_name, cores, memory_bytes, executor, warm_pool, credential
        )
        self._nodes[node_name] = registered
        self._free_cores += cores
        self._record_pool()
        self._tracer.instant(
            "manager.register_node", track="manager",
            node=node_name, cores=cores, memory=memory_bytes,
        )
        return registered

    def remove_node(self, node_name: str, immediate: bool = False) -> bool:
        """Batch manager retrieves the node's resources (Sec. IV-E).

        Idempotent: removing a node that is not (or no longer)
        registered is a no-op returning ``False`` — fault injection and
        failover reconciliation race against each other for the same
        victims, and the second remover must not blow up.  Returns
        ``True`` when this call actually removed the node.
        """
        registered = self._nodes.get(node_name)
        if registered is None:
            return False
        registered.executor.drain(immediate=immediate)
        for lease, _ in list(registered.leases.values()):
            lease.cancel()
            self._release(registered, lease)
        registered.warm_pool.drain()
        self._free_cores -= registered.cores_free
        del self._nodes[node_name]
        self._record_pool()
        self._tracer.instant(
            "manager.remove_node", track="manager",
            node=node_name, immediate=immediate,
        )
        # Tell co-located services: an immediate removal means the node
        # (and its memory) is gone *now*; a graceful one gives them this
        # instant to start evacuating hosted state.
        for hook in self.on_remove_node:
            hook(node_name, immediate)
        return True

    def registered_nodes(self) -> list[str]:
        return sorted(self._nodes)

    def registration_of(self, node_name: str) -> dict:
        """The ``register_node`` keyword arguments that would recreate
        ``node_name``'s registration — used by crash/recovery injection
        to re-register a node with identical capacity after it heals."""
        registered = self._nodes[node_name]
        return {
            "node_name": node_name,
            "cores": registered.cores_total,
            "memory_bytes": registered.memory_total,
            "mode": registered.executor.mode,
            "max_invocation_s": registered.executor.max_invocation_s,
        }

    def is_registered(self, node_name: str) -> bool:
        return node_name in self._nodes

    def node_info(self, node_name: str) -> RegisteredNode:
        return self._nodes[node_name]

    # -- leasing ---------------------------------------------------------------------
    def lease(
        self,
        client: str,
        cores: int = 1,
        image: Optional[Image] = None,
        exclude: tuple[str, ...] = (),
    ) -> tuple[Lease, Executor]:
        """Grant a lease, or raise :class:`NoCapacityError` on a denial."""
        granted = self.try_lease(client, cores=cores, image=image, exclude=exclude)
        if granted is None:
            raise no_capacity_error(cores)
        return granted

    def try_lease(
        self,
        client: str,
        cores: int = 1,
        image: Optional[Image] = None,
        exclude: tuple[str, ...] = (),
    ) -> Optional[tuple[Lease, Executor]]:
        """Grant a lease, or return ``None`` when no node fits.

        Prefers nodes with warm containers for ``image``.  A denial is
        an ordinary answer on the storm path, so it is a value here;
        only :meth:`lease` turns it into an exception.
        """
        # More cores than the whole pool has free: no single node fits,
        # so skip the scan and deny exactly as an empty scan would.
        candidates = [] if cores > self._free_cores else [
            r for name, r in self._nodes.items()
            if name not in exclude and r.fits(cores)
        ]
        if not candidates:
            self.denied += 1
            return None
        if image is not None:
            warm = [
                r for r in candidates
                if image.name in r.executor._attached
                or any(c.image.name == image.name for c in r.warm_pool._warm.values())
            ]
            if warm:
                candidates = warm
        chosen = candidates[0]
        node = self.cluster.node(chosen.node_name)
        alloc = node.allocate(
            owner=f"lease-{client}",
            cores=cores,
            kind="function",
        )
        lease = Lease(
            client=client, node_name=chosen.node_name, cores=cores,
            lease_id=self.env.next_id("rfaas-lease"),
        )
        chosen.cores_free -= cores
        self._free_cores -= cores
        chosen.leases[lease.lease_id] = (lease, alloc)
        self.drc.grant(chosen.credential.cred_id, chosen.credential.owner, client)
        self.granted += 1
        self._record_pool()
        self._tracer.instant(
            "manager.lease", track="manager",
            lease_id=lease.lease_id, client=client, node=chosen.node_name,
            cores=cores,
        )
        return lease, chosen.executor

    def active_leases(self) -> list[tuple[Lease, str]]:
        """All active ``(lease, node_name)`` pairs, ordered by lease id.

        The deterministic ordering is what lets a seeded revocation
        storm (:mod:`repro.faults`) pick identical victims run to run.
        """
        out = [
            (lease, name)
            for name, registered in self._nodes.items()
            for lease, _alloc in registered.leases.values() if lease.active
        ]
        out.sort(key=lambda pair: pair[0].lease_id)
        return out

    def revoke_lease(self, lease: Lease, reason: str = "revoked") -> bool:
        """Platform-side cancellation of a single lease (Sec. III-A).

        Unlike :meth:`remove_node` the executor stays registered:
        in-flight invocations finish, but the client library is notified
        to redirect further requests to a new lease.

        Idempotent: revoking a lease that is already cancelled/released
        *and* fully unlinked from the pool is a no-op returning
        ``False`` (no double-counted metrics, no duplicate trace instants).
        Returns ``True`` when this call revoked or unlinked something.
        """
        registered = self._linked(lease)
        if not lease.active and registered is None:
            return False
        lease.cancel()
        self.revoked += 1
        self._tracer.instant(
            "manager.revoke_lease", track="manager",
            lease_id=lease.lease_id, reason=reason,
        )
        if registered is not None:
            self._release(registered, lease)
        return True

    def release_lease(self, lease: Lease) -> None:
        """Client returns a lease voluntarily."""
        registered = self._linked(lease)
        if registered is None:
            return  # already gone (e.g. node removed)
        lease.release()
        self._release(registered, lease)

    def _linked(self, lease: Lease) -> Optional[RegisteredNode]:
        """The registered node still holding ``lease``, if any."""
        registered = self._nodes.get(lease.node_name)
        if registered is None or lease.lease_id not in registered.leases:
            return None
        return registered

    def _release(self, registered: RegisteredNode, lease: Lease) -> None:
        entry = registered.leases.pop(lease.lease_id, None)
        if entry is None:
            return
        _, alloc = entry
        self.cluster.node(registered.node_name).release(alloc)
        registered.cores_free += lease.cores
        self._free_cores += lease.cores
        self._record_pool()
        self._tracer.instant(
            "manager.release_lease", track="manager",
            lease_id=lease.lease_id, node=registered.node_name,
        )

    def credential_for(self, node_name: str) -> Credential:
        return self._nodes[node_name].credential

    # -- aggregate stats -----------------------------------------------------------
    def total_registered_cores(self) -> int:
        return sum(r.cores_total for r in self._nodes.values())

    def total_free_cores(self) -> int:
        return self._free_cores
