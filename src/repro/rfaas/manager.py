"""The global rFaaS resource manager (Sec. IV-E, Fig. 6).

The manager is the integration point between the serverless platform and
the cluster:

* ``register_node`` — the single API call a batch-system integration
  makes when spare capacity appears ("B" in Fig. 6); resources are usable
  immediately, supporting capacity available only for minutes;
* ``remove_node`` — the batch manager retrieves resources ("12" in
  Fig. 6): graceful lets active invocations finish, immediate aborts them
  with *termination* replies;
* ``lease`` — clients obtain executor slices; computing, memory, and GPU
  resources are allocated and billed independently (software
  disaggregation's core property).

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
from ..containers.warmpool import ContainerState, WarmPool
from ..network.drc import Credential, DrcManager
from ..sim.engine import Environment
from ..sim.trace import EventLog
from ..telemetry import telemetry_of
from .errors import NoCapacityError
from .executor import Executor, ExecutorMode
from .lease import Lease, LeaseState
from .load import NodeLoadRegistry

__all__ = ["ResourceManager", "RegisteredNode", "NoCapacityError"]


class RegisteredNode:
    """Book-keeping for one node's registered spare capacity."""

    def __init__(self, node_name: str, cores: int, memory_bytes: int, gpus: int,
                 executor: Executor, warm_pool: WarmPool, credential: Credential):
        self.node_name = node_name
        self.cores_total = cores
        self.memory_total = memory_bytes
        self.gpus_total = gpus
        self.cores_free = cores
        self.memory_free = memory_bytes
        self.gpus_free = gpus
        self.executor = executor
        self.warm_pool = warm_pool
        self.credential = credential
        self.leases: dict[int, tuple[Lease, Allocation]] = {}

    def fits(self, cores: int, memory_bytes: int, gpus: int) -> bool:
        return (
            cores <= self.cores_free
            and memory_bytes <= self.memory_free
            and gpus <= self.gpus_free
            and not self.executor.draining
        )


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
        log: Optional[EventLog] = None,
    ):
        self.env = env
        self.cluster = cluster
        self.loads = loads if loads is not None else NodeLoadRegistry(cluster)
        self.drc = drc if drc is not None else DrcManager()
        self.runtime = runtime
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.log = log if log is not None else EventLog()
        self._nodes: dict[str, RegisteredNode] = {}
        self._lease_owner: dict[int, str] = {}   # lease_id -> node_name
        # Sum of cores_free over registered nodes, kept live: every
        # mutation of RegisteredNode.cores_free happens in this class.
        self._free_cores = 0
        # Reclaim observers: called as hook(node_name, immediate) when the
        # batch system retrieves a node.  Co-located services (the durable
        # memory service) subscribe so a graceful reclaim lets them migrate
        # state off before the memory disappears.
        self.on_remove_node: list = []
        # Telemetry: pool-level occupancy gauges and lease counters.
        telemetry = telemetry_of(env)
        self._tracer = telemetry.tracer
        metrics = telemetry.metrics
        self._m_leases = metrics.counter(
            "repro_manager_leases_total", help="leases granted",
        )
        self._m_denied = metrics.counter(
            "repro_manager_lease_denied_total",
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
        self._m_revoked = metrics.counter(
            "repro_manager_revoked_leases_total",
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
        gpus: int = 0,
        mode: str = ExecutorMode.HOT,
        max_invocation_s: float = 30.0,
    ) -> RegisteredNode:
        """Add spare capacity to the pool; usable immediately."""
        if node_name in self._nodes:
            raise ValueError(f"node {node_name!r} already registered")
        if cores < 1:
            raise ValueError("must register >= 1 core to run the executor")
        node = self.cluster.node(node_name)
        if cores > node.free_cores or memory_bytes > node.free_memory or gpus > len(node.free_gpu_ids):
            raise AllocationError(
                f"registering more than node {node_name} has free "
                f"({cores} cores / {memory_bytes} B / {gpus} GPUs)"
            )
        warm_pool = WarmPool(self.env, node, self.runtime)
        executor = Executor(
            self.env, node, warm_pool, self.loads, cores=cores, mode=mode,
            rng=self.rng, max_invocation_s=max_invocation_s,
        )
        credential = self.drc.acquire(owner=f"executor-{node_name}")
        registered = RegisteredNode(
            node_name, cores, memory_bytes, gpus, executor, warm_pool, credential
        )
        self._nodes[node_name] = registered
        self._free_cores += cores
        self.log.emit(self.env.now, "register_node", node=node_name, cores=cores,
                      memory=memory_bytes, gpus=gpus)
        self._record_pool()
        self._tracer.instant(
            "manager.register_node", track="manager",
            node=node_name, cores=cores, memory=memory_bytes, gpus=gpus,
        )
        return registered

    def migrate_warm_containers(self, src_node: str, dst_node: str,
                                transfer_bandwidth: float = 5e9):
        """Process: move the source pool's warm containers to another node.

        The paper's answer to memory reclamation without losing warm
        state (Sec. III-C): "function containers can be migrated to other
        nodes and swapped to the parallel filesystem."  Transfer cost is
        the containers' memory footprint over ``transfer_bandwidth``.
        Containers that do not fit on the destination fall back to the
        source pool's swap space.
        """
        src = self._nodes.get(src_node)
        dst = self._nodes.get(dst_node)
        if src is None or dst is None:
            raise KeyError("both nodes must be registered")
        if transfer_bandwidth <= 0:
            raise ValueError("transfer_bandwidth must be positive")

        def run():
            containers = src.warm_pool.export_warm()
            moved = 0
            total_bytes = 0
            for container in containers:
                try:
                    dst.warm_pool.import_container(container)
                except AllocationError:
                    # No room at the destination: swap to the PFS instead.
                    container.state = ContainerState.SWAPPED
                    src.warm_pool._swapped[container.container_id] = container
                    continue
                moved += 1
                total_bytes += container.image.runtime_memory_bytes
            if total_bytes:
                yield self.env.timeout(total_bytes / transfer_bandwidth)
            self.log.emit(self.env.now, "migrate", src=src_node, dst=dst_node,
                          containers=moved, bytes=total_bytes)
            return moved

        return self.env.process(run(), name=f"migrate-{src_node}->{dst_node}")

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
        self.log.emit(self.env.now, "remove_node", node=node_name, immediate=immediate)
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
            "gpus": registered.gpus_total,
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
        memory_bytes: int = 0,
        gpus: int = 0,
        image: Optional[Image] = None,
        exclude: tuple[str, ...] = (),
    ) -> tuple[Lease, Executor]:
        """Grant a lease; prefers nodes with warm containers for ``image``."""
        # More cores than the whole pool has free: no single node fits,
        # so skip the scan and deny exactly as an empty scan would.
        candidates = [] if cores > self._free_cores else [
            r for name, r in self._nodes.items()
            if name not in exclude and r.fits(cores, memory_bytes, gpus)
        ]
        if not candidates:
            self._m_denied.inc()
            raise NoCapacityError(
                f"no registered node fits {cores} cores / {memory_bytes} B / {gpus} GPUs"
            )
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
            memory_bytes=memory_bytes,
            gpus=gpus,
            kind="function",
        )
        lease = Lease(
            client=client, node_name=chosen.node_name,
            cores=cores, memory_bytes=memory_bytes, gpus=gpus,
            lease_id=self.env.next_id("rfaas-lease"),
        )
        chosen.cores_free -= cores
        self._free_cores -= cores
        chosen.memory_free -= memory_bytes
        chosen.gpus_free -= gpus
        chosen.leases[lease.lease_id] = (lease, alloc)
        self._lease_owner[lease.lease_id] = chosen.node_name
        self.drc.grant(chosen.credential.cred_id, chosen.credential.owner, client)
        self.log.emit(self.env.now, "lease", lease_id=lease.lease_id, client=client,
                      node=chosen.node_name, cores=cores)
        self._m_leases.inc()
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
        out = []
        for lease_id in sorted(self._lease_owner):
            node_name = self._lease_owner[lease_id]
            registered = self._nodes.get(node_name)
            if registered is None:
                continue
            entry = registered.leases.get(lease_id)
            if entry is not None and entry[0].active:
                out.append((entry[0], node_name))
        return out

    def revoke_lease(self, lease: Lease, reason: str = "revoked") -> bool:
        """Platform-side cancellation of a single lease (Sec. III-A).

        Unlike :meth:`remove_node` the executor stays registered:
        in-flight invocations finish, but the client library is notified
        to redirect further requests to a new lease.

        Idempotent: revoking a lease that is already cancelled/released
        *and* fully unlinked from the pool is a no-op returning
        ``False`` (no double-counted metrics, no duplicate log events).
        Returns ``True`` when this call revoked or unlinked something.
        """
        node_name = self._lease_owner.get(lease.lease_id)
        if not lease.active and node_name is None:
            return False
        lease.cancel()
        self._m_revoked.inc()
        self.log.emit(self.env.now, "revoke_lease", lease_id=lease.lease_id,
                      reason=reason)
        self._tracer.instant(
            "manager.revoke_lease", track="manager",
            lease_id=lease.lease_id, reason=reason,
        )
        if node_name is None:
            return True
        registered = self._nodes.get(node_name)
        if registered is not None:
            self._release(registered, lease)
        return True

    def release_lease(self, lease: Lease) -> None:
        """Client returns a lease voluntarily."""
        node_name = self._lease_owner.get(lease.lease_id)
        if node_name is None:
            return  # already gone (e.g. node removed)
        registered = self._nodes.get(node_name)
        lease.release()
        if registered is not None:
            self._release(registered, lease)

    def _release(self, registered: RegisteredNode, lease: Lease) -> None:
        entry = registered.leases.pop(lease.lease_id, None)
        if entry is None:
            return
        _, alloc = entry
        self.cluster.node(registered.node_name).release(alloc)
        registered.cores_free += lease.cores
        self._free_cores += lease.cores
        registered.memory_free += lease.memory_bytes
        registered.gpus_free += lease.gpus
        self._lease_owner.pop(lease.lease_id, None)
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
