"""The Platform facade: one call builds the whole simulated rFaaS stack.

Every experiment used to wire the same six objects by hand — simulation
environment, cluster + topology, DRC credential manager, network fabric,
load registry, resource manager, function registry.
:meth:`Platform.build` does that wiring once, with one seed fanned out
into per-component rng streams, and returns a handle exposing the
pieces experiments actually touch::

    from repro.api import ClusterSpec, Platform

    platform = Platform.build(ClusterSpec(nodes=2), seed=0)
    platform.register_node("n0001", cores=2, memory_bytes=8 * 2**30)
    platform.functions.register("noop", image, runtime_s=0.0, demand=demand)
    client = platform.client("n0000")

    def bench():
        result = yield client.invoke("noop", payload_bytes=64)

    platform.process(bench())
    platform.run_until(10.0)

Fault injection and telemetry ride the same call: ``faults=`` takes a
:class:`~repro.faults.FaultPlan` (replayed by a seeded
:class:`~repro.faults.Injector` as the simulation runs), ``telemetry=``
pins a telemetry scope to the environment (``None`` keeps the default
resolution, so an active :class:`~repro.telemetry.TelemetryCollector` —
e.g. the CLI's ``--trace`` — still sees the run).

So do the capacity control plane and the cloud baseline: ``capacity=``
builds a :class:`~repro.capacity.CapacityPlane` (forecast → autoscale →
admit → burst) in front of the manager, and ``cloud=`` configures the
:class:`~repro.cloudfaas.CloudFaaSPlatform` reachable at
``platform.cloud`` (built lazily on first use otherwise).

Determinism: ``Platform.build(spec, seed=s)`` derives the fabric rng
from ``s``, the manager rng from ``s + 1``, the injector rng from
``s + 2``, and the cloud-gateway rng from ``s + 3`` — the first three
are the same fan-out the experiments used before the facade, so ported
experiments reproduce their historical numbers exactly.  Every shard's
manager draws from that one ``s + 1`` stream, so a one-shard plane
grants and serves exactly as the bare manager does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dc_replace
from typing import Any, Optional

import numpy as np
# numpy imports these on first use: random for a run's first rng, ma on
# the first np.median of its latencies.  Import them with the platform,
# so a run's first scenario is not charged for an import.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from .capacity import CapacityConfig, CapacityPlane
from .cloudfaas import CloudConfig, CloudFaaSPlatform
from .cluster import Cluster, DAINT_MC, DragonflyTopology, NodeSpec
from .controlplane import HAConfig, ReplicatedResourceManager
from .faults import FaultPlan, Injector
from .gpuservice import GpuService, GpuServiceConfig
from .memservice import (
    DurableMemoryClient,
    DurableMemoryConfig,
    ReplicatedMemoryService,
)
from .network import DrcManager, FabricProvider, NetworkFabric, UGNI
from .rfaas import (
    FunctionRegistry,
    NodeLoadRegistry,
    ResourceManager,
    RFaaSClient,
)
from .shard import ShardConfig, ShardedControlPlane
from .sim import Environment
from .telemetry import Telemetry, TelemetryCollector, install, telemetry_of

__all__ = ["ClusterSpec", "Platform"]


@dataclass(frozen=True)
class ClusterSpec:
    """Shape of the simulated cluster a :class:`Platform` is built on.

    ``jitter`` overrides the fabric provider's latency jitter fraction
    (``None`` keeps the provider default; ``0.0`` makes the network
    fully deterministic).
    """

    nodes: int = 2
    node_spec: NodeSpec = DAINT_MC
    prefix: str = "n"
    provider: FabricProvider = UGNI
    jitter: Optional[float] = None
    nodes_per_group: int = 2      # dragonfly topology group width

    def __post_init__(self):
        if self.nodes < 1:
            raise ValueError("need at least one node")
        if self.nodes_per_group < 1:
            raise ValueError("nodes_per_group must be >= 1")


class Platform:
    """A fully wired rFaaS platform instance; construct via :meth:`build`."""

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        drc: DrcManager,
        fabric: NetworkFabric,
        loads: NodeLoadRegistry,
        manager: ResourceManager,
        functions: FunctionRegistry,
        spec: ClusterSpec,
        seed: int,
        injector: Optional[Injector] = None,
        cloud_config: Optional[CloudConfig] = None,
        durable_memory: Optional[ReplicatedMemoryService] = None,
        gpuservice: Optional[GpuService] = None,
    ):
        self.env = env
        self.cluster = cluster
        self.drc = drc
        self.fabric = fabric
        self.loads = loads
        self.manager = manager
        self.functions = functions
        self.spec = spec
        self.seed = seed
        self.injector = injector
        self.durable_memory = durable_memory
        self.gpuservice = gpuservice
        self.capacity: Optional[CapacityPlane] = None
        self._cloud: Optional[CloudFaaSPlatform] = None
        self._cloud_config = cloud_config

    @classmethod
    def build(
        cls,
        cluster_spec: Optional[ClusterSpec] = None,
        seed: int = 0,
        telemetry: Any = None,
        faults: Optional[FaultPlan] = None,
        capacity: Any = None,
        cloud: Any = None,
        durable_memory: Any = None,
        gpu: Any = None,
        ha: Any = None,
        shards: Any = None,
    ) -> "Platform":
        """Construct environment, cluster, fabric, manager, and registry.

        ``telemetry`` may be ``None`` (default resolution: an active
        collector, else the no-op null telemetry), ``True`` (a fresh
        :class:`Telemetry` pinned to this environment), a
        :class:`TelemetryCollector` (this environment joins its scopes),
        or a :class:`Telemetry` instance (pinned as-is).

        ``faults`` is a :class:`FaultPlan`; a non-empty plan gets a
        seeded :class:`Injector` that is started immediately, so its
        faults fire as the simulation runs.  An empty or absent plan
        changes nothing about the run.

        ``cloud`` configures the FaaS baseline at ``platform.cloud``:
        ``None`` builds one lazily on first access with defaults,
        ``True`` builds it eagerly, a :class:`CloudConfig` builds it
        eagerly with that config.  ``capacity`` does the same for the
        capacity plane at ``platform.capacity``: ``None`` means no
        plane, ``True`` a default :class:`CapacityConfig`, or pass a
        :class:`CapacityConfig`.  The plane's autoscaler loop is started
        immediately.

        ``durable_memory`` builds the replicated memory service at
        ``platform.durable_memory``: ``True`` with defaults, or pass a
        :class:`~repro.memservice.DurableMemoryConfig`.  The service is
        started (chunks placed and allocated), subscribed to the
        manager's reclaim events, and handed to the fault injector so
        ``memservice_kill`` events find it.

        ``gpu`` builds the GPU control plane at ``platform.gpu``:
        ``True`` with defaults, or pass a
        :class:`~repro.gpuservice.GpuServiceConfig`.  The service is
        started and handed to the fault injector so
        ``gpu_device_loss`` events find it.

        ``ha`` replicates the resource manager: ``True`` with a default
        :class:`~repro.controlplane.HAConfig` (one standby), or pass an
        ``HAConfig``.  ``platform.manager`` is then built as a
        :class:`~repro.controlplane.ReplicatedResourceManager`, the
        :class:`~repro.rfaas.ResourceManager` subclass whose mutations
        are fenced and replicated, and ``platform.ha`` returns it.
        Every downstream consumer (clients, capacity plane, injector,
        durable memory) uses it like any manager, and
        ``manager_crash`` / ``manager_partition`` fault events find it.
        Its heartbeat/failure-detector loop is started immediately.

        ``shards`` takes a :class:`~repro.shard.ShardConfig`: that many
        managers, each built as the unsharded one would be (replicated
        when ``ha`` is set, all on the one ``seed + 1`` rng stream), are
        composed into a :class:`~repro.shard.ShardedControlPlane` at
        ``platform.manager``, which every consumer above uses like any
        manager.  Durable memory follows one manager's reclaims, so it
        cannot be combined with ``shards`` (:class:`ValueError`).

        Every background loop these options start (autoscalers, repair,
        heartbeat, shard rebalancer) waits on ``env.tick``, so an
        open-ended ``run()`` returns once the foreground work is done.
        """
        spec = cluster_spec if cluster_spec is not None else ClusterSpec()
        if ha is True:
            ha = HAConfig()
        elif ha is not None and not isinstance(ha, HAConfig):
            raise TypeError("ha must be None, True, or an HAConfig")
        if shards is not None and not isinstance(shards, ShardConfig):
            raise TypeError("shards must be None or a ShardConfig")
        if shards is not None and durable_memory is not None:
            raise ValueError("durable_memory cannot be combined with shards")
        env = Environment()
        if telemetry is True:
            Telemetry(env=env).install(env)
        elif isinstance(telemetry, TelemetryCollector):
            install(env, telemetry.scope_for(env))
        elif isinstance(telemetry, Telemetry):
            install(env, telemetry)
        elif telemetry is not None:
            raise TypeError(
                "telemetry must be None, True, a Telemetry, or a TelemetryCollector"
            )
        cluster = Cluster(
            topology=DragonflyTopology(nodes_per_group=spec.nodes_per_group)
        )
        cluster.add_nodes(spec.prefix, spec.nodes, spec.node_spec)
        drc = DrcManager()
        provider = spec.provider
        if spec.jitter is not None:
            provider = _dc_replace(
                provider, params=provider.params.with_jitter(spec.jitter)
            )
        fabric = NetworkFabric(
            env, cluster, provider, rng=np.random.default_rng(seed), drc=drc
        )
        loads = NodeLoadRegistry(cluster)
        manager_args = dict(loads=loads, drc=drc,
                            rng=np.random.default_rng(seed + 1))

        def build_manager() -> ResourceManager:
            if ha is None:
                return ResourceManager(env, cluster, **manager_args)
            replicated = ReplicatedResourceManager(env, cluster, config=ha,
                                                   **manager_args)
            replicated.start()
            return replicated

        if shards is None:
            manager = build_manager()
        else:
            managers = [build_manager() for _ in range(shards.shards)]
            manager = ShardedControlPlane(env, managers, shards)
        functions = FunctionRegistry()
        durable = None
        if durable_memory is not None:
            if durable_memory is True:
                durable_config = DurableMemoryConfig()
            elif isinstance(durable_memory, DurableMemoryConfig):
                durable_config = durable_memory
            else:
                raise TypeError(
                    "durable_memory must be None, True, or a DurableMemoryConfig"
                )
            durable = ReplicatedMemoryService(
                env, cluster, fabric, config=durable_config, loads=loads,
            )
            durable.attach_manager(manager)
            durable.start()
        gpuservice = None
        if gpu is not None:
            if gpu is True:
                gpu_config = GpuServiceConfig()
            elif isinstance(gpu, GpuServiceConfig):
                gpu_config = gpu
            else:
                raise TypeError("gpu must be None, True, or a GpuServiceConfig")
            gpuservice = GpuService(env, cluster, config=gpu_config)
            gpuservice.start()
        injector = None
        if faults is not None and not faults.empty:
            injector = Injector(env, faults, manager, fabric=fabric,
                                seed=seed + 2, memservice=durable,
                                gpuservice=gpuservice)
            injector.start()
        cloud_config: Optional[CloudConfig] = None
        build_cloud = False
        if isinstance(cloud, CloudConfig):
            cloud_config, build_cloud = cloud, True
        elif cloud is True:
            build_cloud = True
        elif cloud is not None:
            raise TypeError("cloud must be None, True, or a CloudConfig")
        platform = cls(
            env=env, cluster=cluster, drc=drc, fabric=fabric, loads=loads,
            manager=manager, functions=functions, spec=spec, seed=seed,
            injector=injector, cloud_config=cloud_config,
            durable_memory=durable, gpuservice=gpuservice,
        )
        if build_cloud:
            platform.cloud  # noqa: B018 - force eager construction
        if capacity is not None:
            if capacity is True:
                capacity = CapacityConfig()
            elif not isinstance(capacity, CapacityConfig):
                raise TypeError("capacity must be None, True, or a CapacityConfig")
            platform.capacity = CapacityPlane(
                env, manager, cluster, functions,
                cloud=platform.cloud if capacity.burst_enabled else None,
                config=capacity,
            )
            platform.capacity.start()
        return platform

    # -- conveniences -------------------------------------------------------
    @property
    def telemetry(self):
        """The telemetry handle of this platform's environment."""
        return telemetry_of(self.env)

    @property
    def cloud(self) -> CloudFaaSPlatform:
        """The cloud FaaS baseline (built lazily; gateway rng = seed + 3)."""
        if self._cloud is None:
            self._cloud = CloudFaaSPlatform(
                self.env, config=self._cloud_config,
                rng=np.random.default_rng(self.seed + 3),
            )
        return self._cloud

    @property
    def gpu(self) -> GpuService:
        """The GPU control plane (requires ``gpu=`` at build time)."""
        if self.gpuservice is None:
            raise RuntimeError(
                "platform was built without a GPU service; pass gpu=True "
                "(or a GpuServiceConfig) to build()"
            )
        return self.gpuservice

    @property
    def ha(self) -> ReplicatedResourceManager:
        """The replicated manager (requires ``ha=`` at build time)."""
        if isinstance(self.manager, ShardedControlPlane):
            raise RuntimeError(
                "a sharded platform has no single replicated manager; with "
                "ha= set, shard i's replicas are platform.manager.shards[i].manager"
            )
        if not isinstance(self.manager, ReplicatedResourceManager):
            raise RuntimeError(
                "platform was built without a replicated control plane; "
                "pass ha=True (or an HAConfig) to build()"
            )
        return self.manager

    def register_node(self, node_name: str, **kwargs):
        """Donate a node's spare capacity (see ``ResourceManager.register_node``)."""
        return self.manager.register_node(node_name, **kwargs)

    def client(self, node: str, **kwargs) -> RFaaSClient:
        """A client application invoking functions from ``node``."""
        return RFaaSClient(
            self.env, self.manager, self.fabric, self.functions,
            client_node=node, **kwargs,
        )

    def memory_client(self, node: str, user: str = "app") -> DurableMemoryClient:
        """A failover-aware client of the durable memory service."""
        if self.durable_memory is None:
            raise RuntimeError(
                "platform was built without durable_memory; pass "
                "durable_memory=True (or a DurableMemoryConfig) to build()"
            )
        return DurableMemoryClient(
            self.env, self.fabric, self.durable_memory, client_node=node,
            user=user,
        )

    def process(self, generator, name: Optional[str] = None):
        """Schedule a simulation process (delegates to the environment)."""
        return self.env.process(generator, name=name)

    def run_until(self, until: Optional[float] = None):
        """Advance the simulation (to ``until``, or until only
        background ticks remain)."""
        return self.env.run(until=until)

    def run(self):
        return self.env.run()
