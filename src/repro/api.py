"""The Platform facade: one call builds the whole simulated rFaaS stack.

:meth:`Platform.build` wires the environment, cluster + topology, DRC
credential manager, network fabric, load registry, resource manager and
function registry from one :class:`PlatformConfig`, and returns a handle
exposing the pieces experiments touch::

    from repro.api import Platform, PlatformConfig

    platform = Platform.build(PlatformConfig(nodes=2), seed=0)
    platform.register_node("n0001", cores=2, memory_bytes=8 * 2**30)
    platform.functions.register("noop", image, runtime_s=0.0, demand=demand)
    client = platform.client("n0000")

    def bench():
        result = yield client.invoke("noop", payload_bytes=64)

    platform.process(bench())
    platform.run(10.0)

Determinism: ``Platform.build(config, seed=s)`` fans ``s`` out into one
rng stream per component: the fabric draws from ``s``, the manager from
``s + 1`` (every shard's manager shares that one stream, so a one-shard
plane grants and serves exactly as the bare manager does), the fault
injector from ``s + 2`` and the cloud gateway from ``s + 3``.  So a
platform replays from ``(config, seed)`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass, is_dataclass, replace as _dc_replace
from typing import Optional, get_args, get_type_hints

import numpy as np
# numpy imports these on first use: random for a run's first rng, ma on
# the first np.median of its latencies.  Import them with the platform,
# so a run's first scenario is not charged for an import.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from .capacity import CapacityConfig, CapacityPlane
from .cloudfaas import CloudFaaSPlatform
from .cluster import Cluster, DAINT_MC, DragonflyTopology
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
from .telemetry import telemetry_of

__all__ = ["Platform", "PlatformConfig"]

#: Dragonfly topology group width of a built cluster.
NODES_PER_GROUP = 2


@dataclass(frozen=True)
class PlatformConfig:
    """What :meth:`Platform.build` builds; a subsystem left ``None`` is absent.

    Every background loop a subsystem starts (autoscaler, repair,
    heartbeat, shard rebalancer) waits on ``env.tick``, so an
    open-ended :meth:`Platform.run` returns once the foreground work is
    done.
    """

    #: Cluster size; nodes are ``n0000``, ``n0001``, ... of :data:`DAINT_MC`.
    nodes: int = 2
    #: The interconnect's transport.
    provider: FabricProvider = UGNI
    #: The provider's latency jitter fraction, if set (``0.0``: none).
    jitter: Optional[float] = None
    #: A capacity plane (forecast, autoscale, admit, burst), ``platform.capacity``.
    capacity: Optional[CapacityConfig] = None
    #: A replicated memory service at ``platform.durable_memory``.
    durable_memory: Optional[DurableMemoryConfig] = None
    #: A GPU control plane at ``platform.gpu``.
    gpu: Optional[GpuServiceConfig] = None
    #: Replicated resource managers; ``platform.ha`` is the unsharded one.
    ha: Optional[HAConfig] = None
    #: That many managers behind one sharded plane at ``platform.manager``.
    shards: Optional[ShardConfig] = None

    def __post_init__(self):
        if self.nodes < 1:
            raise ValueError("need at least one node")
        for name, kind in _SUBSYSTEMS.items():
            value = getattr(self, name)
            if value is not None and not isinstance(value, kind):
                raise TypeError(
                    f"PlatformConfig.{name} must be None or a {kind.__name__}"
                )
        if self.durable_memory is not None and self.shards is not None:
            # Durable memory follows one manager's reclaims.
            raise ValueError("durable_memory cannot be combined with shards")


#: Subsystem field -> the config class it holds (``Optional[kind]``).
_SUBSYSTEMS = {
    name: get_args(hint)[0]
    for name, hint in get_type_hints(PlatformConfig).items()
    if get_args(hint) and is_dataclass(get_args(hint)[0])
}


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
        config: PlatformConfig,
        seed: int,
        injector: Optional[Injector] = None,
        durable_memory: Optional[ReplicatedMemoryService] = None,
        gpu: Optional[GpuService] = None,
    ):
        self.env = env
        self.cluster = cluster
        self.drc = drc
        self.fabric = fabric
        self.loads = loads
        self.manager = manager
        self.functions = functions
        self.config = config
        self.seed = seed
        self.injector = injector
        self.durable_memory = durable_memory
        self._gpu = gpu
        self.capacity: Optional[CapacityPlane] = None
        self._cloud: Optional[CloudFaaSPlatform] = None

    @classmethod
    def build(
        cls,
        config: Optional[PlatformConfig] = None,
        seed: int = 0,
        faults: Optional[FaultPlan] = None,
    ) -> "Platform":
        """Build and start the platform ``config`` describes.

        The environment traces into the active
        :class:`~repro.telemetry.TelemetryCollector`, if one is open,
        and into the no-op null telemetry otherwise.  A non-empty
        ``faults`` plan gets a seeded :class:`Injector`, started at
        once; an empty or absent plan changes nothing.
        """
        config = config if config is not None else PlatformConfig()
        env = Environment()
        cluster = Cluster(
            topology=DragonflyTopology(nodes_per_group=NODES_PER_GROUP)
        )
        cluster.add_nodes("n", config.nodes, DAINT_MC)
        drc = DrcManager()
        provider = config.provider
        if config.jitter is not None:
            provider = _dc_replace(
                provider, params=provider.params.with_jitter(config.jitter)
            )
        fabric = NetworkFabric(
            env, cluster, provider, rng=np.random.default_rng(seed), drc=drc
        )
        loads = NodeLoadRegistry(cluster)
        manager_args = dict(loads=loads, drc=drc,
                            rng=np.random.default_rng(seed + 1))

        def build_manager() -> ResourceManager:
            if config.ha is None:
                return ResourceManager(env, cluster, **manager_args)
            replicated = ReplicatedResourceManager(env, cluster, config=config.ha,
                                                   **manager_args)
            replicated.start()
            return replicated

        if config.shards is None:
            manager = build_manager()
        else:
            managers = [build_manager() for _ in range(config.shards.shards)]
            manager = ShardedControlPlane(env, managers, config.shards)
        functions = FunctionRegistry()
        durable = None
        if config.durable_memory is not None:
            durable = ReplicatedMemoryService(
                env, cluster, fabric, config=config.durable_memory,
            )
            durable.attach_manager(manager)
            durable.start()
        gpu = None
        if config.gpu is not None:
            gpu = GpuService(env, cluster, config=config.gpu)
        injector = None
        if faults is not None and not faults.empty:
            injector = Injector(env, faults, manager, fabric=fabric,
                                seed=seed + 2, memservice=durable,
                                gpuservice=gpu)
            injector.start()
        platform = cls(
            env=env, cluster=cluster, drc=drc, fabric=fabric, loads=loads,
            manager=manager, functions=functions, config=config, seed=seed,
            injector=injector, durable_memory=durable, gpu=gpu,
        )
        if config.capacity is not None:
            platform.capacity = CapacityPlane(
                env, manager, cluster, functions,
                cloud=platform.cloud if config.capacity.burst_enabled else None,
                config=config.capacity,
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
                self.env, rng=np.random.default_rng(self.seed + 3),
            )
        return self._cloud

    @property
    def gpu(self) -> GpuService:
        """The GPU control plane (requires ``PlatformConfig.gpu``)."""
        if self._gpu is None:
            raise RuntimeError(
                "platform was built without a GPU service; build it from "
                "PlatformConfig(gpu=GpuServiceConfig())"
            )
        return self._gpu

    @property
    def ha(self) -> ReplicatedResourceManager:
        """The replicated manager (requires ``PlatformConfig.ha``)."""
        if isinstance(self.manager, ShardedControlPlane):
            raise RuntimeError(
                "a sharded platform has no single replicated manager; with "
                "ha set, shard i's replicas are platform.manager.shards[i].manager"
            )
        if not isinstance(self.manager, ReplicatedResourceManager):
            raise RuntimeError(
                "platform was built without a replicated control plane; "
                "build it from PlatformConfig(ha=HAConfig())"
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
                "platform was built without durable memory; build it from "
                "PlatformConfig(durable_memory=DurableMemoryConfig())"
            )
        return DurableMemoryClient(
            self.env, self.fabric, self.durable_memory, client_node=node,
            user=user,
        )

    def process(self, generator, name: Optional[str] = None):
        """Schedule a simulation process (delegates to the environment)."""
        return self.env.process(generator, name=name)

    def run(self, until: Optional[float] = None):
        """Advance the simulation (to ``until``, or until only
        background ticks remain); see ``Environment.run``."""
        return self.env.run(until=until)
