"""The software disaggregation controller (the paper's core contribution).

Wires the batch system to the serverless platform (Fig. 2 / Fig. 6):

* **idle nodes** (Sec. III-A): when a node has no batch owner it is
  registered with the rFaaS resource manager — whole node, minutes of
  availability are enough;
* **partially allocated nodes** (Sec. III-B): when a consenting batch job
  starts, each of its nodes' leftover cores and memory are registered,
  and the job's own resource demand is published to the load registry so
  the interference model sees the full tenant mix;
* **reclamation** (Sec. IV-E): just before the batch scheduler hands
  nodes to a new job, any serverless registration on them is removed —
  immediately (abort invocations) or gracefully, per configuration.

The controller is deliberately decentralized-friendly: it only uses the
scheduler's public hooks and the manager's register/remove API, i.e. the
integration requires *no* changes to the batch system itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..interference.model import ResourceDemand
from ..rfaas.executor import ExecutorMode
from ..rfaas.manager import ResourceManager
from ..slurm.job import Job
from ..slurm.scheduler import BatchScheduler

__all__ = ["ControllerConfig", "DisaggregationController"]

GiB = 1024**3


@dataclass(frozen=True)
class ControllerConfig:
    """Knobs of the disaggregation loop."""

    # Keep this many cores per node unavailable to functions so batch
    # ranks always have a core to handle their own work (job striping
    # keeps >= 1 core free, Sec. III).
    reserve_cores: int = 0
    # Don't bother registering a node slice smaller than this.
    min_cores: int = 1
    min_memory_bytes: int = 1 * GiB
    # Fraction of free memory offered to functions (headroom for the
    # batch job's own growth).
    memory_headroom: float = 0.9
    # Reclaim style when batch needs nodes back.
    immediate_reclaim: bool = True
    executor_mode: str = ExecutorMode.HOT
    harvest_idle_nodes: bool = True
    harvest_shared_jobs: bool = True

    def __post_init__(self):
        if self.reserve_cores < 0 or self.min_cores < 1:
            raise ValueError("invalid core thresholds")
        if not 0 < self.memory_headroom <= 1:
            raise ValueError("memory_headroom in (0, 1]")


#: Maps a job to the per-node demand vector it exerts (or None = unknown).
DemandResolver = Callable[[Job], Optional[ResourceDemand]]


def _default_demand(job: Job) -> ResourceDemand:
    """Generic batch-job profile when no app model is known: moderate
    bandwidth per rank, mixed boundness."""
    ranks = job.spec.cores_per_node
    return ResourceDemand(
        cores=ranks,
        membw=ranks * 1.5e9,
        netbw=ranks * 0.05e9,
        llc_bytes=ranks * 2 * 1024 * 1024,
        frac_membw=0.25,
        frac_netbw=0.05,
        label=job.spec.app,
    )


class DisaggregationController:
    """Keeps the serverless pool in sync with batch-system state."""

    def __init__(
        self,
        scheduler: BatchScheduler,
        manager: ResourceManager,
        config: Optional[ControllerConfig] = None,
        demand_resolver: Optional[DemandResolver] = None,
    ):
        self.scheduler = scheduler
        self.manager = manager
        self.config = config or ControllerConfig()
        self.demand_resolver = demand_resolver or _default_demand
        # node -> why it is registered ("idle" or job_id).
        self._reason: dict[str, object] = {}
        # Statistics.
        self.idle_registrations = 0
        self.coloc_registrations = 0
        self.reclaims = 0

        scheduler.on_job_start.append(self._job_started)
        scheduler.on_job_end.append(self._job_ended)
        scheduler.reclaim_hook = self._reclaim
        if self.config.harvest_idle_nodes:
            self.harvest_idle()

    # -- idle-node harvesting ------------------------------------------------------
    def harvest_idle(self) -> int:
        """Register every currently idle node; returns how many."""
        if not self.config.harvest_idle_nodes:
            return 0
        count = 0
        for name in self.scheduler.free_node_names():
            if self.manager.is_registered(name):
                continue
            node = self.scheduler.cluster.node(name)
            cores = node.free_cores - self.config.reserve_cores
            memory = int(node.free_memory * self.config.memory_headroom)
            if cores < self.config.min_cores or memory < self.config.min_memory_bytes:
                continue
            self.manager.register_node(
                name, cores=cores, memory_bytes=memory,
                mode=self.config.executor_mode,
            )
            self._reason[name] = "idle"
            self.idle_registrations += 1
            count += 1
        return count

    # -- batch hooks -------------------------------------------------------------------
    def _reclaim(self, node_names: list[str]) -> None:
        """Batch is about to claim these nodes: pull them from the pool."""
        for name in node_names:
            if self.manager.is_registered(name):
                self.manager.remove_node(name, immediate=self.config.immediate_reclaim)
                self._reason.pop(name, None)
                self.reclaims += 1

    def _job_started(self, job: Job) -> None:
        # Publish the job's demand so functions see the interference.
        demand = self.demand_resolver(job)
        if demand is not None:
            for name in job.node_names:
                self.manager.loads.add(name, f"job-{job.job_id}", demand)
        # Harvest the leftovers of consenting jobs.
        if not self.config.harvest_shared_jobs:
            return
        if not self.scheduler.sharing_consent(job):
            return
        for name in job.node_names:
            if self.manager.is_registered(name):
                continue
            node = self.scheduler.cluster.node(name)
            cores = node.free_cores - self.config.reserve_cores
            memory = int(node.free_memory * self.config.memory_headroom)
            if cores < self.config.min_cores or memory < self.config.min_memory_bytes:
                continue
            self.manager.register_node(
                name, cores=cores, memory_bytes=memory,
                mode=self.config.executor_mode,
            )
            self._reason[name] = job.job_id
            self.coloc_registrations += 1

    def _job_ended(self, job: Job) -> None:
        demand = self.demand_resolver(job)
        if demand is not None:
            for name in job.node_names:
                try:
                    self.manager.loads.remove(name, f"job-{job.job_id}")
                except KeyError:
                    pass
        # Drop co-location registrations tied to this job; the nodes are
        # re-registered as idle right after (whole node now free).
        for name in job.node_names:
            if self._reason.get(name) == job.job_id:
                self.manager.remove_node(name, immediate=False)
                self._reason.pop(name, None)
        self.harvest_idle()
