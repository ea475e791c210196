"""FCFS + EASY-backfill batch scheduler.

Models the SLURM behaviour the paper's measurements depend on:

* whole-node granularity — a node belongs to at most one batch job;
* FIFO queue with EASY backfilling [Lifka'95]: the queue head gets a
  reservation at the *shadow time* (earliest instant enough nodes free,
  assuming running jobs use their full walltime); later jobs may jump
  ahead only if they cannot delay that reservation;
* jobs record what they actually *use* on each node (cores/memory/GPUs),
  so the gap between allocated and used resources — the raw material of
  software disaggregation — is directly measurable.

Hooks (``on_job_start`` / ``on_job_end`` / ``reclaim_hook``) let the
disaggregation controller react to node state changes without the
scheduler knowing anything about serverless.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from ..cluster.machine import Cluster
from ..cluster.node import Allocation, Node
from ..sim.engine import Environment, Interrupt, Process
from ..sim.trace import EventLog
from ..telemetry import SpanKind, telemetry_of
from .job import Job, JobSpec, JobState
from .partition import Partition

__all__ = ["BatchScheduler"]


class BatchScheduler:
    """Event-driven batch scheduler over a simulated cluster."""

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        partitions: Optional[Iterable[Partition]] = None,
        log: Optional[EventLog] = None,
    ):
        self.env = env
        self.cluster = cluster
        self.partitions: dict[str, Partition] = {}
        if partitions is None:
            self.partitions["normal"] = Partition(
                name="normal", node_names=[n.name for n in cluster]
            )
        else:
            for part in partitions:
                if part.name in self.partitions:
                    raise ValueError(f"duplicate partition {part.name!r}")
                self.partitions[part.name] = part
        self.log = log if log is not None else EventLog()

        self.queue: list[Job] = []
        self.running: dict[int, Job] = {}
        self.completed: list[Job] = []
        self._node_owner: dict[str, Job] = {}
        self._job_allocs: dict[int, list[Allocation]] = {}
        self._job_procs: dict[int, Process] = {}

        # Integration hooks (Sec. IV-E): the disaggregation controller
        # subscribes to node availability changes.
        self.on_job_start: list[Callable[[Job], None]] = []
        self.on_job_end: list[Callable[[Job], None]] = []
        # Called just before batch claims nodes, so co-located functions
        # can be evicted. Receives the node names being claimed.
        self.reclaim_hook: Optional[Callable[[list[str]], None]] = None
        # Administrative drain observers: hook(node_name) fires when an
        # operator drains a node, giving co-located services (durable
        # memory) time to migrate state off before maintenance.
        self.on_drain: list[Callable[[str], None]] = []

        # Telemetry: queue-wait distribution, occupancy gauges, job spans.
        telemetry = telemetry_of(env)
        self._tracer = telemetry.tracer
        metrics = telemetry.metrics
        self._m_submitted = metrics.counter(
            "repro_scheduler_submitted_total", help="jobs submitted",
        )
        self._m_queue_wait = metrics.histogram(
            "repro_scheduler_queue_wait_seconds",
            help="submit-to-start wait of started jobs",
        )
        self._m_free_nodes = metrics.gauge(
            "repro_scheduler_free_nodes_count",
            help="nodes with no batch owner (Fig. 1a idle sense)",
        )
        self._m_queue_depth = metrics.gauge(
            "repro_scheduler_queue_depth_count",
            help="jobs waiting in the FIFO queue",
        )
        self._job_spans: dict[int, object] = {}
        self._record_occupancy()

    def _record_occupancy(self) -> None:
        self._m_free_nodes.set(self.idle_node_count())
        self._m_queue_depth.set(len(self.queue))

    # -- public API ----------------------------------------------------------
    def submit(self, spec: JobSpec, submit_time: Optional[float] = None) -> Job:
        """Queue a job; scheduling is attempted immediately."""
        partition = self.partitions.get(spec.partition)
        if partition is None:
            raise KeyError(f"unknown partition {spec.partition!r}")
        if not partition.admits(spec):
            raise ValueError(
                f"job (nodes={spec.nodes}, walltime={spec.walltime}) "
                f"not admissible in partition {spec.partition!r}"
            )
        job = Job(spec, submit_time=self.env.now if submit_time is None else submit_time,
                  job_id=self.env.next_id("slurm-job"))
        self.queue.append(job)
        self.log.emit(self.env.now, "submit", job_id=job.job_id, app=spec.app, nodes=spec.nodes)
        self._m_submitted.inc()
        self._tracer.instant(
            "slurm.submit", track="scheduler",
            job_id=job.job_id, app=spec.app, nodes=spec.nodes,
        )
        self._record_occupancy()
        self._schedule_pass()
        return job

    def cancel(self, job: Job) -> None:
        if job.state == JobState.PENDING:
            self.queue.remove(job)
            job.state = JobState.CANCELLED
            self.log.emit(self.env.now, "cancel", job_id=job.job_id)
            self._record_occupancy()
        elif job.state == JobState.RUNNING:
            self._job_procs[job.job_id].interrupt(cause="cancel")
        else:
            raise ValueError(f"cannot cancel job in state {job.state}")

    def free_node_names(self, partition: Optional[str] = None) -> list[str]:
        """Nodes with no batch owner (the Fig.-1a 'idle' sense)."""
        if partition is None:
            names: Iterable[str] = (n.name for n in self.cluster)
        else:
            names = self.partitions[partition].node_names
        return [n for n in names if n not in self._node_owner and not self.cluster.node(n).draining]

    def idle_node_count(self) -> int:
        return len(self.free_node_names())

    def allocated_node_count(self) -> int:
        return len(self._node_owner)

    def used_core_fraction(self) -> float:
        """Cores actually used by batch jobs / total cores."""
        total = self.cluster.total_cores()
        used = sum(
            a.cores
            for allocs in self._job_allocs.values()
            for a in allocs
        )
        return used / total if total else 0.0

    def used_memory_fraction(self) -> float:
        total = self.cluster.total_memory()
        used = sum(
            a.memory_bytes
            for allocs in self._job_allocs.values()
            for a in allocs
        )
        return used / total if total else 0.0

    def sharing_consent(self, job: Job) -> bool:
        partition = self.partitions[job.spec.partition]
        return partition.job_allows_sharing(job.spec)

    # -- scheduling core ---------------------------------------------------------
    def _schedule_pass(self) -> None:
        """FCFS start + EASY backfill, run to fixpoint."""
        started = True
        while started:
            started = False
            if not self.queue:
                return
            # 1. Start queue-head jobs while they fit.
            while self.queue:
                head = self.queue[0]
                nodes = self._select_nodes(head.spec)
                if nodes is None:
                    break
                self.queue.pop(0)
                self._start_job(head, nodes)
                started = True
            if not self.queue:
                return
            # 2. EASY backfill behind the (blocked) head.
            head = self.queue[0]
            shadow_time, extra_nodes = self._shadow(head)
            for job in list(self.queue[1:]):
                nodes = self._select_nodes(job.spec)
                if nodes is None:
                    continue
                fits_before_shadow = self.env.now + job.spec.walltime <= shadow_time
                if fits_before_shadow or job.spec.nodes <= extra_nodes:
                    if not fits_before_shadow:
                        extra_nodes -= job.spec.nodes
                    self.queue.remove(job)
                    self._start_job(job, nodes)
                    started = True

    def _eligible_nodes(self, spec: JobSpec) -> list[Node]:
        partition = self.partitions[spec.partition]
        out = []
        for name in partition.node_names:
            if name in self._node_owner:
                continue
            node = self.cluster.node(name)
            if node.draining:
                continue
            if node.total_cores < spec.cores_per_node:
                continue
            if node.total_memory < spec.memory_per_node:
                continue
            if node.total_gpus < spec.gpus_per_node:
                continue
            out.append(node)
        return out

    def _select_nodes(self, spec: JobSpec) -> Optional[list[Node]]:
        eligible = self._eligible_nodes(spec)
        if len(eligible) < spec.nodes:
            return None
        return eligible[: spec.nodes]

    def _shadow(self, head: Job) -> tuple[float, int]:
        """EASY shadow time and spare-node budget for the blocked head.

        Walks running jobs in walltime-end order, accumulating the nodes
        they will release, until the head fits.  Nodes free beyond the
        head's need at that instant may be consumed by backfill jobs that
        run past the shadow time.
        """
        free_now = len(self._eligible_nodes(head.spec))
        needed = head.spec.nodes
        if free_now >= needed:
            return self.env.now, free_now - needed
        ends = sorted(
            (job.expected_end, len(job.node_names)) for job in self.running.values()
        )
        available = free_now
        for end_time, released in ends:
            available += released
            if available >= needed:
                return end_time, available - needed
        # Head can never run with current running set (should not happen
        # if admission checked partition size); fall back to +inf.
        return float("inf"), 0

    def _start_job(self, job: Job, nodes: list[Node]) -> None:
        node_names = [n.name for n in nodes]
        if self.reclaim_hook is not None:
            self.reclaim_hook(node_names)
        allocs = []
        for node in nodes:
            allocs.append(
                node.allocate(
                    owner=f"job-{job.job_id}",
                    cores=job.spec.cores_per_node,
                    memory_bytes=job.spec.memory_per_node,
                    gpus=job.spec.gpus_per_node,
                    kind="batch",
                )
            )
            self._node_owner[node.name] = job
        job.node_names = tuple(node_names)
        job.state = JobState.RUNNING
        job.start_time = self.env.now
        self.running[job.job_id] = job
        self._job_allocs[job.job_id] = allocs
        self._job_procs[job.job_id] = self.env.process(
            self._run_job(job), name=f"job-{job.job_id}"
        )
        self.log.emit(
            self.env.now, "start",
            job_id=job.job_id, app=job.spec.app, nodes=job.spec.nodes,
            wait=job.wait_time,
        )
        self._m_queue_wait.observe(job.wait_time)
        self._record_occupancy()
        self._job_spans[job.job_id] = self._tracer.begin(
            SpanKind.JOB, track="scheduler/jobs",
            job_id=job.job_id, app=job.spec.app, nodes=job.spec.nodes,
            wait_s=job.wait_time,
        )
        for hook in self.on_job_start:
            hook(job)

    def _run_job(self, job: Job):
        try:
            yield self.env.timeout(job.actual_runtime)
            job.state = JobState.COMPLETED
        except Interrupt as intr:
            job.state = (
                JobState.FAILED if intr.cause == "node-failure" else JobState.CANCELLED
            )
        self._finish(job)

    def drain_node(self, node_name: str) -> None:
        """Administratively drain a node ahead of maintenance.

        The node accepts no new allocations (its running job, if any,
        keeps it until completion) and the ``on_drain`` hooks fire so
        co-located services can evacuate hosted state *before* the
        memory goes away — unlike :meth:`fail_node`, nothing on the node
        is lost.  Reversed by :meth:`restore_node`.
        """
        node = self.cluster.node(node_name)
        if node.draining:
            return
        node.draining = True
        self.log.emit(self.env.now, "drain", node=node_name)
        self._tracer.instant("slurm.drain", track="scheduler", node=node_name)
        for hook in self.on_drain:
            hook(node_name)
        self._record_occupancy()

    def fail_node(self, node_name: str) -> Optional[Job]:
        """A node dies: its batch job fails, the node leaves service.

        Returns the killed job, if any.  The node stays out of scheduling
        (draining) until :meth:`restore_node`.
        """
        node = self.cluster.node(node_name)
        victim = self._node_owner.get(node_name)
        node.draining = True
        if victim is not None:
            self._job_procs[victim.job_id].interrupt(cause="node-failure")
        self.log.emit(self.env.now, "node_failure", node=node_name,
                      job_id=victim.job_id if victim else None)
        return victim

    def restore_node(self, node_name: str) -> None:
        """Bring a failed node back into service."""
        self.cluster.node(node_name).draining = False
        self.log.emit(self.env.now, "node_restore", node=node_name)
        self._schedule_pass()

    def _finish(self, job: Job) -> None:
        job.end_time = self.env.now
        for alloc in self._job_allocs.pop(job.job_id):
            self.cluster.node(alloc.node_name).release(alloc)
        for name in job.node_names:
            del self._node_owner[name]
        del self.running[job.job_id]
        del self._job_procs[job.job_id]
        self.completed.append(job)
        self.log.emit(self.env.now, "end", job_id=job.job_id, app=job.spec.app, state=job.state.value)
        span = self._job_spans.pop(job.job_id, None)
        if span is not None:
            self._tracer.finish(span, state=job.state.value)
        self._record_occupancy()
        for hook in self.on_job_end:
            hook(job)
        self._schedule_pass()
