"""Cluster-state sampling, mimicking the paper's measurement methodology.

Fig. 1 was produced by "querying SLURM with a two-minute interval"; idle
period durations are therefore *estimates from discrete sampling*.  This
module provides both views:

* :class:`UtilizationSampler` — a simulation process polling aggregate
  state on a fixed interval (the paper's method);
* :class:`NodeStateTracker` — exact per-node busy/idle transitions from
  scheduler hooks, against which the sampled estimate can be validated.
"""

from __future__ import annotations

from typing import Optional

from ..sim.engine import Environment
from ..sim.trace import TimeSeries
from .job import Job
from .scheduler import BatchScheduler

__all__ = ["UtilizationSampler", "NodeStateTracker"]


class UtilizationSampler:
    """Polls scheduler aggregates every ``interval`` seconds."""

    def __init__(self, env: Environment, scheduler: BatchScheduler, interval: float = 120.0):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.env = env
        self.scheduler = scheduler
        self.interval = interval
        self.idle_nodes = TimeSeries("idle_nodes")
        self.allocated_nodes = TimeSeries("allocated_nodes")
        self.used_core_fraction = TimeSeries("used_core_fraction")
        self.used_memory_fraction = TimeSeries("used_memory_fraction")
        self.allocated_node_fraction = TimeSeries("allocated_node_fraction")
        self.queue_length = TimeSeries("queue_length")
        self.process = env.process(self._run(), name="utilization-sampler")
        self.process.daemon = True

    def _run(self):
        total_nodes = len(self.scheduler.cluster)
        while True:
            sched = self.scheduler
            self.idle_nodes.record(self.env.now, sched.idle_node_count())
            self.allocated_nodes.record(self.env.now, sched.allocated_node_count())
            self.used_core_fraction.record(self.env.now, sched.used_core_fraction())
            self.used_memory_fraction.record(self.env.now, sched.used_memory_fraction())
            self.allocated_node_fraction.record(
                self.env.now, sched.allocated_node_count() / total_nodes if total_nodes else 0.0
            )
            self.queue_length.record(self.env.now, len(sched.queue))
            yield self.env.timeout(self.interval)


class NodeStateTracker:
    """Exact busy(1)/idle(0) time series per node, from scheduler hooks."""

    def __init__(self, env: Environment, scheduler: BatchScheduler):
        self.env = env
        self.scheduler = scheduler
        self.series: dict[str, TimeSeries] = {
            node.name: TimeSeries(node.name) for node in scheduler.cluster
        }
        for ts in self.series.values():
            ts.record(env.now, 0.0)
        scheduler.on_job_start.append(self._job_started)
        scheduler.on_job_end.append(self._job_ended)

    def _job_started(self, job: Job) -> None:
        for name in job.node_names:
            self.series[name].record(self.env.now, 1.0)

    def _job_ended(self, job: Job) -> None:
        for name in job.node_names:
            self.series[name].record(self.env.now, 0.0)

    def idle_intervals(self, node_name: str) -> list[tuple[float, float]]:
        return self.series[node_name].intervals_where(lambda v: v == 0.0)

    def all_idle_durations(self, skip_leading: bool = True) -> list[float]:
        """Durations of every idle period across all nodes.

        ``skip_leading`` drops each node's initial cold-start idle span,
        which reflects simulation warm-up rather than scheduler churn.
        """
        durations: list[float] = []
        for name in self.series:
            intervals = self.idle_intervals(name)
            if skip_leading and intervals and intervals[0][0] == 0.0:
                intervals = intervals[1:]
            durations.extend(end - start for start, end in intervals if end > start)
        return durations
