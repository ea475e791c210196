"""The LogP-based offloading model (Sec. IV-F, Eq. 1).

The guiding principle: *the application never waits for remote
invocations*.  With ``T_local`` the local runtime of one task, ``T_inv``
the runtime of one rFaaS invocation, and ``L`` the round-trip network
time, Eq. 1 states that offloading is profitable once the local backlog
exceeds

    N_local = ceil((T_inv + L) / T_local)

tasks: while the first remote invocation is in flight, the local workers
have at least that much of their own work to hide it behind.  The number
of tasks that can run remotely is capped by link bandwidth: the paper
sets the sustainable remote rate to ``B / Data_inv`` invocations per
second.  ``split`` balances a task batch so local and remote finish
together subject to that cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["OffloadModel", "OffloadPlan"]


@dataclass(frozen=True)
class OffloadPlan:
    n_local: int
    n_remote: int
    estimated_time_s: float

    @property
    def total(self) -> int:
        return self.n_local + self.n_remote


@dataclass(frozen=True)
class OffloadModel:
    """Calibrated parameters of one (application, platform) pair."""

    t_local: float          # seconds per task on one local worker
    t_inv: float            # seconds per task executed via rFaaS
    latency: float          # round-trip network time L (seconds)
    bandwidth: float        # link bandwidth B (bytes/s)
    data_per_task: int      # Data_inv: serialized payload bytes per task

    def __post_init__(self):
        if self.t_local <= 0 or self.t_inv <= 0:
            raise ValueError("task times must be positive")
        if self.latency < 0:
            raise ValueError("latency must be non-negative")
        if self.bandwidth <= 0 or self.data_per_task <= 0:
            raise ValueError("bandwidth and payload must be positive")

    # -- Eq. 1 ---------------------------------------------------------------
    @property
    def n_local_min(self) -> int:
        """Minimum local backlog that hides one remote invocation."""
        return max(1, math.ceil((self.t_inv + self.latency) / self.t_local))

    def should_offload(self, n_tasks: int) -> bool:
        """Eq. 1: offloading pays only beyond the N_local threshold."""
        if n_tasks < 0:
            raise ValueError("negative task count")
        return n_tasks > self.n_local_min

    # -- bandwidth cap -----------------------------------------------------------
    @property
    def remote_rate(self) -> float:
        """Sustainable remote invocations/s: min of link and executor rate."""
        link_rate = self.bandwidth / self.data_per_task
        executor_rate = 1.0 / self.t_inv
        return min(link_rate, executor_rate)

    # -- batch splitting ------------------------------------------------------------
    def split(self, n_tasks: int, local_workers: int = 1, remote_workers: int = 1) -> OffloadPlan:
        """Split ``n_tasks`` so local and remote streams finish together.

        Local throughput: ``local_workers / t_local``.  Remote throughput:
        ``remote_workers / t_inv``, capped by the link rate.  Below the
        Eq.-1 threshold everything stays local.
        """
        if n_tasks < 0:
            raise ValueError("negative task count")
        if local_workers < 1 or remote_workers < 1:
            raise ValueError("need >= 1 worker on each side")
        if n_tasks == 0:
            return OffloadPlan(0, 0, 0.0)
        if not self.should_offload(n_tasks):
            return OffloadPlan(n_tasks, 0, n_tasks * self.t_local / local_workers)

        local_rate = local_workers / self.t_local
        remote_rate = min(remote_workers / self.t_inv, self.bandwidth / self.data_per_task)
        # Balance: n_local / local_rate == latency + n_remote / remote_rate,
        # n_local + n_remote == n_tasks.
        n_local_f = (n_tasks / remote_rate + self.latency) / (
            1.0 / local_rate + 1.0 / remote_rate
        )
        n_local = min(n_tasks, max(self.n_local_min, math.ceil(n_local_f)))
        n_remote = n_tasks - n_local
        time_est = max(
            n_local / local_rate,
            self.latency + (n_remote / remote_rate if n_remote else 0.0),
        )
        return OffloadPlan(n_local, n_remote, time_est)

    def speedup(self, n_tasks: int, local_workers: int = 1, remote_workers: int = 1) -> float:
        """Estimated speedup of the split vs. purely local execution."""
        plan = self.split(n_tasks, local_workers, remote_workers)
        local_only = n_tasks * self.t_local / local_workers
        return local_only / plan.estimated_time_s if plan.estimated_time_s > 0 else 1.0
