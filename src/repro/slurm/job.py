"""Batch job model.

A job requests ``nodes`` whole nodes (HPC batch granularity — the paper's
premise is precisely that this coarseness wastes resources).  On each node
it *uses* ``cores_per_node`` cores and ``memory_per_node`` bytes; the
remainder is wasted unless the user opts into sharing (SLURM ``shared``
flag / designated partition, Sec. III-E), in which case serverless
functions may claim it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

__all__ = ["JobState", "JobSpec", "Job"]


class JobState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    CANCELLED = "cancelled"
    FAILED = "failed"          # a node under the job died


@dataclass(frozen=True)
class JobSpec:
    """Immutable job request, as submitted to the batch system."""

    user: str
    app: str
    nodes: int
    cores_per_node: int
    memory_per_node: int          # bytes actually used per node
    walltime: float               # requested limit (s)
    runtime: float                # actual runtime (s), <= walltime
    gpus_per_node: int = 0        # GRES gpu count
    shared: bool = False          # opt-in to co-location
    partition: str = "normal"

    def __post_init__(self):
        if self.nodes < 1:
            raise ValueError("job needs >= 1 node")
        if self.cores_per_node < 1:
            raise ValueError("job needs >= 1 core per node")
        if self.memory_per_node < 0 or self.gpus_per_node < 0:
            raise ValueError("negative resource request")
        if self.walltime <= 0:
            raise ValueError("walltime must be positive")
        if not 0 < self.runtime <= self.walltime:
            raise ValueError("runtime must be in (0, walltime]")

    @property
    def total_cores(self) -> int:
        return self.nodes * self.cores_per_node


class Job:
    """A job instance moving through the batch system.

    The scheduler passes ``job_id`` from ``env.next_id``, so ids are
    scoped to one simulation, independent of interpreter history.
    """

    def __init__(self, spec: JobSpec, submit_time: float = 0.0, *, job_id: int):
        self.job_id = job_id
        self.spec = spec
        self.submit_time = submit_time
        self.state = JobState.PENDING
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self.node_names: tuple[str, ...] = ()
        # Perturbation applied by co-located work (filled by interference model).
        self.slowdown: float = 1.0

    @property
    def expected_end(self) -> float:
        """Conservative end estimate from the walltime (used by backfill)."""
        if self.start_time is None:
            raise ValueError("job not started")
        return self.start_time + self.spec.walltime

    @property
    def wait_time(self) -> Optional[float]:
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @property
    def actual_runtime(self) -> float:
        """Runtime including any co-location slowdown."""
        return self.spec.runtime * self.slowdown

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Job {self.job_id} {self.spec.app} {self.state.value}"
            f" nodes={self.spec.nodes} cores/node={self.spec.cores_per_node}>"
        )
