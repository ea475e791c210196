"""SLURM-like batch system: jobs, partitions, scheduler, workload, sampling."""

from .job import Job, JobSpec, JobState
from .partition import Partition, gres_available_gpus
from .sampling import NodeStateTracker, UtilizationSampler
from .scheduler import BatchScheduler
from .workload import WorkloadConfig, WorkloadGenerator, drive_workload

__all__ = [
    "Job",
    "JobSpec",
    "JobState",
    "Partition",
    "gres_available_gpus",
    "NodeStateTracker",
    "UtilizationSampler",
    "BatchScheduler",
    "WorkloadConfig",
    "WorkloadGenerator",
    "drive_workload",
]
