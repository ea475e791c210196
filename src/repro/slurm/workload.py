"""Synthetic HPC workload generator calibrated to Piz-Daint-like statistics.

The paper motivates disaggregation with a measurement study of Piz Daint
(Fig. 1, Sec. II-A).  We cannot replay the proprietary trace, so this
generator synthesizes a statistically similar job stream:

* a small application catalog with Zipf-like popularity — systems serve
  ~100–650 distinct apps and ~25 cover two-thirds of core-hours
  [Jones'17, Antypas'13];
* heavy-tailed node counts (most jobs small, few hero jobs) [Patel'20];
* lognormal runtimes, walltime over-estimated by users;
* per-node memory use centered near 25% of node memory [Zivanovic'17];
* core counts that often mismatch the 36-core node (e.g. LULESH needs a
  cubic rank count), leaving idle cores;
* Poisson arrivals with the rate chosen from a target utilization.

With a high target utilization the emergent idle-node process reproduces
the paper's headline shape: idle periods are frequent but short (70–80 %
under 10 minutes, median 5–6.5 min).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from ..sim.engine import Environment
from .job import JobSpec
from .scheduler import BatchScheduler

__all__ = ["WorkloadConfig", "WorkloadGenerator", "drive_workload"]

GiB = 1024**3

#: Application catalog: (name, popularity weight, core-count choices).
#: Core choices reflect real constraints — LULESH cubic ranks, MILC even
#: lattice decompositions, full-node codes.
APPS: tuple[tuple[str, float, tuple[int, ...]], ...] = (
    ("lulesh", 4.0, (27, 8)),            # cubic rank counts
    ("milc", 4.0, (32, 24, 16)),
    ("vasp", 6.0, (36, 24)),
    ("cp2k", 5.0, (36, 18)),
    ("gromacs", 5.0, (36, 32)),
    ("namd", 3.0, (36, 24)),
    ("cosmo", 3.0, (36,)),
    ("quantum-espresso", 3.0, (36, 16)),
    ("lammps", 2.5, (36, 32)),
    ("openfoam", 2.0, (32, 16)),
    ("wrf", 2.0, (36, 24)),
    ("specfem", 1.5, (24,)),
    ("nekbone", 1.0, (32, 16)),
    ("paraview-batch", 0.8, (12,)),
    ("python-ml", 0.7, (12, 8)),
)


# The generator's fixed shape, calibrated for Fig. 1.
#: Cores and memory of one node.
NODE_CORES = 36
NODE_MEMORY = 128 * GiB
#: Node-count distribution: log2-geometric, P(nodes=2^k) ~ p*(1-p)^k.
SIZE_GEOM_P = 0.45
#: Runtime: lognormal (seconds), clipped below at MIN_RUNTIME_S.
RUNTIME_SIGMA = 1.1
MIN_RUNTIME_S = 30.0
#: Walltime request factor: runtime * U(1.1, overestimate), capped.
WALLTIME_OVERESTIMATE = 3.0
MAX_WALLTIME_S = 24 * 3600.0
#: Memory: Beta(a, b) fraction of node memory, mean a/(a+b) ~ 0.25.
MEMORY_BETA_A = 1.3
MEMORY_BETA_B = 3.9
#: Fraction of jobs asking for a GPU per node.
GPU_FRACTION = 0.0
#: Probe draws behind the mean node count and runtime the arrival rate
#: is calibrated on.
MOMENT_SAMPLES = 4096


@dataclass(frozen=True)
class WorkloadConfig:
    """Tunable knobs of the generator, defaults calibrated for Fig. 1."""

    target_utilization: float = 0.93
    max_nodes: int = 256
    # Runtime: lognormal median and upper clip (seconds).
    runtime_median_s: float = 1500.0
    max_runtime_s: float = 12 * 3600.0
    # Fraction of jobs opting into sharing (disaggregation is opt-in).
    shared_fraction: float = 0.5

    def __post_init__(self):
        if not 0 < self.target_utilization <= 1:
            raise ValueError("target_utilization in (0, 1]")


class WorkloadGenerator:
    """Draws an endless stream of (inter-arrival, JobSpec) pairs."""

    def __init__(
        self,
        rng: np.random.Generator,
        cluster_nodes: int,
        config: Optional[WorkloadConfig] = None,
    ):
        if cluster_nodes < 1:
            raise ValueError("cluster_nodes must be >= 1")
        self.rng = rng
        self.cluster_nodes = cluster_nodes
        self.config = config or WorkloadConfig()
        self._app_names = [a[0] for a in APPS]
        weights = np.array([a[1] for a in APPS], dtype=float)
        self._app_probs = weights / weights.sum()
        self._app_cores = {a[0]: a[2] for a in APPS}
        # lambda such that E[nodes] * E[runtime] * lambda = util * N.
        mean_nodes = self._mean_node_count()
        mean_runtime = self._mean_runtime()
        demand = self.config.target_utilization * cluster_nodes
        self.arrival_rate = demand / (mean_nodes * mean_runtime)

    # -- moments used for calibration -------------------------------------------
    def _node_count(self) -> int:
        k = int(self.rng.geometric(SIZE_GEOM_P)) - 1
        nodes = 2**k
        return int(min(nodes, self.config.max_nodes, self.cluster_nodes))

    def _mean_node_count(self) -> float:
        probe = np.random.default_rng(12345)
        ks = probe.geometric(SIZE_GEOM_P, size=MOMENT_SAMPLES) - 1
        vals = np.minimum(2.0**ks, min(self.config.max_nodes, self.cluster_nodes))
        return float(vals.mean())

    def _runtime(self) -> float:
        cfg = self.config
        r = self.rng.lognormal(mean=np.log(cfg.runtime_median_s), sigma=RUNTIME_SIGMA)
        return float(np.clip(r, MIN_RUNTIME_S, cfg.max_runtime_s))

    def _mean_runtime(self) -> float:
        probe = np.random.default_rng(54321)
        cfg = self.config
        r = probe.lognormal(np.log(cfg.runtime_median_s), RUNTIME_SIGMA,
                            size=MOMENT_SAMPLES)
        return float(np.clip(r, MIN_RUNTIME_S, cfg.max_runtime_s).mean())

    # -- drawing -------------------------------------------------------------------
    def draw_spec(self) -> JobSpec:
        cfg = self.config
        app = str(self.rng.choice(self._app_names, p=self._app_probs))
        cores_choices = self._app_cores[app]
        cores = int(self.rng.choice(cores_choices))
        cores = min(cores, NODE_CORES)
        runtime = self._runtime()
        walltime = min(
            runtime * float(self.rng.uniform(1.1, WALLTIME_OVERESTIMATE)),
            MAX_WALLTIME_S,
        )
        mem_fraction = float(self.rng.beta(MEMORY_BETA_A, MEMORY_BETA_B))
        memory = int(mem_fraction * NODE_MEMORY)
        return JobSpec(
            user=f"user{int(self.rng.integers(0, 200)):03d}",
            app=app,
            nodes=self._node_count(),
            cores_per_node=cores,
            memory_per_node=memory,
            walltime=walltime,
            runtime=runtime,
            # Always drawn, after the node count and before ``shared``,
            # even though no job gets a GPU: dropping or moving this draw
            # shifts every later sample of the seeded stream.
            gpus_per_node=1 if self.rng.random() < GPU_FRACTION else 0,
            shared=bool(self.rng.random() < cfg.shared_fraction),
        )

    def arrivals(self) -> Iterator[tuple[float, JobSpec]]:
        """Endless stream of (inter-arrival seconds, spec)."""
        while True:
            gap = float(self.rng.exponential(1.0 / self.arrival_rate))
            yield gap, self.draw_spec()


def drive_workload(
    env: Environment,
    scheduler: BatchScheduler,
    generator: WorkloadGenerator,
    duration: float,
):
    """Simulation process: submit generated jobs for ``duration`` seconds."""

    def proc():
        for gap, spec in generator.arrivals():
            if env.now + gap > duration:
                return
            yield env.timeout(gap)
            scheduler.submit(spec)

    return env.process(proc(), name="workload-driver")
