"""Workload abstractions.

Every application in the paper's evaluation appears here in two forms:

* an :class:`AppModel` — a calibrated resource-demand profile used by the
  simulation-side experiments (co-location slowdowns, Table III, Figs. 9,
  11, 12); and
* where the experiment executes real code (Fig. 13, the local runtime
  examples), a vectorized numpy *mini-kernel* in the same module.

``AppModel`` demands scale linearly in ranks: ``ranks`` MPI processes on
one node consume ``ranks x`` the per-rank bandwidths and cache footprint.
That linearity is the standard first-order model for bulk-synchronous
codes and is all the paper's experiments require.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..interference.model import ResourceDemand

__all__ = ["AppModel"]


@dataclass(frozen=True)
class AppModel:
    """A calibrated per-rank resource profile for one app configuration."""

    name: str
    runtime_s: float            # reference runtime of this configuration
    membw_per_rank: float       # bytes/s DRAM traffic per rank
    netbw_per_rank: float = 0.0
    llc_per_rank: float = 0.0   # cache working set per rank (bytes)
    frac_membw: float = 0.0     # fraction of time memory-bound
    frac_netbw: float = 0.0     # fraction of time network-bound
    gpu_fraction: float = 0.0   # fraction of work on the GPU (0 = CPU-only)

    def __post_init__(self):
        if self.runtime_s <= 0:
            raise ValueError("runtime must be positive")
        if min(self.membw_per_rank, self.netbw_per_rank, self.llc_per_rank) < 0:
            raise ValueError("per-rank demands must be non-negative")
        if not 0 <= self.gpu_fraction <= 1:
            raise ValueError("gpu_fraction in [0, 1]")

    def demand(self, ranks: int = 1) -> ResourceDemand:
        """Node-level demand vector for ``ranks`` ranks on one node."""
        if ranks < 1:
            raise ValueError("ranks must be >= 1")
        return ResourceDemand(
            cores=ranks,
            membw=ranks * self.membw_per_rank,
            netbw=ranks * self.netbw_per_rank,
            llc_bytes=ranks * self.llc_per_rank,
            frac_membw=self.frac_membw,
            frac_netbw=self.frac_netbw,
            label=self.name,
        )
