"""Co-location interference model.

The paper's measurements (Table III, Figs. 9, 11, 12) are all shaped by
node-level contention between co-located workloads.  We model the three
mechanisms that dominate on dual-socket HPC nodes:

1. **Memory bandwidth saturation** — each socket has a DRAM bandwidth
   budget; when the co-located demand exceeds it, memory-bound phases
   dilate proportionally (this is why MILC suffers and LULESH does not,
   and why CG's throughput saturates near 6x per socket in Table III);
2. **LLC capacity pressure** — when the combined working sets overflow
   the shared last-level cache, miss rates rise and effective DRAM demand
   grows;
3. **Frequency scaling** — turbo headroom shrinks as more cores are
   active, so even embarrassingly parallel co-location (EP) lands at
   ~85 % efficiency rather than 100 %.

Workload instances are described by :class:`ResourceDemand` (cores plus
unconstrained bandwidth demands plus *boundness fractions*, an
Amdahl-style decomposition of execution time).  Slowdown of workload
``i`` under per-resource pressure ``p_r``:

    slowdown_i = f_cpu,i * p_cpu * freq_penalty
               + f_mem,i * max(1, p_mem)
               + f_net,i * max(1, p_net)

Cores are packed onto sockets in submission order (SLURM CPU binding);
a workload spanning sockets experiences the *worst* socket's pressure,
because bulk-synchronous ranks advance at the pace of the slowest.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

from ..cluster.specs import NodeSpec

__all__ = ["ResourceDemand", "InterferenceModel", "PlacementError"]


class PlacementError(ValueError):
    """More cores demanded than the node offers."""


@dataclass(frozen=True)
class ResourceDemand:
    """One workload instance's per-node resource appetite.

    ``membw``/``netbw`` are the bandwidths the instance would consume
    running alone (bytes/s); ``llc_bytes`` its cache working set;
    ``frac_membw``/``frac_netbw`` the fractions of runtime bound on
    memory and network (the remainder is core-bound compute).
    """

    cores: int
    membw: float = 0.0
    netbw: float = 0.0
    llc_bytes: float = 0.0
    frac_membw: float = 0.0
    frac_netbw: float = 0.0
    label: str = ""

    def __post_init__(self):
        if self.cores < 0:
            raise ValueError("cores must be non-negative")
        if min(self.membw, self.netbw, self.llc_bytes) < 0:
            raise ValueError("demands must be non-negative")
        if self.frac_membw < 0 or self.frac_netbw < 0:
            raise ValueError("boundness fractions must be non-negative")
        if self.frac_membw + self.frac_netbw > 1.0 + 1e-9:
            raise ValueError("boundness fractions must sum to <= 1")

    @property
    def frac_cpu(self) -> float:
        return max(0.0, 1.0 - self.frac_membw - self.frac_netbw)

    def scaled(self, instances: int) -> list["ResourceDemand"]:
        """``instances`` identical copies (e.g. N serial NAS functions)."""
        return [self] * instances


@dataclass(frozen=True)
class InterferenceModel:
    """Calibration constants for the contention mechanisms."""

    # Turbo/thermal frequency drop from 1 active core to all cores.
    turbo_drop: float = 0.15
    # How strongly LLC overflow inflates effective DRAM demand.
    llc_alpha: float = 0.3
    # Cap on the LLC inflation multiplier: once every tenant is streaming
    # from DRAM anyway, extra cache pressure changes little.
    llc_mult_cap: float = 1.3
    # Fixed co-residency overhead (OS noise, scheduler) applied whenever
    # more than one tenant shares a node.
    sharing_noise: float = 0.002

    def frequency_penalty(self, active_cores: int, total_cores: int) -> float:
        """Clock-slowdown multiplier (>= 1) at ``active_cores`` busy cores."""
        if total_cores <= 1 or active_cores <= 1:
            return 1.0
        frac = min(active_cores - 1, total_cores - 1) / (total_cores - 1)
        return 1.0 / (1.0 - self.turbo_drop * frac)

    # -- the core computation ----------------------------------------------------
    def slowdowns(
        self,
        spec: NodeSpec,
        demands: Sequence[ResourceDemand],
        extra_netbw: float = 0.0,
        extra_membw: float = 0.0,
    ) -> list[float]:
        """Per-workload slowdown factors (>= 1) for one node's tenant mix.

        ``extra_netbw``/``extra_membw`` inject background traffic that has
        no workload of its own — e.g. RDMA streams from a remote-memory
        function (Fig. 11).
        """
        if not demands:
            return []
        total_cores_demanded = sum(d.cores for d in demands)
        if total_cores_demanded > spec.cores:
            raise PlacementError(
                f"{total_cores_demanded} cores demanded on a {spec.cores}-core node"
            )

        sockets = max(1, spec.sockets)
        socket_cores = spec.cores / sockets
        socket_membw = spec.mem_bandwidth / sockets
        socket_llc = float(spec.llc_bytes)

        # 1. Pack cores onto sockets in order (SLURM-style block binding).
        #    shares[i][s] = fraction of instance i's cores on socket s.
        shares = [[0.0] * sockets for _ in demands]
        cursor = 0.0
        for i, demand in enumerate(demands):
            remaining = float(demand.cores)
            while remaining > 1e-12:
                socket = min(int(cursor // socket_cores), sockets - 1)
                room = (socket + 1) * socket_cores - cursor
                take = min(remaining, room) if socket < sockets - 1 else remaining
                if demand.cores > 0:
                    shares[i][socket] += take / demand.cores
                cursor += take
                remaining -= take

        # 2. Per-socket LLC pressure inflates effective memory demand.
        socket_mem_pressure = []
        for s in range(sockets):
            llc_sum = sum(d.llc_bytes * shares[i][s] for i, d in enumerate(demands))
            overflow = llc_sum / socket_llc if socket_llc > 0 else 0.0
            mult = 1.0
            if overflow > 1.0:
                mult = min(1.0 + self.llc_alpha * (overflow - 1.0), self.llc_mult_cap)
            membw_sum = sum(
                d.membw * shares[i][s] * mult for i, d in enumerate(demands)
            )
            membw_sum += extra_membw / sockets
            socket_mem_pressure.append(membw_sum / socket_membw if socket_membw else 0.0)

        # 3. Node-wide network pressure.
        net_total = sum(d.netbw for d in demands) + extra_netbw
        net_pressure = net_total / spec.net_bandwidth if spec.net_bandwidth else 0.0

        # 4. Frequency penalty from total active cores.
        freq = self.frequency_penalty(total_cores_demanded, spec.cores)

        # 5. Compose per-workload slowdowns.
        multi_tenant = len(demands) > 1 or extra_netbw > 0 or extra_membw > 0
        noise = self.sharing_noise if multi_tenant else 0.0
        out = []
        for i, demand in enumerate(demands):
            occupied = [s for s in range(sockets) if shares[i][s] > 1e-12]
            if occupied:
                mem_pressure = max(socket_mem_pressure[s] for s in occupied)
                cpu_pressure = max(
                    1.0,
                    max(
                        sum(d.cores * shares[j][s] for j, d in enumerate(demands))
                        / socket_cores
                        for s in occupied
                    ),
                )
            else:  # pure memory/network service with no cores
                mem_pressure = max(socket_mem_pressure) if socket_mem_pressure else 0.0
                cpu_pressure = 1.0
            slowdown = (
                demand.frac_cpu * cpu_pressure * freq
                + demand.frac_membw * max(1.0, mem_pressure)
                + demand.frac_netbw * max(1.0, net_pressure)
            )
            out.append(max(1.0, slowdown) + noise)
        return out

    def relative_throughput(
        self,
        spec: NodeSpec,
        demand: ResourceDemand,
        instances: int,
    ) -> float:
        """Aggregate throughput of N identical instances vs. one alone.

        This is exactly the Table III metric: node throughput relative to
        a single rFaaS executor.
        """
        if instances < 1:
            raise ValueError("need >= 1 instance")
        base = self.slowdowns(spec, [demand])[0]
        colocated = self.slowdowns(spec, demand.scaled(instances))
        return sum(base / s for s in colocated)
