"""Hardware presets for the systems evaluated in the paper.

The paper runs on two systems (Sec. V):

* **Piz Daint** (Cray XC40/XC50, Aries interconnect):
  multicore nodes with 2x18-core Xeon E5-2695 v4 @ 2.10 GHz and 128 GB,
  and GPU nodes with a 12-core Xeon E5-2690 v3 @ 2.60 GHz, 64 GB and one
  NVIDIA P100.
* **Ault**: 2x18-core Xeon Gold 6154 @ 3.00 GHz with 377 GB (InfiniBand),
  plus nodes with 2x AMD EPYC 7742 (128 cores) and 256 GB for the OpenMC
  experiments.

These presets parameterize the simulated cluster so experiments quote the
same node shapes as the paper (e.g. "32 of 36 cores", "9 of 12 cores").
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "GpuSpec",
    "NodeSpec",
    "DAINT_MC",
    "DAINT_GPU",
    "AULT",
    "AULT_EPYC",
    "PRESETS",
]

GiB = 1024**3


@dataclass(frozen=True)
class GpuSpec:
    """A GPU device type."""

    model: str
    memory_bytes: int
    sm_count: int
    # Peak double-precision throughput; used by the GPU kernel model.
    peak_gflops: float
    # Device memory bandwidth in bytes/s.
    mem_bandwidth: float


P100 = GpuSpec(
    model="NVIDIA Tesla P100",
    memory_bytes=16 * GiB,
    sm_count=56,
    peak_gflops=4700.0,
    mem_bandwidth=732e9,
)


@dataclass(frozen=True)
class NodeSpec:
    """Per-node hardware shape and calibrated capacity parameters."""

    name: str
    cores: int
    memory_bytes: int
    sockets: int = 2
    gpus: tuple[GpuSpec, ...] = ()
    clock_ghz: float = 2.1
    # Aggregate DRAM bandwidth (bytes/s) — the contended resource in the
    # interference model (MILC is membw-bound; Sec. V-C).
    mem_bandwidth: float = 120e9
    # Injection bandwidth into the interconnect (bytes/s per node).
    net_bandwidth: float = 10e9
    # Shared last-level cache per socket (bytes).
    llc_bytes: int = 45 * 1024 * 1024

    def with_overrides(self, **kwargs) -> "NodeSpec":
        from dataclasses import replace

        return replace(self, **kwargs)


DAINT_MC = NodeSpec(
    name="daint-mc",
    cores=36,
    memory_bytes=128 * GiB,
    sockets=2,
    clock_ghz=2.1,
    mem_bandwidth=136e9,   # 2x 68 GB/s (Broadwell, 4ch DDR4-2133)
    net_bandwidth=10.2e9,  # Aries injection ~82 Gbit/s
    llc_bytes=45 * 1024 * 1024,
)

DAINT_GPU = NodeSpec(
    name="daint-gpu",
    cores=12,
    memory_bytes=64 * GiB,
    sockets=1,
    gpus=(P100,),
    clock_ghz=2.6,
    mem_bandwidth=68e9,
    net_bandwidth=10.2e9,
    llc_bytes=30 * 1024 * 1024,
)

AULT = NodeSpec(
    name="ault",
    cores=36,
    memory_bytes=377 * GiB,
    sockets=2,
    clock_ghz=3.0,
    mem_bandwidth=256e9,   # Skylake 6ch DDR4-2666 x2
    net_bandwidth=12.5e9,  # EDR InfiniBand
    llc_bytes=25 * 1024 * 1024,
)

AULT_EPYC = NodeSpec(
    name="ault-epyc",
    cores=128,
    memory_bytes=256 * GiB,
    sockets=2,
    clock_ghz=2.25,
    mem_bandwidth=380e9,   # Rome 8ch DDR4-3200 x2
    net_bandwidth=12.5e9,
    llc_bytes=256 * 1024 * 1024,
)

PRESETS: dict[str, NodeSpec] = {
    spec.name: spec for spec in (DAINT_MC, DAINT_GPU, AULT, AULT_EPYC)
}
