"""GPU device model (Sec. III-D, Fig. 12).

A device executes kernels with a given SM *occupancy*; concurrent kernels
time-share the SMs, so when total requested occupancy exceeds 1.0 every
resident kernel dilates proportionally.  Device memory holds *warm data*:
GPU functions "keep warm data in the device's memory until another
application needs the device" — a dataset that does not fit evicts the
least recently used ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.specs import GpuSpec
from ..sim.engine import Environment, Event

__all__ = ["GpuDevice", "GpuMemoryError", "KernelLaunch"]


class GpuMemoryError(MemoryError):
    """Device memory exhausted (even after evicting warm data)."""


@dataclass
class KernelLaunch:
    launch_id: int
    owner: str
    runtime_s: float
    occupancy: float


class GpuDevice:
    """One accelerator: SM occupancy sharing + warm device memory."""

    def __init__(self, env: Environment, spec: GpuSpec, name: str = "gpu0"):
        self.env = env
        self.spec = spec
        self.name = name
        self._free_memory = spec.memory_bytes
        self._warm_data: dict[str, tuple[int, float]] = {}  # owner -> (bytes, last_used)
        self._resident: dict[int, KernelLaunch] = {}
        self.kernels_launched = 0
        self.warm_evictions = 0

    # -- memory -----------------------------------------------------------
    @property
    def free_memory(self) -> int:
        return self._free_memory

    @property
    def current_occupancy(self) -> float:
        return sum(k.occupancy for k in self._resident.values())

    # -- warm data (soft allocations) --------------------------------------------
    def keep_warm(self, owner: str, nbytes: int) -> None:
        """Park a dataset on the device; reclaimable any time.

        Re-warming replaces the owner's previous dataset, but only once
        the new one is known to fit: a failed ``keep_warm`` leaves every
        warm entry — including the owner's old one — untouched.
        """
        if nbytes <= 0:
            raise ValueError("warm data must be positive")
        reclaimable = self._free_memory + sum(
            size for size, _ in self._warm_data.values()
        )
        if reclaimable < nbytes:
            raise GpuMemoryError(f"{self.name}: no room for warm data")
        self.drop_warm(owner)
        while self._free_memory < nbytes:
            self._evict_lru_warm()
        self._free_memory -= nbytes
        self._warm_data[owner] = (nbytes, self.env.now)

    def has_warm(self, owner: str) -> bool:
        if owner in self._warm_data:
            nbytes, _ = self._warm_data[owner]
            self._warm_data[owner] = (nbytes, self.env.now)
            return True
        return False

    def drop_warm(self, owner: str) -> None:
        entry = self._warm_data.pop(owner, None)
        if entry is not None:
            self._free_memory += entry[0]

    def _evict_lru_warm(self) -> None:
        # Tie-break equal last-used timestamps by owner name: eviction
        # order must not depend on dict insertion history.
        victim = min(self._warm_data, key=lambda o: (self._warm_data[o][1], o))
        self.drop_warm(victim)
        self.warm_evictions += 1

    # -- kernels ----------------------------------------------------------------
    def launch(self, owner: str, runtime_s: float, occupancy: float) -> Event:
        """Run a kernel; the event fires with its dilated wall time.

        A kernel is an engine timer, not a process: it is resident from
        this call until the timer fires, and leaves before any yielder
        resumes.  Dilation is approximated with the occupancy mix
        sampled at the launch call itself (this kernel included), not
        one process start later — sufficient for the
        few-hundred-millisecond Rodinia kernels.
        """
        if runtime_s < 0:
            raise ValueError("negative kernel runtime")
        if not 0 < occupancy <= 1:
            raise ValueError("occupancy in (0, 1]")
        launch_id = self.env.next_id("gpu-launch")
        self._resident[launch_id] = KernelLaunch(launch_id, owner, runtime_s, occupancy)
        self.kernels_launched += 1
        wall = runtime_s * max(1.0, self.current_occupancy)
        return self.env.timer(wall, lambda _: self._resident.pop(launch_id), wall)
