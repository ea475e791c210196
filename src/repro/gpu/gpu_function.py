"""GPU functions: the kernel sequence and data a GPU function moves.

The paper co-locates GPU functions with batch jobs instead of driving a
remote GPU (rCUDA-style, Sec. III-D): a co-located function pays data
movement once and drives the device through the local PCIe path using a
single CPU core.  :class:`GpuFunctionSpec` describes one such function;
:mod:`repro.gpuservice` serves it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GpuFunctionSpec"]


@dataclass(frozen=True)
class GpuFunctionSpec:
    """A GPU function: a kernel sequence plus data movement."""

    name: str
    kernel_count: int
    kernel_time_s: float
    occupancy: float
    input_bytes: int
    device_memory_bytes: int

    def __post_init__(self):
        if self.kernel_count < 1:
            raise ValueError("need >= 1 kernel")
        if self.kernel_time_s < 0 or self.input_bytes < 0:
            raise ValueError("negative sizes")
        if self.device_memory_bytes < 1:
            raise ValueError("device memory must be positive")

    @property
    def device_time_s(self) -> float:
        return self.kernel_count * self.kernel_time_s
