"""GPU substrate: the device model and the GPU-function spec."""

from .device import GpuDevice, GpuMemoryError, KernelLaunch
from .gpu_function import GpuFunctionSpec

__all__ = [
    "GpuDevice",
    "GpuMemoryError",
    "KernelLaunch",
    "GpuFunctionSpec",
]
