"""GPU disaggregation control plane: leases, batching, warm contexts, recovery.

Brings the accelerator path up to parity with the CPU serverless path
(see ``docs/gpu.md``): fractional MPS-style leases
(:class:`GpuLeaseManager`), invocation batching into coalesced kernel
launches (:class:`GpuBatcher`), device contexts kept warm after a
function's first batch, and device-loss recovery
(``FaultPlan.gpu_device_loss`` → lease revocation → batch replay on
surviving devices).  Built by ``PlatformConfig(gpu=...)``.
"""

from .batcher import BatchPolicy, GpuBatcher
from .lease import GpuLease, GpuLeaseManager, GpuLeaseState
from .service import GpuRequest, GpuService, GpuServiceConfig

__all__ = [
    "BatchPolicy",
    "GpuBatcher",
    "GpuLease",
    "GpuLeaseManager",
    "GpuLeaseState",
    "GpuRequest",
    "GpuService",
    "GpuServiceConfig",
]
