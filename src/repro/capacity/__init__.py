"""Capacity control plane: forecast, autoscale, admit, burst.

Closes the loop between the SLURM-side supply signal (harvested cores)
and the rFaaS-side demand signal (invocation arrivals):

* :class:`DemandForecaster` — EWMA + sliding-window-percentile demand
  estimates and harvested core-second supply accounting;
* :class:`WarmPoolAutoscaler` — resizes per-node warm pools ahead of
  predicted demand instead of on-miss;
* :class:`AdmissionController` — per-tenant token buckets, priority
  queueing, bounded depth with explicit
  :class:`~repro.rfaas.AdmissionRejected` backpressure;
* :class:`CloudBurstRouter` — admitted-but-unplaceable invocations run
  on the :class:`~repro.cloudfaas.CloudFaaSPlatform` baseline, billed
  through :mod:`repro.disagg.billing`;
* :class:`CapacityPlane` — the four pieces behind one governed
  ``invoke``; build it via ``PlatformConfig(capacity=...)``.
"""

from .admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionRejected,
    TenantQuota,
    TokenBucket,
)
from .autoscaler import WarmPoolAutoscaler
from .burst import BurstRecord, CloudBurstRouter
from .forecast import DemandForecaster
from .plane import CapacityConfig, CapacityPlane, CapacityResult

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionRejected",
    "BurstRecord",
    "CapacityConfig",
    "CapacityPlane",
    "CapacityResult",
    "CloudBurstRouter",
    "DemandForecaster",
    "TenantQuota",
    "TokenBucket",
    "WarmPoolAutoscaler",
]
