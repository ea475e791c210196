"""LogP-based offloading: Eq. 1 planner and live dispatcher."""

from .dispatcher import DispatchReport, OffloadDispatcher, calibrate_model
from .model import OffloadModel, OffloadPlan

__all__ = [
    "DispatchReport",
    "OffloadDispatcher",
    "calibrate_model",
    "OffloadModel",
    "OffloadPlan",
]
