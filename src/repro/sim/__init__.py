"""Deterministic discrete-event simulation substrate."""

from .engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from .trace import EventLog, EventRecord, TimeSeries

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
    "EventLog",
    "EventRecord",
    "TimeSeries",
]
