"""Protocol messages and invocation records of the rFaaS platform."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.telemetry.context import TraceContext

__all__ = ["InvocationStatus", "InvocationRequest", "InvocationResult", "Timings"]


class InvocationStatus(enum.Enum):
    OK = "ok"
    TERMINATED = "terminated"        # executor reclaimed mid-flight
    REJECTED = "rejected"            # no capacity / draining executor
    FAILED = "failed"                # function raised


@dataclass(frozen=True)
class InvocationRequest:
    """One function invocation as it travels to an executor."""

    function: str
    payload_bytes: int
    # The client passes env.next_id("rfaas-invocation"): ids are
    # per-environment.
    invocation_id: int
    # Causal trace identity carried across the client -> executor hop;
    # None when telemetry is off (the common case) or for bare sends.
    trace: Optional[TraceContext] = field(default=None, compare=False)

    def __post_init__(self):
        if self.payload_bytes < 0:
            raise ValueError("payload must be non-negative")


@dataclass
class Timings:
    """Latency breakdown of one invocation (all seconds)."""

    network_out: float = 0.0
    dispatch: float = 0.0       # executor wakeup / polling pickup
    startup: float = 0.0        # container acquire (cold/warm/swapped)
    execution: float = 0.0
    network_back: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.network_out + self.dispatch + self.startup
            + self.execution + self.network_back
        )


@dataclass
class InvocationResult:
    request: InvocationRequest
    status: InvocationStatus
    output_bytes: int = 0
    timings: Timings = field(default_factory=Timings)
    node_name: Optional[str] = None
    startup_kind: Optional[str] = None   # "warm" | "swapped" | "cold"

    @property
    def ok(self) -> bool:
        return self.status == InvocationStatus.OK
