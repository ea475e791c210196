"""Billing: core-hour accounting and opt-in co-location discounts.

Two headline numbers of Sec. V-C are pure billing arithmetic:
requesting 32 of 36 cores cuts the batch job's cost by ~11 %, and 9 of 12
cores by 25 % — "more than offsetting any impact of co-location".
Functions are billed per-use on independently allocated resources
(Sec. IV-E), so "a co-located FaaS-like application is essentially free"
from the system's perspective: every function core-hour comes out of
capacity that was already paid for and wasted.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["JobBill", "FunctionBill", "core_hour_discount"]


def core_hour_discount(requested_cores: int, node_cores: int) -> float:
    """Cost reduction from requesting only the cores actually used.

    ``1 - requested/node``: 32/36 -> ~0.111, 9/12 -> 0.25 (Sec. V-C).
    """
    if not 0 < requested_cores <= node_cores:
        raise ValueError("requested cores must be in (0, node_cores]")
    return 1.0 - requested_cores / node_cores


@dataclass(frozen=True)
class JobBill:
    """A batch job's bill under exclusive vs. shared accounting."""

    nodes: int
    node_cores: int
    requested_cores_per_node: int
    runtime_s: float
    slowdown: float = 1.0                 # co-location perturbation
    core_hour_price: float = 1.0          # currency per core-hour

    def __post_init__(self):
        if self.nodes < 1 or self.node_cores < 1:
            raise ValueError("need >= 1 node and core")
        if not 0 < self.requested_cores_per_node <= self.node_cores:
            raise ValueError("requested cores outside node")
        if self.runtime_s <= 0 or self.slowdown < 1.0:
            raise ValueError("invalid runtime/slowdown")

    @property
    def billed_runtime_s(self) -> float:
        return self.runtime_s * self.slowdown

    def exclusive_cost(self) -> float:
        """Classic billing: whole nodes for the (unperturbed) runtime."""
        hours = self.runtime_s / 3600.0
        return self.nodes * self.node_cores * hours * self.core_hour_price

    def shared_cost(self) -> float:
        """Opt-in billing: only requested cores, perturbed runtime."""
        hours = self.billed_runtime_s / 3600.0
        return self.nodes * self.requested_cores_per_node * hours * self.core_hour_price

    def saving_fraction(self) -> float:
        """Net saving of opting into sharing, slowdown included."""
        return 1.0 - self.shared_cost() / self.exclusive_cost()


@dataclass(frozen=True)
class FunctionBill:
    """Per-invocation billing on independently allocated resources."""

    cores: int
    memory_bytes: int
    duration_s: float
    core_hour_price: float = 1.0
    gib_hour_price: float = 0.05
    gpu_hour_price: float = 10.0
    gpus: int = 0

    def __post_init__(self):
        if self.cores < 0 or self.memory_bytes < 0 or self.gpus < 0:
            raise ValueError("negative resources")
        if self.duration_s < 0:
            raise ValueError("negative duration")

    def cost(self) -> float:
        hours = self.duration_s / 3600.0
        gib = self.memory_bytes / 1024**3
        return hours * (
            self.cores * self.core_hour_price
            + gib * self.gib_hour_price
            + self.gpus * self.gpu_hour_price
        )
