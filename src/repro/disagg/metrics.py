"""System utilization accounting for the Fig. 10 comparison.

Utilization is *used core-time / allocated core-time*.  Three scenarios:

* **exclusive** — the batch job and the FaaS-like workload each occupy
  their own full nodes; unused cores on both allocations are waste;
* **partial (ideal billing)** — both run exclusively but are billed only
  for the cores they use: a billing fix, not a utilization fix (their
  nodes still cannot run anything else), modeled as the batch job's
  allocation being trimmed while the function workload still burns whole
  nodes;
* **co-located** — the FaaS workload runs on the batch job's leftover
  cores; one set of nodes serves both.

The paper reports up to ~52 % improvement for co-location (Fig. 10).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ScenarioUtilization", "colocation_scenarios"]


@dataclass(frozen=True)
class ScenarioUtilization:
    """Core-time accounting of one placement scenario."""

    name: str
    used_core_time: float
    allocated_core_time: float

    def __post_init__(self):
        if self.allocated_core_time <= 0:
            raise ValueError("allocated core-time must be positive")
        if not 0 <= self.used_core_time <= self.allocated_core_time + 1e-9:
            raise ValueError("used core-time outside [0, allocated]")

    @property
    def utilization(self) -> float:
        return self.used_core_time / self.allocated_core_time

    def improvement_over(self, other: "ScenarioUtilization") -> float:
        """Relative utilization gain vs. ``other`` (0.52 = +52 %)."""
        return self.utilization / other.utilization - 1.0


def colocation_scenarios(
    node_cores: int,
    batch_nodes: int,
    batch_cores_per_node: int,
    batch_runtime_s: float,
    function_cores_per_node: int,
    function_busy_fraction: float = 1.0,
    batch_slowdown: float = 1.0,
) -> dict[str, ScenarioUtilization]:
    """Build the three Fig. 10 scenarios for one co-location experiment.

    ``function_busy_fraction`` is how much of the batch job's lifetime
    the leftover cores actually serve invocations (1.0 = back-to-back,
    the experiment's launch-as-soon-as-finished mode).
    """
    if not 0 < batch_cores_per_node <= node_cores:
        raise ValueError("batch cores outside node")
    if not 0 <= function_cores_per_node <= node_cores - batch_cores_per_node:
        raise ValueError("function cores exceed leftover")
    if not 0 <= function_busy_fraction <= 1:
        raise ValueError("busy fraction in [0, 1]")
    if batch_runtime_s <= 0 or batch_slowdown < 1:
        raise ValueError("invalid runtime/slowdown")

    batch_used = batch_nodes * batch_cores_per_node * batch_runtime_s
    fn_used = (
        batch_nodes * function_cores_per_node * batch_runtime_s * function_busy_fraction
    )
    coloc_time = batch_runtime_s * batch_slowdown
    scenarios = {
        # Both workloads on their own full-node allocations.
        "exclusive": ScenarioUtilization(
            name="exclusive",
            used_core_time=batch_used + fn_used,
            allocated_core_time=(
                batch_nodes * node_cores * batch_runtime_s          # batch alloc
                + batch_nodes * node_cores * batch_runtime_s * function_busy_fraction
            ),
        ),
        # Ideal billing: batch billed for used cores, functions still on
        # separate (whole) nodes.
        "partial": ScenarioUtilization(
            name="partial",
            used_core_time=batch_used + fn_used,
            allocated_core_time=(
                batch_nodes * batch_cores_per_node * batch_runtime_s
                + batch_nodes * node_cores * batch_runtime_s * function_busy_fraction
            ),
        ),
        # Software disaggregation: one set of nodes serves both.
        "colocated": ScenarioUtilization(
            name="colocated",
            used_core_time=batch_used + fn_used,
            allocated_core_time=batch_nodes * node_cores * coloc_time,
        ),
    }
    return scenarios
