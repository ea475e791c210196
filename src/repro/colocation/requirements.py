"""Resource requirement modeling (the cold-start heuristic of Sec. III-E).

"When the history is unavailable for the first colocation instance, we
apply resource requirement modeling [Calotoiu'18]: counter measurements
create performance models for different resource classes, allowing us to
compare the stress factors for each application."

We implement the Extra-P-flavoured core of that method: for each resource
class (DRAM traffic, network traffic, FLOPs) fit a small model
``c * p^a * log2(p)^b`` over a parameter sweep of counter measurements,
then evaluate/extrapolate the *stress factor* — predicted demand relative
to node capacity — at the configuration being scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..interference.counters import CounterSample

__all__ = ["PerformanceModel", "fit_performance_model", "RequirementModel"]

# Candidate exponent grid, as in Extra-P's sparse search space.
_EXPONENTS = (0.0, 0.5, 1.0, 1.5, 2.0)
_LOG_POWERS = (0, 1)


@dataclass(frozen=True)
class PerformanceModel:
    """f(p) = coefficient * p^exponent * log2(p)^log_power."""

    coefficient: float
    exponent: float
    log_power: int
    residual: float

    def __call__(self, p: float) -> float:
        if p <= 0:
            raise ValueError("parameter must be positive")
        return self.coefficient * p**self.exponent * (np.log2(p) ** self.log_power if self.log_power else 1.0)


def fit_performance_model(params: Sequence[float], values: Sequence[float]) -> PerformanceModel:
    """Best single-term model over the candidate grid (least squares)."""
    p = np.asarray(params, dtype=float)
    y = np.asarray(values, dtype=float)
    if p.shape != y.shape or p.size < 2:
        raise ValueError("need >= 2 matching samples")
    if np.any(p <= 0):
        raise ValueError("parameters must be positive")
    best: Optional[PerformanceModel] = None
    for exponent in _EXPONENTS:
        for log_power in _LOG_POWERS:
            basis = p**exponent * (np.log2(p) ** log_power if log_power else 1.0)
            denom = float(basis @ basis)
            if denom == 0.0:
                continue
            coeff = float(basis @ y) / denom
            residual = float(np.sum((y - coeff * basis) ** 2))
            if best is None or residual < best.residual:
                best = PerformanceModel(coeff, exponent, log_power, residual)
    assert best is not None
    return best


class RequirementModel:
    """Per-resource-class performance models for one application."""

    RESOURCES = ("dram", "net", "flops")

    def __init__(self, app: str):
        self.app = app
        self._models: dict[str, PerformanceModel] = {}

    def fit(self, params: Sequence[float], samples_per_param: Sequence[Sequence[CounterSample]]) -> None:
        """Fit all resource classes from counter sweeps.

        ``samples_per_param[i]`` holds the counter windows measured at
        ``params[i]`` (e.g. problem size or rank count).
        """
        if len(params) != len(samples_per_param):
            raise ValueError("params and sample groups must align")
        dram, net, flops = [], [], []
        for group in samples_per_param:
            if not group:
                raise ValueError("empty sample group")
            dram.append(float(np.mean([s.dram_bandwidth for s in group])))
            net.append(float(np.mean([s.net_bandwidth for s in group])))
            flops.append(float(np.mean([s.flops / s.duration_s for s in group])))
        self._models["dram"] = fit_performance_model(params, dram)
        self._models["net"] = fit_performance_model(params, net)
        self._models["flops"] = fit_performance_model(params, flops)

    @property
    def fitted(self) -> bool:
        return set(self._models) == set(self.RESOURCES)

    def predict(self, resource: str, param: float) -> float:
        if resource not in self._models:
            raise KeyError(f"model for {resource!r} not fitted")
        return max(0.0, self._models[resource](param))

    def stress_factors(self, param: float, dram_capacity: float, net_capacity: float,
                       flops_capacity: float) -> dict[str, float]:
        """Predicted demand / capacity per resource class at ``param``."""
        return {
            "dram": self.predict("dram", param) / dram_capacity,
            "net": self.predict("net", param) / net_capacity,
            "flops": self.predict("flops", param) / flops_capacity,
        }
