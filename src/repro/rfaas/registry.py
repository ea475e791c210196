"""Function registry (Sec. III-E).

"When registering a new code container, the function can be profiled
using user-provided or synthetic input data."  Registration stores the
function's container image, its user-declared resource demand, and a
runtime estimate used by both the placement policy and the LogP
offloading planner.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..containers.image import Image
from ..interference.model import ResourceDemand

__all__ = ["FunctionDef", "FunctionRegistry"]


@dataclass(frozen=True)
class FunctionDef:
    """A registered serverless function."""

    name: str
    image: Image
    demand: ResourceDemand
    runtime_s: float              # estimated execution time per invocation
    output_bytes: int = 1024

    def __post_init__(self):
        if self.runtime_s < 0:
            raise ValueError("runtime estimate must be non-negative")
        if self.output_bytes < 0:
            raise ValueError("sizes must be non-negative")


class FunctionRegistry:
    """Named function definitions."""

    def __init__(self):
        self._functions: dict[str, FunctionDef] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    def __len__(self) -> int:
        return len(self._functions)

    def register(
        self,
        name: str,
        image: Image,
        runtime_s: float,
        demand: ResourceDemand,
        output_bytes: int = 1024,
    ) -> FunctionDef:
        """Register a function with its user-declared demand vector
        (users are incentivized to declare it: lower prices, Sec. III-E)."""
        if name in self._functions:
            raise ValueError(f"function {name!r} already registered")
        fdef = FunctionDef(
            name=name, image=image, demand=demand, runtime_s=runtime_s,
            output_bytes=output_bytes,
        )
        self._functions[name] = fdef
        return fdef
    def lookup(self, name: str) -> FunctionDef:
        try:
            return self._functions[name]
        except KeyError:
            raise KeyError(f"function {name!r} not registered") from None

    def names(self) -> list[str]:
        return sorted(self._functions)
