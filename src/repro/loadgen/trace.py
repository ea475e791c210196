"""Load specs and materialized workload traces.

A :class:`LoadSpec` is the seeded *recipe* — arrival process, tenant
mix, window, per-request service time, seed — and
:func:`synthesize` turns it into a :class:`WorkloadTrace`: the sorted
``(time, tenant)`` arrival sequence the loadstorm experiment replays
against the sharded control plane.

``synthesize(spec)`` is a pure function of the spec: the same spec
yields an identical trace in a fresh interpreter
(``tests/loadgen/test_determinism.py``).  The loadstorm scenario
synthesizes its trace from its params, so a trace never crosses the
sweep fabric's process-pool boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .arrivals import MmppArrivals, PoissonArrivals
from .tenants import TenantMix

__all__ = ["LoadSpec", "WorkloadTrace", "synthesize"]


@dataclass(frozen=True)
class LoadSpec:
    """The seeded recipe for one synthetic workload."""

    arrivals: Union[PoissonArrivals, MmppArrivals] = field(
        default_factory=lambda: PoissonArrivals(rate_per_s=2000.0)
    )
    mix: TenantMix = field(default_factory=TenantMix)
    window_s: float = 10.0
    #: Simulated hold time of one granted lease (the function runtime).
    service_s: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")
        if self.service_s < 0:
            raise ValueError("service_s must be non-negative")


class WorkloadTrace:
    """A materialized arrival trace: parallel time / tenant sequences.

    ``times`` are sorted simulated seconds; ``tenants[i]`` is the tenant
    index of arrival ``i``.  ``population`` records the synthetic client
    count the trace was drawn from (the "how many clients is this?"
    answer), independent of how many distinct tenants the draw touched.
    """

    __slots__ = ("times", "tenants", "population", "window_s", "service_s", "seed")

    def __init__(self, times, tenants, population: int, window_s: float,
                 service_s: float, seed: int):
        self.times = [float(t) for t in times]
        self.tenants = [int(t) for t in tenants]
        if len(self.times) != len(self.tenants):
            raise ValueError("times and tenants must have equal length")
        self.population = int(population)
        self.window_s = float(window_s)
        self.service_s = float(service_s)
        self.seed = int(seed)

    def __len__(self) -> int:
        return len(self.times)


def synthesize(spec: LoadSpec) -> WorkloadTrace:
    """Materialize a spec: pure function of the spec (seed included).

    One generator, two draw phases in a fixed order — arrival times,
    then tenant indices — so the trace is bit-reproducible in any
    interpreter and any pool worker.
    """
    rng = np.random.default_rng(spec.seed)
    times = spec.arrivals.times(spec.window_s, rng)
    tenants = spec.mix.draw(len(times), rng)
    return WorkloadTrace(
        times=times, tenants=tenants, population=spec.mix.population,
        window_s=spec.window_s, service_s=spec.service_s, seed=spec.seed,
    )
