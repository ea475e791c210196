"""Load specs and materialized workload traces.

A :class:`LoadSpec` is the seeded *recipe* — arrival process, tenant
mix, window, per-request service time, seed — and
:func:`synthesize` turns it into a :class:`WorkloadTrace`: the sorted
``(time, tenant)`` arrival sequence the loadstorm experiment replays
against the sharded control plane.

Both objects are plain data with three hard round-trip guarantees
(``tests/loadgen/test_determinism.py``):

* **seed round-trip** — ``synthesize(spec)`` is a pure function of the
  spec; the same spec yields an identical trace in a fresh interpreter;
* **JSON byte-identity** — ``WorkloadTrace.from_json(t.to_json()).to_json()
  == t.to_json()`` (floats survive via Python's shortest-repr float
  serialization, which JSON round-trips exactly);
* **pickle round-trip** — specs and traces cross the sweep fabric's
  process-pool boundary unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .arrivals import MmppArrivals, PoissonArrivals
from .tenants import TenantMix

__all__ = ["LoadSpec", "WorkloadTrace", "synthesize"]

_ARRIVAL_KINDS = {"poisson": PoissonArrivals, "mmpp": MmppArrivals}


def _arrivals_to_dict(arrivals: Union[PoissonArrivals, MmppArrivals]) -> dict:
    if isinstance(arrivals, PoissonArrivals):
        return {"kind": "poisson", "rate_per_s": arrivals.rate_per_s}
    return {"kind": "mmpp", "rates_per_s": list(arrivals.rates_per_s),
            "mean_dwell_s": arrivals.mean_dwell_s}


def _arrivals_from_dict(data: dict) -> Union[PoissonArrivals, MmppArrivals]:
    kind = data.get("kind")
    if kind == "poisson":
        return PoissonArrivals(rate_per_s=data["rate_per_s"])
    if kind == "mmpp":
        return MmppArrivals(rates_per_s=tuple(data["rates_per_s"]),
                            mean_dwell_s=data["mean_dwell_s"])
    raise ValueError(
        f"unknown arrival kind {kind!r} (one of {sorted(_ARRIVAL_KINDS)})"
    )


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

    def to_dict(self) -> dict:
        return {
            "arrivals": _arrivals_to_dict(self.arrivals),
            "mix": {"population": self.mix.population,
                    "zipf_s": self.mix.zipf_s, "prefix": self.mix.prefix},
            "window_s": self.window_s,
            "service_s": self.service_s,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LoadSpec":
        mix = data.get("mix", {})
        return cls(
            arrivals=_arrivals_from_dict(data["arrivals"]),
            mix=TenantMix(population=mix.get("population", 1_200_000),
                          zipf_s=mix.get("zipf_s", 1.3),
                          prefix=mix.get("prefix", "t")),
            window_s=data["window_s"],
            service_s=data["service_s"],
            seed=data["seed"],
        )


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

    def __eq__(self, other) -> bool:
        if not isinstance(other, WorkloadTrace):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def distinct_tenants(self) -> int:
        """Tenants the draw actually touched (<< population under Zipf)."""
        return len(set(self.tenants))

    def peak_rate_per_s(self, bucket_s: float = 0.5) -> float:
        """Max arrivals/s over fixed buckets — the burst the plane must ride."""
        if not self.times:
            return 0.0
        counts: dict[int, int] = {}
        for t in self.times:
            bucket = int(t / bucket_s)
            counts[bucket] = counts.get(bucket, 0) + 1
        return max(counts.values()) / bucket_s

    # -- (de)serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "population": self.population,
            "seed": self.seed,
            "service_s": self.service_s,
            "tenants": self.tenants,
            "times": self.times,
            "window_s": self.window_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadTrace":
        return cls(times=data["times"], tenants=data["tenants"],
                   population=data["population"], window_s=data["window_s"],
                   service_s=data["service_s"], seed=data["seed"])

    @classmethod
    def from_json(cls, text: str) -> "WorkloadTrace":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "WorkloadTrace":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    # -- pickle (explicit, so __slots__ stays cheap) -------------------------
    def __getstate__(self) -> dict:
        return self.to_dict()

    def __setstate__(self, state: dict) -> None:
        restored = WorkloadTrace.from_dict(state)
        for slot in self.__slots__:
            object.__setattr__(self, slot, getattr(restored, slot))


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
