"""Experiment Fig. 8: parallel filesystem vs. object storage I/O.

Sweeps file size and reader count over the Lustre and MinIO models,
reporting per-read latency and aggregate throughput.  Expected shape
(paper): the object store wins on latency for small files; Lustre
delivers higher throughput at scale (large files, many readers).

Sweep protocol: one scenario per (size, readers); the single-reader
latency crossover is plan metadata.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..storage import LustreModel, ObjectStoreModel, TieredFunctionStorage
from .base import ScenarioSpec, Sweep, SweepPlan

__all__ = ["Fig08Point", "scenario", "plan_scenarios", "SWEEP"]

KiB, MiB, GiB = 1024, 1024**2, 1024**3

DEFAULT_SIZES = (4 * KiB, 64 * KiB, 1 * MiB, 16 * MiB, 256 * MiB, 1 * GiB)
DEFAULT_READERS = (1, 4, 16, 64)


@dataclass(frozen=True)
class Fig08Point:
    size_bytes: int
    readers: int
    lustre_latency_s: float
    minio_latency_s: float
    lustre_throughput: float        # aggregate bytes/s
    minio_throughput: float

    @property
    def minio_wins_latency(self) -> bool:
        return self.minio_latency_s < self.lustre_latency_s


def scenario(params: dict, seed: int) -> dict:
    """One (size, readers) cell of both storage models."""
    size: int = params["size_bytes"]
    readers: int = params["readers"]
    pfs, store = LustreModel(), ObjectStoreModel()
    return asdict(Fig08Point(
        size_bytes=size,
        readers=readers,
        lustre_latency_s=pfs.read_time(size, readers),
        minio_latency_s=store.read_time(size, readers),
        lustre_throughput=pfs.aggregate_throughput(size, readers),
        minio_throughput=store.aggregate_throughput(size, readers),
    ))


def plan_scenarios(sizes=DEFAULT_SIZES, readers=DEFAULT_READERS,
                   seed: int = 0) -> SweepPlan:
    """One scenario per (size, readers), sizes outermost."""
    scenarios = tuple(
        ScenarioSpec(fn=scenario, params={"size_bytes": int(size), "readers": int(n)},
                     seed=seed, label=f"{size}B x{n}")
        for size in sizes for n in readers
    )
    tiered = TieredFunctionStorage(pfs=LustreModel(), cache=ObjectStoreModel())
    return SweepPlan(scenarios=scenarios, meta={
        "crossover_bytes_single_reader": tiered.crossover_size(),
    })


SWEEP = Sweep(
    name="fig08",
    description="Lustre vs MinIO function I/O",
    plan=plan_scenarios,
    point_type=Fig08Point,
    columns=(
        ("size (B)", lambda p: p.size_bytes),
        ("readers", lambda p: p.readers),
        ("lustre lat (ms)", lambda p: p.lustre_latency_s * 1e3),
        ("minio lat (ms)", lambda p: p.minio_latency_s * 1e3),
        ("lustre agg (GB/s)", lambda p: p.lustre_throughput / 1e9),
        ("minio agg (GB/s)", lambda p: p.minio_throughput / 1e9),
        ("latency winner", lambda p: "minio" if p.minio_wins_latency else "lustre"),
    ),
    title="Fig. 8 — Lustre vs MinIO",
    footer=("Latency crossover (1 reader): {crossover_bytes_single_reader:,} B."
            "\nPaper: object storage lower latency for small files; Lustre"
            " higher throughput at scale."),
)
