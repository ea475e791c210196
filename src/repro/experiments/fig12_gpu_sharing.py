"""Experiment Fig. 12: GPU batch jobs sharing nodes with GPU functions.

The GPU versions of LULESH (27 ranks over 3 Daint GPU nodes, 9 of 12
cores each) and MILC (32 ranks as 11/11/10) run as the batch job; Rodinia
kernels — stand-ins for GPU functions, a few hundred milliseconds each —
run in a container bound to one spare core.

The batch slowdown combines host-side interference (the Rodinia driver
core + staging traffic) and device-side time-sharing while a Rodinia
kernel is resident.  Paper: overhead < 5 % except two outliers (6.1 %,
10.5 %) at the *smallest* LULESH problem size; requesting 9/12 cores
already saves 25 % of cost.

Sweep protocol: one scenario per (batch app, size, Rodinia function);
the 9/12-core discount is plan metadata.  :func:`run_platform` is the
reference that measures the device share on a live GPU instead.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..cluster import DAINT_GPU
from ..disagg import core_hour_discount
from ..interference import InterferenceModel
from ..workloads import lulesh_model, milc_model, rodinia_benchmark
from .base import ScenarioSpec, Sweep, SweepPlan

__all__ = ["Fig12Point", "scenario", "plan_scenarios", "run_platform", "SWEEP"]

DEFAULT_RODINIA = ("backprop", "bfs", "hotspot", "kmeans", "lavamd", "needle",
                   "pathfinder", "srad")
DEFAULT_LULESH_SIZES = (20, 30, 45)
DEFAULT_MILC_SIZES = (8, 16, 24)

#: Fraction of wall time a repeatedly-launched Rodinia function keeps a
#: kernel resident on the device (launch gaps + host phases).
RODINIA_DUTY_CYCLE = 0.45

#: Device occupancy of the batch GPU apps (both keep the GPU busy).
BATCH_GPU_OCCUPANCY = 0.75

#: batch app -> (GPU demand model, ranks per node).
BATCH_APPS = {"lulesh": (lulesh_model, 9), "milc": (milc_model, 11)}


def _gpu_sensitivity(problem_size: int, smallest: int) -> float:
    """Small problems launch short kernels: launch latency and L2 churn
    make them disproportionately sensitive to a co-resident kernel."""
    if problem_size <= smallest:
        return 1.0
    return max(0.25, smallest / problem_size)


@dataclass(frozen=True)
class Fig12Point:
    batch_app: str
    problem_size: int
    rodinia: str
    batch_slowdown: float


def _extra_occupancy(rodinia: str) -> float:
    """Device occupancy a Rodinia function adds at its duty cycle."""
    return rodinia_benchmark(rodinia).gpu_occupancy * RODINIA_DUTY_CYCLE


def _point(params: dict, overload: float) -> Fig12Point:
    """The batch slowdown of one cell, given the device overload."""
    size: int = params["problem_size"]
    make_model, ranks = BATCH_APPS[params["batch_app"]]
    app = make_model(size, gpu=True)
    spec, model = DAINT_GPU, InterferenceModel()
    batch_demand = app.demand(ranks)
    batch_alone = model.slowdowns(spec, [batch_demand])[0]
    host_demand = rodinia_benchmark(params["rodinia"]).host.demand(1)
    # Host-side interference: driver core + staging traffic, relative to
    # the job's exclusive run.
    batch_host_slow = (
        model.slowdowns(spec, [batch_demand, host_demand])[0] / batch_alone
    )
    # Device-side: time-shared SMs while a Rodinia kernel resides.
    gpu_slow = 1.0 + overload * _gpu_sensitivity(size, params["smallest"])
    total = (
        (1 - app.gpu_fraction) * batch_host_slow
        + app.gpu_fraction * gpu_slow
    )
    return Fig12Point(
        batch_app=params["batch_app"], problem_size=size,
        rodinia=params["rodinia"], batch_slowdown=max(1.0, total),
    )


def scenario(params: dict, seed: int) -> dict:
    """One cell with the closed-form device overload."""
    overload = max(
        0.0, BATCH_GPU_OCCUPANCY + _extra_occupancy(params["rodinia"]) - 1.0)
    return asdict(_point(params, overload))


def plan_scenarios(
    rodinia_keys=DEFAULT_RODINIA,
    lulesh_sizes=DEFAULT_LULESH_SIZES,
    milc_sizes=DEFAULT_MILC_SIZES,
    seed: int = 0,
) -> SweepPlan:
    """LULESH sizes, then MILC sizes; the Rodinia functions innermost.

    Each cell's sensitivity is relative to the smallest planned size of
    its batch app.
    """
    apps = [("lulesh", s, min(lulesh_sizes)) for s in lulesh_sizes]
    apps += [("milc", s, min(milc_sizes)) for s in milc_sizes]
    scenarios = tuple(
        ScenarioSpec(
            fn=scenario,
            params={"batch_app": name, "problem_size": size,
                    "smallest": smallest, "rodinia": key},
            seed=seed, label=f"{name}-{size} + {key}",
        )
        for name, size, smallest in apps for key in rodinia_keys
    )
    return SweepPlan(scenarios=scenarios, meta={
        "cost_discount": core_hour_discount(9, DAINT_GPU.cores),
    })


def run_platform(seed: int = 0, **kwargs) -> list[Fig12Point]:
    """Fig. 12's points with the device overload *measured* on a GPU.

    ``kwargs`` are :func:`plan_scenarios` arguments.  Instead of the
    closed-form occupancy overload, each Rodinia function keeps a kernel
    resident on a live :class:`~repro.gpu.device.GpuDevice` (a platform
    built from ``PlatformConfig(gpu=...)``) while the batch job launches
    its own kernel; the overload is read off the batch kernel's simulated
    wall time.  The SM time-sharing rule makes that wall time
    ``max(1, occ_total)``, so the measured overload ``wall − 1`` equals
    the analytic ``max(0, occ_total − 1)`` *exactly* (IEEE identity) and
    the points equal the sweep's — asserted by
    ``tests/experiments/test_experiments.py``.
    """
    from ..api import Platform, PlatformConfig
    from ..gpuservice import GpuServiceConfig

    plan = plan_scenarios(seed=seed, **kwargs)
    platform = Platform.build(
        PlatformConfig(nodes=1, jitter=0.0, gpu=GpuServiceConfig(gpu_nodes=1)),
        seed=seed,
    )
    service = platform.gpu
    device_name, _ = service.online_slots()[0]
    device = service.leases.device_of(device_name)
    measured_overload: dict[str, float] = {}

    def probe():
        # One probe per Rodinia function: keep its kernel resident at the
        # duty-cycle-weighted occupancy, launch the batch job's kernel on
        # top, and measure the batch dilation from the kernel wall time.
        for key in dict.fromkeys(spec.params["rodinia"] for spec in plan.scenarios):
            resident = device.launch(f"fn-{key}", 4.0, _extra_occupancy(key))
            wall = yield device.launch("batch", 1.0, BATCH_GPU_OCCUPANCY)
            measured_overload[key] = wall - 1.0
            yield resident          # drain the device before the next probe

    platform.process(probe())
    platform.run()
    return [_point(spec.params, measured_overload[spec.params["rodinia"]])
            for spec in plan.scenarios]


SWEEP = Sweep(
    name="fig12",
    description="GPU co-location overheads",
    plan=plan_scenarios,
    point_type=Fig12Point,
    columns=(
        ("batch app", lambda p: p.batch_app),
        ("size", lambda p: p.problem_size),
        ("rodinia fn", lambda p: p.rodinia),
        ("batch slowdown", lambda p: f"{(p.batch_slowdown - 1) * 100:.2f}%"),
    ),
    title="Fig. 12 — GPU co-location: batch GPU job + Rodinia functions",
    footer=("9/12-core request discount: {cost_discount:.0%} (paper: 25%)."
            "\nPaper: overhead < 5% except outliers 6.1% and 10.5% at the"
            " smallest LULESH size."),
)
