"""Experiment Fig. 9: CPU sharing — batch jobs co-located with FaaS work.

LULESH (64 ranks, 32 of 36 cores on each of 2 nodes) and MILC run as the
classical batch job; serial NAS benchmarks occupy the leftover 4 cores
per node as a FaaS-like workload.  Reported: the batch job's slowdown
(Fig. 9a) and the FaaS-like application's slowdown (Fig. 9b), per NAS
benchmark and problem size.

Paper reference: the impact on the batch job is *negligible* (within
measurement noise); the container-side slowdown is visible but
acceptable; requesting 32/36 cores already saves ~11 % of cost.

Sweep protocol: one scenario per (batch app, size, NAS function); the
core-hour discount is plan metadata.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..cluster import DAINT_MC
from ..disagg import JobBill, core_hour_discount
from ..interference import InterferenceModel
from ..workloads import lulesh_model, milc_model, nas_model
from .base import ScenarioSpec, Sweep, SweepPlan

__all__ = ["Fig09Point", "scenario", "plan_scenarios", "SWEEP"]

DEFAULT_NAS = ("bt.W", "cg.A", "ep.W", "lu.W")
DEFAULT_LULESH_SIZES = (20, 30, 45)
DEFAULT_MILC_SIZES = (8, 16, 24)

BATCH_MODELS = {"lulesh": lulesh_model, "milc": milc_model}


@dataclass(frozen=True)
class Fig09Point:
    batch_app: str
    problem_size: int
    nas: str
    batch_slowdown: float
    faas_slowdown: float
    net_saving: float          # billing discount minus slowdown cost


def scenario(params: dict, seed: int) -> dict:
    """One batch job sharing its nodes with one NAS function."""
    batch_cores: int = params["batch_cores"]
    app = BATCH_MODELS[params["batch_app"]](params["problem_size"], gpu=False)
    spec, model = DAINT_MC, InterferenceModel()
    batch_demand = app.demand(batch_cores)
    faas_demand = nas_model(params["nas"]).demand(spec.cores - batch_cores)
    # Exclusive baselines: each workload alone on its node(s); the
    # co-location slowdown is the ratio to these, not to an idle node
    # (a 32-rank job pays its own frequency/cache costs regardless).
    batch_alone = model.slowdowns(spec, [batch_demand])[0]
    faas_alone = model.slowdowns(spec, [faas_demand])[0]
    both = model.slowdowns(spec, [batch_demand, faas_demand])
    batch_slow = both[0] / batch_alone
    bill = JobBill(
        nodes=2, node_cores=spec.cores, requested_cores_per_node=batch_cores,
        runtime_s=app.runtime_s, slowdown=batch_slow,
    )
    return asdict(Fig09Point(
        batch_app=params["batch_app"], problem_size=params["problem_size"],
        nas=params["nas"], batch_slowdown=batch_slow,
        faas_slowdown=both[1] / faas_alone, net_saving=bill.saving_fraction(),
    ))


def plan_scenarios(
    nas_keys=DEFAULT_NAS,
    lulesh_sizes=DEFAULT_LULESH_SIZES,
    milc_sizes=DEFAULT_MILC_SIZES,
    batch_cores: int = 32,
    seed: int = 0,
) -> SweepPlan:
    """LULESH sizes, then MILC sizes; the NAS functions innermost."""
    apps = [("lulesh", s) for s in lulesh_sizes] + [("milc", s) for s in milc_sizes]
    scenarios = tuple(
        ScenarioSpec(
            fn=scenario,
            params={"batch_app": name, "problem_size": size, "nas": key,
                    "batch_cores": batch_cores},
            seed=seed, label=f"{name}-{size} + {key}",
        )
        for name, size in apps for key in nas_keys
    )
    return SweepPlan(scenarios=scenarios, meta={
        "batch_cores": batch_cores,
        "faas_cores": DAINT_MC.cores - batch_cores,
        "core_hour_discount": core_hour_discount(batch_cores, DAINT_MC.cores),
    })


SWEEP = Sweep(
    name="fig09",
    description="CPU sharing: batch + FaaS-like workloads",
    plan=plan_scenarios,
    point_type=Fig09Point,
    columns=(
        ("batch app", lambda p: p.batch_app),
        ("size", lambda p: p.problem_size),
        ("NAS fn", lambda p: p.nas),
        ("batch slowdown", lambda p: f"{(p.batch_slowdown - 1) * 100:.2f}%"),
        ("FaaS slowdown", lambda p: f"{(p.faas_slowdown - 1) * 100:.2f}%"),
        ("net saving", lambda p: f"{p.net_saving * 100:.1f}%"),
    ),
    title=("Fig. 9 — CPU sharing: batch on {batch_cores}/36 cores,"
           " NAS functions on {faas_cores}"),
    footer=("Core-hour discount from requesting {batch_cores}/36 cores:"
            " {core_hour_discount:.1%} (paper: ~11%)."
            "\nPaper: batch impact negligible; FaaS-side slowdown higher but"
            " the resources were otherwise wasted."),
)
