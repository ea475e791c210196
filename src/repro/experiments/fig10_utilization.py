"""Experiment Fig. 10: system utilization of three placement scenarios.

For each NAS workload co-located with the LULESH batch job, compares
core-time utilization of (a) co-located execution, (b) partially
co-located execution (ideal per-core billing, separate nodes), and (c)
standard exclusive allocations.  Paper: improvements up to ~52 %.

Sweep protocol: one scenario per NAS function.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..cluster import DAINT_MC
from ..disagg import colocation_scenarios
from ..interference import InterferenceModel
from ..workloads import lulesh_model, nas_model
from .base import ScenarioSpec, Sweep, SweepPlan

__all__ = ["Fig10Point", "scenario", "plan_scenarios", "SWEEP"]

DEFAULT_NAS = ("bt.W", "cg.A", "ep.W", "lu.W")


@dataclass(frozen=True)
class Fig10Point:
    nas: str
    exclusive: float
    partial: float
    colocated: float
    improvement_vs_exclusive: float
    improvement_vs_partial: float


def scenario(params: dict, seed: int) -> dict:
    """The three placements of LULESH next to one NAS function."""
    batch_cores: int = params["batch_cores"]
    spec, model = DAINT_MC, InterferenceModel()
    faas_cores = spec.cores - batch_cores
    app = lulesh_model(params["lulesh_size"], gpu=False)
    batch_demand = app.demand(batch_cores)
    batch_alone = model.slowdowns(spec, [batch_demand])[0]
    faas_demand = nas_model(params["nas"]).demand(faas_cores)
    batch_slow = (
        model.slowdowns(spec, [batch_demand, faas_demand])[0] / batch_alone
    )
    scenarios = colocation_scenarios(
        node_cores=spec.cores,
        batch_nodes=params["batch_nodes"],
        batch_cores_per_node=batch_cores,
        batch_runtime_s=app.runtime_s,
        function_cores_per_node=faas_cores,
        function_busy_fraction=params["function_busy_fraction"],
        batch_slowdown=batch_slow,
    )
    coloc, partial, exclusive = (
        scenarios["colocated"], scenarios["partial"], scenarios["exclusive"]
    )
    return asdict(Fig10Point(
        nas=params["nas"],
        exclusive=exclusive.utilization,
        partial=partial.utilization,
        colocated=coloc.utilization,
        improvement_vs_exclusive=coloc.improvement_over(exclusive),
        improvement_vs_partial=coloc.improvement_over(partial),
    ))


def plan_scenarios(
    nas_keys=DEFAULT_NAS,
    batch_cores: int = 32,
    batch_nodes: int = 2,
    lulesh_size: int = 30,
    function_busy_fraction: float = 0.5,
    seed: int = 0,
) -> SweepPlan:
    """One scenario per NAS function, in the given order."""
    params = {"batch_cores": batch_cores, "batch_nodes": batch_nodes,
              "lulesh_size": lulesh_size,
              "function_busy_fraction": float(function_busy_fraction)}
    scenarios = tuple(
        ScenarioSpec(fn=scenario, params={**params, "nas": key},
                     seed=seed, label=key)
        for key in nas_keys
    )
    return SweepPlan(scenarios=scenarios)


SWEEP = Sweep(
    name="fig10",
    description="system utilization across placement scenarios",
    plan=plan_scenarios,
    point_type=Fig10Point,
    columns=(
        ("NAS fn", lambda p: p.nas),
        ("exclusive util", lambda p: f"{p.exclusive * 100:.1f}%"),
        ("partial util", lambda p: f"{p.partial * 100:.1f}%"),
        ("co-located util", lambda p: f"{p.colocated * 100:.1f}%"),
        ("gain vs partial", lambda p: f"+{p.improvement_vs_partial * 100:.0f}%"),
        ("gain vs exclusive", lambda p: f"+{p.improvement_vs_exclusive * 100:.0f}%"),
    ),
    title="Fig. 10 — system utilization by placement scenario",
    footer="Paper: co-location gains up to ~52% over exclusive allocation.",
)
