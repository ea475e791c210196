"""The sweep experiment protocol: scenarios as pure functions of data.

Every sweep in this repo has the same shape — a list of *scenarios*
(one fault rate, one load multiplier, one replication factor), each
fully determined by a parameter dict and a seed, whose outcomes are
merged in a fixed order into one :class:`SweepResult` the CLI can print
and serialize.  This module names that shape so one runner
(:mod:`repro.sweep`) can execute *any* sweep, serially or fanned out
across a process pool, with byte-identical output either way:

* :class:`ScenarioSpec` — one unit of sweep work: a **module-level**
  callable ``fn(params, seed) -> point dict`` plus its (picklable)
  parameters and an explicit seed.  Everything a worker process needs
  crosses the pool boundary inside the spec; nothing is captured from
  the parent's state.  Seeds are assigned at *plan* time in the parent,
  following the :meth:`repro.api.Platform.build` rng-fan-out discipline
  (one base seed, derived deterministically per component), so neither
  worker identity nor execution order can influence a scenario.
* :class:`SweepPlan` — the canonical scenario order plus the run-level
  metadata (``window_s``, ``seed``, ...) the result carries.  The plan
  *is* the merge contract: points are always assembled in plan order,
  no matter which worker finished first.
* :class:`Sweep` — what a sweep module declares as its module-level
  ``SWEEP``: its ``plan_scenarios``, its point dataclass, and how its
  report table looks (a column spec, then a title and a footer, both
  templates over the plan metadata).
* :data:`SWEEPS` — the registry: sweep name -> module under
  :mod:`repro.experiments`.  The paper's figures and tables come first,
  in paper order, then the ``*_sweep`` modules.  :func:`get_sweep`
  imports a sweep's module on first use, so a process loads only the
  stack of the sweeps it runs.  To add a sweep, write
  ``<name>_sweep.py`` ending in ``SWEEP = Sweep(...)`` and add its entry
  here.  The CLI (``repro sweep <name>``, ``repro run all``) and
  :func:`repro.sweep.run_sweep` read it.
* :class:`SweepResult` — the one result type every sweep produces:
  typed points plus ``to_dict()`` / ``to_json()`` / ``format_report()``.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Tuple

from ..analysis.tables import render_table

__all__ = [
    "ScenarioSpec",
    "SweepPlan",
    "SweepResult",
    "Sweep",
    "SWEEPS",
    "get_sweep",
    "registered_sweeps",
]


@dataclass(frozen=True)
class ScenarioSpec:
    """One unit of sweep work: ``fn(params, seed) -> point dict``.

    ``fn`` must be a module-level callable and ``params`` a dict of
    picklable values — the spec is what crosses the process-pool
    boundary, so closures and locally-defined functions are rejected by
    the ``sweeps`` lint (``tools/check_sweeps.py``).  ``label`` names
    the scenario in reports and error messages.
    """

    fn: Callable[[Dict[str, Any], int], Dict[str, Any]]
    params: Dict[str, Any]
    seed: int
    label: str

    def execute(self) -> Dict[str, Any]:
        """Run the scenario in this process; returns its point dict."""
        return self.fn(self.params, self.seed)


@dataclass(frozen=True)
class SweepPlan:
    """The canonical scenario order plus run-level result metadata."""

    scenarios: Tuple[ScenarioSpec, ...]
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ValueError("the sweep plans no scenarios")

    def __len__(self) -> int:
        return len(self.scenarios)


#: One report column: its header and the cell it shows for a point.
Column = Tuple[str, Callable[[Any], Any]]


@dataclass(frozen=True)
class Sweep:
    """A registered sweep: how to plan it and how its report looks.

    ``plan(**kwargs) -> SweepPlan`` validates the run arguments and
    fixes the canonical scenario order (and every per-scenario seed);
    scenario point dicts are rebuilt as ``point_type(**point)``.  The
    report is one table of ``columns`` under ``title``, then ``footer``;
    both are :meth:`str.format` templates over the plan metadata.
    """

    name: str
    description: str
    plan: Callable[..., SweepPlan]
    point_type: type
    columns: Tuple[Column, ...]
    title: str
    footer: str

    def assemble(self, points: List[Dict[str, Any]],
                 meta: Mapping[str, Any]) -> SweepResult:
        """The typed result of point dicts, kept in plan order."""
        return SweepResult(self, dict(meta),
                           [self.point_type(**point) for point in points])


@dataclass
class SweepResult:
    """One sweep run: the plan metadata plus typed points in plan order.

    ``metrics`` holds the scenarios' metric registries as
    :func:`~repro.telemetry.registry_samples`, scopes numbered across the
    run, when :func:`repro.sweep.run_sweep` streamed spans (else empty).
    """

    sweep: Sweep
    meta: Dict[str, Any]
    points: List[Any]
    metrics: List[Any] = field(default_factory=list, init=False, repr=False,
                               compare=False)

    def to_dict(self) -> dict:
        return {**self.meta, "points": [asdict(p) for p in self.points]}

    def to_json(self) -> str:
        """The repo-wide sweep JSON convention: sorted keys, 2-space indent."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def format_report(self) -> str:
        columns = self.sweep.columns
        table = render_table(
            [header for header, _ in columns],
            [[cell(p) for _, cell in columns] for p in self.points],
            title=self.sweep.title.format(**self.meta),
        )
        return f"{table}\n{self.sweep.footer.format(**self.meta)}"


#: name -> module under ``repro.experiments`` whose ``SWEEP`` it is,
#: in listing order: the paper's figures and tables, then the sweeps.
SWEEPS: Dict[str, str] = {
    "fig01": "fig01_utilization",
    "fig07": "fig07_latency",
    "fig08": "fig08_storage",
    "tab03": "tab03_idle_node",
    "fig09": "fig09_cpu_sharing",
    "fig10": "fig10_utilization",
    "fig11": "fig11_memory_sharing",
    "fig12": "fig12_gpu_sharing",
    "fig13": "fig13_offloading",
    "autoscale": "autoscale_sweep",
    "chaos": "chaos_sweep",
    "gpu_scaling": "gpu_scaling_sweep",
    "loadstorm": "loadstorm_sweep",
    "manager_failover": "manager_failover_sweep",
    "memdurability": "memdurability_sweep",
    "certify": "certify_sweep",
}


def get_sweep(name: str) -> Sweep:
    """The registered sweep, or a KeyError naming what *is* registered.

    Imports the sweep's module on first use.
    """
    try:
        module = SWEEPS[name]
    except KeyError:
        raise KeyError(
            f"unknown sweep {name!r} (registered: {', '.join(sorted(SWEEPS))})"
        ) from None
    return importlib.import_module(f"repro.experiments.{module}").SWEEP


def registered_sweeps() -> Dict[str, Sweep]:
    """Every registered sweep (name -> Sweep), in :data:`SWEEPS` order."""
    return {name: get_sweep(name) for name in SWEEPS}
