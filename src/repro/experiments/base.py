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
* :class:`Sweep` + :func:`register_sweep` — what a sweep module
  declares: its ``plan_scenarios``, its point dataclass, and how its
  report table looks (a column spec, a title template over the plan
  metadata, a footer line).  The registry is consumed by the CLI
  (``repro sweep <name>``) and :func:`repro.sweep.run_sweep`.
* :class:`SweepResult` — the one result type every sweep produces:
  typed points plus ``to_dict()`` / ``to_json()`` / ``format_report()``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Tuple

from ..analysis.tables import render_table

__all__ = [
    "ScenarioSpec",
    "SweepPlan",
    "SweepResult",
    "Sweep",
    "register_sweep",
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
    report is one table of ``columns`` under ``title`` (a
    :meth:`str.format` template over the plan metadata), then
    ``footer``.
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
    """One sweep run: the plan metadata plus typed points in plan order."""

    sweep: Sweep
    meta: Dict[str, Any]
    points: List[Any]

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
        return f"{table}\n{self.sweep.footer}"


#: name -> Sweep, populated by each sweep module at import time.
_REGISTRY: Dict[str, Sweep] = {}


def register_sweep(sweep: Sweep) -> Sweep:
    """Register ``sweep`` (idempotent per name; returns it for assignment)."""
    existing = _REGISTRY.get(sweep.name)
    if existing is not None and existing is not sweep:
        raise ValueError(f"sweep {sweep.name!r} is already registered")
    _REGISTRY[sweep.name] = sweep
    return sweep


def get_sweep(name: str) -> Sweep:
    """The registered sweep, or a KeyError naming what *is* registered."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown sweep {name!r} (registered: {', '.join(sorted(_REGISTRY))})"
        ) from None


def registered_sweeps() -> Dict[str, Sweep]:
    """A snapshot of the registry (name -> Sweep), insertion-ordered."""
    return dict(_REGISTRY)
