#!/usr/bin/env python3
"""Lint: every sweep is registered and honors the parallel-runner contract.

:func:`repro.sweep.run_sweep` can only promise byte-identical output at
any ``jobs`` count if every :class:`~repro.experiments.base.ScenarioSpec`
in each registered sweep's default plan crosses the process-pool
boundary intact: a module-level ``fn`` (closures and lambdas don't
pickle), ``params`` whose pickle round trip is equal to them (so a
point replays from its params, platform config included, and seed
alone), an ``int`` seed, and a unique label (labels name scenarios in
failure reports).  Nothing in the type system
enforces that.  A ``*_sweep.py`` module under ``repro/experiments``
that :data:`~repro.experiments.base.SWEEPS` does not name is a finding
too: the registry is that map, so such a sweep could never run.

Load reaches a platform through :mod:`repro.loadgen`'s timer drivers
(``open_loop``, ``closed_loop``), not through a driver generator of a
sweep's own.  So a ``*.process(...)`` call under ``repro/experiments``
is a finding unless the function it sits in is one of
:data:`PROCESS_ALLOWED`, each allowed for a stated reason.

Run standalone or through the unified entry point::

    python tools/check_sweeps.py
    python -m tools.checks sweeps
"""

from __future__ import annotations

import ast
import pathlib
import pickle
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
EXPERIMENTS = REPO_ROOT / "src" / "repro" / "experiments"

#: ``module.function`` (nested functions dotted) -> why it may start a
#: process.
PROCESS_ALLOWED = {
    "autoscale_sweep.scenario.submit":
        "one handler process per arrival; dropping it reorders same-instant "
        "events, which is a re-pin of its own",
    "loadstorm_sweep.scenario.submit":
        "one handler process per arrival, until the storm runs on the rFaaS "
        "client path",
    "chaos_sweep.start_pager": "the paging retry script, not load",
    "memdurability_sweep.scenario": "the paging retry script, not load",
    "fig07_latency._rfaas_latencies": "fig07's sequential latency bench",
    "fig07_latency._fabric_latencies": "fig07's sequential latency bench",
    "fig12_gpu_sharing.run_platform": "fig12's sequential device probe",
}


def _spec_problems(name: str, spec) -> list[str]:
    problems: list[str] = []
    fn = spec.fn
    qualname = getattr(fn, "__qualname__", "")
    if "<locals>" in qualname or "<lambda>" in qualname:
        problems.append(
            f"sweep {name!r}: scenario {spec.label!r} uses non-module-level "
            f"fn {qualname!r} (won't cross the pool boundary)"
        )
    else:
        try:
            pickle.loads(pickle.dumps(fn))
        except Exception as exc:  # noqa: BLE001 - any failure is the finding
            problems.append(
                f"sweep {name!r}: scenario {spec.label!r} fn does not pickle "
                f"({exc})"
            )
    try:
        clone = pickle.loads(pickle.dumps(spec.params))
    except Exception as exc:  # noqa: BLE001
        problems.append(
            f"sweep {name!r}: scenario {spec.label!r} params do not pickle "
            f"({exc})"
        )
    else:
        if clone != spec.params:
            problems.append(
                f"sweep {name!r}: scenario {spec.label!r} params are not "
                f"equal after a pickle round trip (a worker would not replay "
                f"the planned scenario)"
            )
    if not isinstance(spec.seed, int):
        problems.append(
            f"sweep {name!r}: scenario {spec.label!r} seed is "
            f"{type(spec.seed).__name__}, not int"
        )
    return problems


def process_violations(experiments: pathlib.Path = EXPERIMENTS) -> list[str]:
    """``*.process(...)`` calls outside the :data:`PROCESS_ALLOWED`
    functions of the modules in ``experiments``."""
    problems: list[str] = []

    def visit(node: ast.AST, where: str, path: pathlib.Path) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where}.{child.name}", path)
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "process"
                    and where not in PROCESS_ALLOWED):
                problems.append(
                    f"{path.name}:{child.lineno}: {where} starts a process; "
                    f"drive load with repro.loadgen.open_loop/closed_loop "
                    f"(or allow it in PROCESS_ALLOWED with a reason)"
                )
            visit(child, where, path)

    for path in sorted(experiments.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem, path)
    return problems


def violations() -> list[str]:
    """Human-readable contract breaches; empty when every sweep conforms."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.experiments.base import SWEEPS, registered_sweeps

    problems = process_violations()
    for path in sorted(EXPERIMENTS.glob("*_sweep.py")):
        if path.stem not in SWEEPS.values():
            problems.append(
                f"{path.name} is missing from repro.experiments.base.SWEEPS "
                f"(an unlisted sweep can never run)"
            )

    for name, sweep in registered_sweeps().items():
        try:
            plan = sweep.plan()
        except Exception as exc:  # noqa: BLE001
            problems.append(
                f"sweep {name!r}: default plan() raised {type(exc).__name__}: {exc}"
            )
            continue
        if not plan.scenarios:
            problems.append(f"sweep {name!r}: default plan has no scenarios")
        labels = [spec.label for spec in plan.scenarios]
        if len(labels) != len(set(labels)):
            problems.append(f"sweep {name!r}: duplicate scenario labels {labels}")
        for spec in plan.scenarios:
            problems.extend(_spec_problems(name, spec))
    return problems


def main() -> int:
    problems = violations()
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"checked registered sweeps, {len(problems)} violation(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
