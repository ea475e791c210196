#!/usr/bin/env python3
"""Lint: every registered sweep must honor the parallel-runner contract.

:func:`repro.sweep.run_sweep` can only promise byte-identical output at
any ``jobs`` count if every :class:`~repro.experiments.base.ScenarioSpec`
in each registered sweep's default plan crosses the process-pool
boundary intact: a module-level ``fn`` (closures and lambdas don't
pickle), picklable ``params``, an ``int`` seed, and a unique label
(labels name scenarios in failure reports).  Nothing in the type system
enforces that.

Run standalone or through the unified entry point::

    python tools/check_sweeps.py
    python -m tools.checks sweeps
"""

from __future__ import annotations

import pathlib
import pickle
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


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
        pickle.loads(pickle.dumps(spec.params))
    except Exception as exc:  # noqa: BLE001
        problems.append(
            f"sweep {name!r}: scenario {spec.label!r} params do not pickle "
            f"({exc})"
        )
    if not isinstance(spec.seed, int):
        problems.append(
            f"sweep {name!r}: scenario {spec.label!r} seed is "
            f"{type(spec.seed).__name__}, not int"
        )
    return problems


def violations() -> list[str]:
    """Human-readable contract breaches; empty when every sweep conforms."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    # Importing repro.sweep registers every built-in sweep.
    import repro.sweep  # noqa: F401
    from repro.experiments.base import registered_sweeps

    registry = registered_sweeps()
    if not registry:
        return ["no sweeps registered (did repro.experiments stop importing them?)"]

    problems: list[str] = []
    for name, sweep in registry.items():
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
