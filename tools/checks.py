#!/usr/bin/env python3
"""Unified lint entry point: one command runs every repo check.

CI, the test suite, and humans all invoke the identical code path::

    python -m tools.checks                # run everything
    python -m tools.checks metric-names   # run one named check
    python -m tools.checks --list         # show registered checks

Each check is a zero-argument callable returning a list of
human-readable violation strings (empty = pass), so adding a check is
one registry entry.  The test wrappers (``tests/telemetry/test_naming.py``,
``tests/api/test_public_api.py``, ``tests/tools/test_checks.py``) call
:func:`run` / :func:`run_all` directly — a lint can never pass in CI and
fail under pytest or vice versa.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List

from . import check_metric_names, check_public_api, check_sweeps

#: Registered checks: name -> zero-arg callable returning violation lines.
CHECKS: Dict[str, Callable[[], List[str]]] = {
    "metric-names": check_metric_names.violations,
    "public-api": check_public_api.violations,
    "sweeps": check_sweeps.violations,
}


def run(name: str) -> List[str]:
    """Run one registered check by name; returns its violation lines."""
    try:
        check = CHECKS[name]
    except KeyError:
        raise KeyError(
            f"unknown check {name!r} (registered: {', '.join(sorted(CHECKS))})"
        ) from None
    return check()


def run_all(names: List[str] | None = None) -> Dict[str, List[str]]:
    """Run the named checks (default: all); {check name: violations}."""
    selected = names if names else sorted(CHECKS)
    return {name: run(name) for name in selected}


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.checks", description=__doc__.splitlines()[0]
    )
    parser.add_argument("checks", nargs="*", metavar="CHECK",
                        help="check names to run (default: all)")
    parser.add_argument("--list", action="store_true", dest="list_checks",
                        help="list registered checks and exit")
    args = parser.parse_args(argv)

    if args.list_checks:
        for name in sorted(CHECKS):
            print(name)
        return 0

    try:
        results = run_all(args.checks)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    failed = 0
    for name, problems in results.items():
        status = "ok" if not problems else f"{len(problems)} violation(s)"
        print(f"{name}: {status}")
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        if problems:
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
