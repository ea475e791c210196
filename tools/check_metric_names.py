#!/usr/bin/env python3
"""Lint: telemetry metric names must follow the repro naming convention.

Every metric registered anywhere in ``src/repro`` — a string literal
passed to ``.counter(`` / ``.gauge(`` / ``.histogram(`` — must match
``repro_<subsystem>_<name>_<unit>`` with the unit drawn from the closed
set in :data:`repro.telemetry.metrics.METRIC_UNITS` and the subsystem
from :data:`KNOWN_SUBSYSTEMS` (a new subsystem namespace is an API
decision: add it to the set here in the same PR that introduces it).
Run standalone::

    python tools/check_metric_names.py

or via the test suite (``tests/telemetry/test_naming.py``), which is
what keeps metric naming from drifting between PRs.
"""

from __future__ import annotations

import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"

#: Subsystem namespaces metrics may live in (``repro_<subsystem>_...``).
KNOWN_SUBSYSTEMS = frozenset({
    "capacity",    # capacity control plane: forecast/autoscale/admit/burst
    "controlplane",  # replicated manager: heartbeats/failover/fencing
    "executor",
    "faults",
    "gpu",         # GPU control plane: leases/batching/warm pools/replay
    "manager",
    "memservice",  # durable memory service: replication/migration/repair
    "scheduler",
    "shard",       # sharded control plane: batching/migration/conservation
    "warmpool",
})

_REGISTRATION = re.compile(
    r"""\.(?:counter|gauge|histogram)\(\s*\n?\s*(?P<quote>["'])(?P<name>[^"']+)(?P=quote)"""
)


def find_metric_names(root: pathlib.Path = SRC_ROOT) -> list[tuple[str, int, str]]:
    """(relative path, line number, metric name) for every registration."""
    found: list[tuple[str, int, str]] = []
    for path in sorted(root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        try:
            shown = str(path.relative_to(REPO_ROOT))
        except ValueError:
            shown = str(path)
        for match in _REGISTRATION.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            found.append((shown, line, match.group("name")))
    return found


def violations(root: pathlib.Path = SRC_ROOT) -> list[str]:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.telemetry.metrics import METRIC_NAME_RE

    bad = []
    for path, line, name in find_metric_names(root):
        if not METRIC_NAME_RE.match(name):
            bad.append(f"{path}:{line}: {name!r} violates repro_<subsystem>_<name>_<unit>")
            continue
        subsystem = name.split("_", 2)[1]
        if subsystem not in KNOWN_SUBSYSTEMS:
            bad.append(
                f"{path}:{line}: {name!r} uses unknown subsystem {subsystem!r}"
                " (add it to KNOWN_SUBSYSTEMS if intentional)"
            )
    return bad


def main() -> int:
    names = find_metric_names()
    problems = violations()
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"checked {len(names)} metric registrations, {len(problems)} violation(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
