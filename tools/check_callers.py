#!/usr/bin/env python3
"""Lint: nothing in ``src/`` lives for its tests or examples alone.

An AST pass over every module under ``src/``.  For each module-level
def or class, and each method of a module-level class, it looks for a
reference to the name in ``src/``, ``bench/`` (skipping
``bench/out/``) or ``tools/*.py``.  ``tests/`` and ``examples/`` are
not scanned: a demo script and its smoke test do not keep a member
alive.  A reference is the name as an ``ast.Name``, as an ``ast.Attribute``, or
as the string argument of ``getattr``/``hasattr``.  The match is by
name only, so a duck-typed hook (``_observe``) counts as called as soon
as any call site names it.

These are *not* callers: the def itself (a self-recursive call), a
``from .x import name`` re-export, an ``__all__`` string,
``tools/public_api.json``, and type annotations (an argument's, a
return's, and the annotation of an annotated assignment; its value
still counts).  Naming a type is not using it.  Dunder methods are
exempt.

A member with no caller fails the check unless :data:`ALLOWLIST` names
it with a reason that starts with one of :data:`REASONS`.  An allowlist
entry that has gained a caller, or whose member is gone, fails too, so
the list cannot rot.

Run standalone or through the unified entry point::

    python tools/check_callers.py [REPO_ROOT]
    python -m tools.checks callers
"""

from __future__ import annotations

import ast
import pathlib
import sys
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The only accepted reasons for keeping a member that no code calls.
REASONS = (
    # A side-effect-free property or method a tier-1 test reads to
    # observe state.
    "view:",
    # A second implementation a tier-1 test compares the main path to.
    "reference:",
    # A paper component waiting for its sweep caller.
    "paper:",
)

#: {qualified name: reason} for members kept with no caller.
ALLOWLIST: Dict[str, str] = {
    # -- views: side-effect-free reads a tier-1 test observes state through
    "repro.capacity.admission.AdmissionController.queue_depth":
        "view: admitted backlog depth the admission tests assert on",
    "repro.cluster.machine.Cluster.core_utilization":
        "view: allocated / total cores across the cluster",
    "repro.cluster.node.Node.core_utilization":
        "view: allocated / total cores of one node",
    "repro.cluster.node.Node.allocations":
        "view: the node's live allocations",
    "repro.cluster.node.Node.allocations_of_kind":
        "view: live allocations of one kind (batch, function, container)",
    "repro.containers.warmpool.WarmPool.warm_count":
        "view: parked warm containers",
    "repro.containers.warmpool.WarmPool.swapped_count":
        "view: containers swapped to the parallel filesystem",
    "repro.controlplane.ha.ReplicatedResourceManager.primary_rank":
        "view: which replica leads the current epoch",
    "repro.gpuservice.batcher.GpuBatcher.pending_total":
        "view: queued requests across every batch key",
    "repro.memservice.paging.RemotePager.resident_count":
        "view: pages resident in the local cache",
    "repro.network.transport.LinkConditioner.pristine":
        "view: no degradation, loss or partition is active",
    "repro.shard.ring.HashRing.spread":
        "view: key counts per shard, the ring's balance",
    "repro.sim.engine.Event.processed":
        "view: the event's callbacks have run",
    "repro.sim.engine.Environment.peek":
        "view: time of the next scheduled event",
    "repro.telemetry.metrics.Histogram.quantile":
        "view: exact nearest-rank quantile of the observed samples",
    # -- references: second implementations a test compares the main path to
    "repro.experiments.fig12_gpu_sharing.run_platform":
        "reference: Fig. 12 with the device overload measured on a live GPU, "
        "compared with the fig12 sweep's points",
    "repro.experiments.tab03_idle_node.run_platform":
        "reference: Table III through the Platform facade, compared with the "
        "tab03 sweep's points",
    # -- paper: paper components waiting for their sweep caller
    "repro.colocation.policy.CoLocationPolicy":
        "paper: Fig. 4 / Sec. III-E co-location policy, history first with "
        "an interference-model preview as fallback",
    "repro.colocation.policy.CoLocationPolicy.decide":
        "paper: Fig. 4 / Sec. III-E admit-or-reject decision for one "
        "function next to a batch job",
    "repro.disagg.controller.DisaggregationController":
        "paper: Fig. 2/6 batch-to-rFaaS loop: idle-node and leftover "
        "harvesting (Sec. III-A/B), drain on reclaim (Sec. IV-E)",
}


def _py_files(root: pathlib.Path) -> Iterator[pathlib.Path]:
    """Every file whose references count: src, bench and tools.

    Neither tests/ nor examples/ is a caller.
    """
    yield from sorted((root / "src").rglob("*.py"))
    out = root / "bench" / "out"
    for path in sorted((root / "bench").rglob("*.py")):
        if out not in path.parents:
            yield path
    yield from sorted((root / "tools").glob("*.py"))


def _module_name(src: pathlib.Path, path: pathlib.Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(src: pathlib.Path) -> Dict[str, Tuple[str, str]]:
    """{qualified name: (bare name, "path:line")} for every src member."""
    found: Dict[str, Tuple[str, str]] = {}
    for path in sorted(src.rglob("*.py")):
        module = _module_name(src, path)
        where = path.relative_to(src.parent)
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, _DEFS):
                continue
            found[f"{module}.{node.name}"] = (node.name, f"{where}:{node.lineno}")
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if isinstance(member, _DEFS) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    found[f"{module}.{node.name}.{member.name}"] = (
                        member.name, f"{where}:{member.lineno}")
    return found


class _References(ast.NodeVisitor):
    """Collects referenced names, minus a def's references to itself."""

    def __init__(self) -> None:
        self.names: Set[str] = set()
        self._enclosing: List[str] = []

    def _add(self, name: str) -> None:
        if name not in self._enclosing:
            self.names.add(name)

    def _visit_def(self, node) -> None:
        self._enclosing.append(node.name)
        for child in ast.iter_child_nodes(node):
            if child is not getattr(node, "returns", None):
                self.visit(child)
        self._enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _visit_def

    def visit_arg(self, node: ast.arg) -> None:
        """An argument's annotation is not a caller."""

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.visit(node.target)
        if node.value is not None:
            self.visit(node.value)

    def visit_Name(self, node: ast.Name) -> None:
        self._add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._add(node.attr)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if (isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "hasattr")
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)):
            self._add(node.args[1].value)
        self.generic_visit(node)


def _referenced_names(root: pathlib.Path) -> Set[str]:
    refs = _References()
    for path in _py_files(root):
        refs.visit(ast.parse(path.read_text(), str(path)))
    return refs.names


def violations(root: pathlib.Path = REPO_ROOT,
               allowlist: Optional[Mapping[str, str]] = None) -> List[str]:
    """Members with no caller in src, bench or tools, and bad allowlist entries."""
    allowlist = ALLOWLIST if allowlist is None else allowlist
    root = pathlib.Path(root)
    defined = _definitions(root / "src")
    referenced = _referenced_names(root)

    problems: List[str] = []
    for qualname, (name, where) in defined.items():
        if name not in referenced and qualname not in allowlist:
            problems.append(
                f"{where}: {qualname} has no caller outside tests/ and examples/ "
                f"(delete it, or allowlist it with a reason starting "
                f"{', '.join(REASONS)})"
            )
    for qualname, reason in sorted(allowlist.items()):
        if qualname not in defined:
            problems.append(f"stale allowlist entry {qualname}: no such member")
        elif defined[qualname][0] in referenced:
            problems.append(
                f"stale allowlist entry {qualname}: it has a caller now")
        if not reason.startswith(REASONS):
            problems.append(
                f"allowlist entry {qualname}: reason {reason!r} does not "
                f"start with {', '.join(REASONS)}"
            )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = pathlib.Path(argv[0]) if argv else REPO_ROOT
    problems = violations(root)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"checked src/ members for callers, {len(problems)} violation(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
