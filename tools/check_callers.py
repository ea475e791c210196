#!/usr/bin/env python3
"""Lint: nothing in ``src/`` lives for its tests or examples alone.

Three rules share one scan: every member has a caller, every config
field has a setter, and every defaulted parameter has a caller that
passes it.

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

The knob rule applies the same test to options.  It checks every field
of a frozen dataclass under ``src/`` whose name ends in ``Config``,
``Policy`` or ``Quota`` (a ``ClassVar`` is not a field).  A field is
set by a call in those roots that names the class and passes the field
by position or by keyword, by a ``*``/``**`` splat in such a call
(which sets every field), or by a ``dataclasses.replace`` keyword of
the field's name.  A field nothing sets fails unless :data:`KNOBS` names
it, or its class, with a reason that starts with one of
:data:`KNOB_REASONS`; otherwise it belongs in a module constant.  A
knob entry whose fields are all set, or that names no config class or
field, is stale and fails too.

The parameter rule applies it to arguments.  It checks every defaulted
parameter, positional or keyword-only, of each module-level function
and each method of a module-level class (``__init__`` included, other
dunders not) whose name does not start with ``_``; the members on
:data:`ALLOWLIST` are skipped.  A parameter is passed by a call in
those roots that names the callable and passes it by keyword or by
position, or by a ``*``/``**`` splat (which passes every parameter).
A method's positions are counted after ``self`` (``cls`` for a
classmethod).  ``__init__`` is called by a call naming its class, by
``cls(...)`` inside the class, and by ``super().__init__(...)`` in a
subclass.  A parameter nothing passes fails unless :data:`KNOBS` names
it as ``module.func.param`` or ``module.Class.method.param``; otherwise
it belongs in a constant.  A parameter entry that is passed now, or
that names no such parameter, is stale and fails too.

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

#: The accepted reasons for keeping a config field that no code sets,
#: or a parameter that no call passes.
KNOB_REASONS = (
    # A paper component's setting, waiting for the sweep that varies it.
    "paper:",
    # A value ROADMAP item 7's certify draws.
    "certify:",
    # A deployment setting, such as the CLI's argv and output stream.
    "deploy:",
)

#: Frozen dataclasses whose name ends with one of these are configs.
CONFIG_SUFFIXES = ("Config", "Policy", "Quota")

#: {qualified class, "class.field", "func.param" or "Class.method.param":
#: reason} for config fields no code sets and parameters no call passes.
KNOBS: Dict[str, str] = {
    "repro.colocation.policy.PolicyConfig":
        "paper: Fig. 4 / Sec. III-E co-location thresholds, waiting for "
        "CoLocationPolicy's sweep caller",
    "repro.disagg.controller.ControllerConfig":
        "paper: Fig. 2/6 harvesting loop settings, waiting for "
        "DisaggregationController's sweep caller",
    "repro.slurm.workload.WorkloadConfig.shared_fraction":
        "paper: Fig. 1 share of co-location-tolerant jobs, the axis of the "
        "harvest sweep",
    "repro.faults.recovery.RetryPolicy.timeout_s":
        "certify: the per-attempt deadline certify draws",
    "repro.capacity.plane.CapacityConfig.burst_enabled":
        "certify: capacity with cloud burst on, a plane certify draws",
    # -- parameters
    "repro.cli.main.argv":
        "deploy: the command line, sys.argv[1:] unless a caller passes one",
    "repro.cli.main.out":
        "deploy: where the CLI writes its report, print unless a caller "
        "passes one",
    "repro.slurm.scheduler.BatchScheduler.__init__.partitions":
        "paper: Sec. III-B's shared partition, the batch side of the "
        "co-location sweep",
    "repro.slurm.scheduler.BatchScheduler.free_node_names.partition":
        "paper: Sec. III-B's idle nodes of one partition, the batch side of "
        "the co-location sweep",
}

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


def _bare(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(dec, ast.Call) and _bare(dec.func) == "dataclass"
        and any(kw.arg == "frozen" and isinstance(kw.value, ast.Constant)
                and kw.value.value is True for kw in dec.keywords)
        for dec in node.decorator_list
    )


def _is_classvar(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    return _bare(annotation) == "ClassVar"


def config_classes(src: pathlib.Path) -> Dict[str, Tuple[str, List[str], str]]:
    """{qualified name: (bare name, fields in order, "path:line")}.

    A config class is a module-level frozen dataclass whose name ends
    with one of :data:`CONFIG_SUFFIXES`.
    """
    found: Dict[str, Tuple[str, List[str], str]] = {}
    for path in sorted(src.rglob("*.py")):
        module = _module_name(src, path)
        where = path.relative_to(src.parent)
        for node in ast.parse(path.read_text(), str(path)).body:
            if not (isinstance(node, ast.ClassDef)
                    and node.name.endswith(CONFIG_SUFFIXES)
                    and _is_frozen_dataclass(node)):
                continue
            fields = [
                stmt.target.id for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and not _is_classvar(stmt.annotation)
            ]
            found[f"{module}.{node.name}"] = (
                node.name, fields, f"{where}:{node.lineno}")
    return found


def _replace_names(tree: ast.Module) -> Tuple[Set[str], Set[str]]:
    """Names bound to ``dataclasses.replace`` and to ``dataclasses``."""
    functions: Set[str] = set()
    modules: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            functions.update(alias.asname or alias.name
                             for alias in node.names if alias.name == "replace")
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name
                           for alias in node.names if alias.name == "dataclasses")
    return functions, modules


def _set_fields(root: pathlib.Path,
                classes: Mapping[str, Tuple[str, List[str], str]]) -> Set[str]:
    """``"qualname.field"`` for every config field some call sets.

    A call naming the class sets the fields it passes by position or by
    keyword, and every field through a ``*``/``**`` splat.  A
    ``dataclasses.replace`` keyword sets that field of every config
    class that has one.
    """
    by_bare: Dict[str, List[str]] = {}
    for qualname, (name, _, _) in classes.items():
        by_bare.setdefault(name, []).append(qualname)
    replaced: Set[str] = set()
    found: Set[str] = set()
    for path in _py_files(root):
        tree = ast.parse(path.read_text(), str(path))
        functions, modules = _replace_names(tree)
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if ((isinstance(func, ast.Name) and func.id in functions)
                    or (isinstance(func, ast.Attribute) and func.attr == "replace"
                        and isinstance(func.value, ast.Name)
                        and func.value.id in modules)):
                replaced.update(kw.arg for kw in call.keywords if kw.arg)
                continue
            for qualname in by_bare.get(_bare(func), ()):
                fields = classes[qualname][1]
                if (any(isinstance(arg, ast.Starred) for arg in call.args)
                        or any(kw.arg is None for kw in call.keywords)):
                    named = fields
                else:
                    named = fields[:len(call.args)] + [
                        kw.arg for kw in call.keywords]
                found.update(f"{qualname}.{field}" for field in named)
    for qualname, (_, fields, _) in classes.items():
        found.update(f"{qualname}.{field}" for field in fields
                     if field in replaced)
    return found


def knob_violations(root: pathlib.Path = REPO_ROOT,
                    knobs: Optional[Mapping[str, str]] = None,
                    params: Set[str] = frozenset()) -> List[str]:
    """Config fields no call in src, bench or tools sets, and bad knob
    entries; an entry in ``params`` names a parameter, which
    :func:`parameter_violations` checks for staleness."""
    knobs = KNOBS if knobs is None else knobs
    root = pathlib.Path(root)
    classes = config_classes(root / "src")
    set_fields = _set_fields(root, classes)

    problems: List[str] = []
    fields: Set[str] = set()
    # Every unset field, and the class of each one.
    unset: Set[str] = set()
    for qualname, (_, names, where) in classes.items():
        for name in names:
            knob = f"{qualname}.{name}"
            fields.add(knob)
            if knob in set_fields:
                continue
            unset.update((knob, qualname))
            if qualname not in knobs and knob not in knobs:
                problems.append(
                    f"{where}: {knob} is set by no call outside tests/ and "
                    f"examples/ (make it a module constant, or list it in "
                    f"KNOBS with a reason starting {', '.join(KNOB_REASONS)})"
                )
    for entry, reason in sorted(knobs.items()):
        if entry in params:
            pass
        elif entry not in classes and entry not in fields:
            problems.append(
                f"stale knob entry {entry}: no such config class, field "
                f"or parameter")
        elif entry not in unset:
            problems.append(f"stale knob entry {entry}: it is set now")
        if not reason.startswith(KNOB_REASONS):
            problems.append(
                f"knob entry {entry}: reason {reason!r} does not start "
                f"with {', '.join(KNOB_REASONS)}"
            )
    return problems


class _Callable:
    """A def whose defaulted parameters the parameter rule checks."""

    def __init__(self, qualname: str, node, owner: Optional[str],
                 where: str) -> None:
        args = node.args
        positional = [arg.arg for arg in args.posonlyargs + args.args]
        decorators = {_bare(dec) for dec in node.decorator_list}
        if owner is not None and "staticmethod" not in decorators:
            positional = positional[1:]
        self.qualname = qualname
        self.where = where
        #: The bare name calls match: the class for ``__init__``.
        self.name = owner if node.name == "__init__" else node.name
        self.is_init = node.name == "__init__"
        self.positional = positional
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [arg.arg for arg, default in zip(args.kwonlyargs,
                                                      args.kw_defaults)
                      if default is not None]
        self.defaulted = [name for name in defaulted
                          if not name.startswith("_")]


def callables(src: pathlib.Path, skip: Mapping[str, str]) -> List[_Callable]:
    """Every function and method with a defaulted parameter to check.

    A member named in ``skip`` (an allowlist) is left out; so is the
    ``__init__`` of a class named there.
    """
    found: List[_Callable] = []
    for path in sorted(src.rglob("*.py")):
        module = _module_name(src, path)
        where = path.relative_to(src.parent)
        for node in ast.parse(path.read_text(), str(path)).body:
            defs = [(node, None)]
            if isinstance(node, ast.ClassDef):
                defs = [(member, node.name) for member in node.body]
            for member, owner in defs:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if (member.name.startswith("__") and member.name.endswith("__")
                        and member.name != "__init__"):
                    continue
                prefix = f"{module}.{owner}" if owner else module
                qualname = f"{prefix}.{member.name}"
                if qualname in skip or (member.name == "__init__"
                                        and prefix in skip):
                    continue
                found.append(_Callable(qualname, member, owner,
                                       f"{where}:{member.lineno}"))
    return [c for c in found if c.defaulted]


class _Calls(ast.NodeVisitor):
    """Records, per callable, the parameter names some call passes."""

    def __init__(self, targets: List[_Callable]) -> None:
        self.by_name: Dict[str, List[_Callable]] = {}
        for target in targets:
            self.by_name.setdefault(target.name, []).append(target)
        self.passed: Dict[str, Set[str]] = {t.qualname: set() for t in targets}
        self._classes: List[ast.ClassDef] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._classes.append(node)
        self.generic_visit(node)
        self._classes.pop()

    def _targets(self, call: ast.Call) -> List[_Callable]:
        func = call.func
        if (isinstance(func, ast.Attribute) and func.attr == "__init__"
                and isinstance(func.value, ast.Call)
                and _bare(func.value.func) == "super"):
            bases = {_bare(base) for cls in self._classes[-1:]
                     for base in cls.bases}
            return [t for name in bases for t in self.by_name.get(name, ())
                    if t.is_init]
        name = _bare(func)
        if name == "cls" and self._classes:
            name = self._classes[-1].name
        return self.by_name.get(name, [])

    def visit_Call(self, call: ast.Call) -> None:
        splat = (any(isinstance(arg, ast.Starred) for arg in call.args)
                 or any(kw.arg is None for kw in call.keywords))
        for target in self._targets(call):
            if splat:
                named = target.defaulted
            else:
                named = target.positional[:len(call.args)] + [
                    kw.arg for kw in call.keywords]
            self.passed[target.qualname].update(named)
        self.generic_visit(call)


def parameter_violations(root: pathlib.Path = REPO_ROOT,
                         allowlist: Optional[Mapping[str, str]] = None,
                         knobs: Optional[Mapping[str, str]] = None
                         ) -> Tuple[List[str], Set[str]]:
    """Defaulted parameters no call in src, bench or tools passes.

    Returns the problems and the set of knob entries that name a
    parameter (so :func:`knob_violations` does not call them stale).
    """
    allowlist = ALLOWLIST if allowlist is None else allowlist
    knobs = KNOBS if knobs is None else knobs
    root = pathlib.Path(root)
    targets = callables(root / "src", allowlist)
    calls = _Calls(targets)
    for path in _py_files(root):
        calls.visit(ast.parse(path.read_text(), str(path)))

    problems: List[str] = []
    params: Set[str] = set()
    unpassed: Set[str] = set()
    for target in targets:
        for name in target.defaulted:
            entry = f"{target.qualname}.{name}"
            params.add(entry)
            if name in calls.passed[target.qualname]:
                continue
            unpassed.add(entry)
            if entry not in knobs:
                problems.append(
                    f"{target.where}: {entry} is passed by no call outside "
                    f"tests/ and examples/ (make it a constant, or list it in "
                    f"KNOBS with a reason starting {', '.join(KNOB_REASONS)})"
                )
    for entry in sorted(params & set(knobs)):
        if entry not in unpassed:
            problems.append(f"stale knob entry {entry}: it is passed now")
    return problems, params


def scan_size(root: pathlib.Path = REPO_ROOT) -> Dict[str, int]:
    """How much the three rules look at: members, config fields and
    defaulted parameters, and the classes and callables holding them."""
    src = pathlib.Path(root) / "src"
    classes = config_classes(src)
    targets = callables(src, ALLOWLIST)
    return {
        "members": len(_definitions(src)),
        "fields": sum(len(names) for _, names, _ in classes.values()),
        "config_classes": len(classes),
        "parameters": sum(len(t.defaulted) for t in targets),
        "callables": len(targets),
    }


def violations(root: pathlib.Path = REPO_ROOT,
               allowlist: Optional[Mapping[str, str]] = None,
               knobs: Optional[Mapping[str, str]] = None) -> List[str]:
    """Members with no caller, config fields with no setter and
    defaulted parameters no call passes in src, bench or tools, and bad
    allowlist or knob entries."""
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
    param_problems, params = parameter_violations(root, allowlist, knobs)
    return problems + knob_violations(root, knobs, params) + param_problems


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = pathlib.Path(argv[0]) if argv else REPO_ROOT
    problems = violations(root)
    for problem in problems:
        print(problem, file=sys.stderr)
    size = scan_size(root)
    print(f"checked {size['members']} src/ members for callers, "
          f"{size['fields']} fields in {size['config_classes']} config classes "
          f"for setters and {size['parameters']} parameters in "
          f"{size['callables']} callables for callers, "
          f"{len(problems)} violation(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
