#!/usr/bin/env python3
"""Lint: no endless loop in ``src/`` waits on a live entry.

An open-ended ``env.run()`` returns once only background entries
(``env.tick``) remain.  A ``while True:`` loop that never breaks or
returns and waits on ``*.timeout(...)`` or ``*.timer(...)`` queues a
live entry on every pass, so a run that starts it never ends.  Such a
loop must wait on ``env.tick`` instead.

An AST pass over every module under ``src/`` flags each such loop.  A
``break`` counts only when it ends the ``while True:`` itself, not a loop
nested in it; nested functions, lambdas and classes are not part of the
loop.

Run standalone or through the unified entry point::

    python tools/check_loops.py [REPO_ROOT]
    python -m tools.checks loops
"""

from __future__ import annotations

import ast
import pathlib
import sys
from typing import Iterator, List, Optional

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Attribute calls whose result, once yielded, is a live entry.
LIVE_WAITS = ("timeout", "timer")

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
_LOOPS = (ast.For, ast.AsyncFor, ast.While)


def _body(node: ast.AST) -> Iterator[ast.AST]:
    """Every node under ``node`` that runs in its scope."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, _SCOPES):
            yield child
            yield from _body(child)


def _exits(node: ast.AST, nested: bool = False) -> bool:
    """Whether ``node`` can return, or break the loop around it (a loop
    nested in that one when ``nested``)."""
    if isinstance(node, _SCOPES):
        return False
    if isinstance(node, ast.Return):
        return True
    if isinstance(node, ast.Break):
        return not nested
    if isinstance(node, _LOOPS):
        # A break in a nested loop's body ends that loop; one in its
        # ``else`` clause ends the loop around it.
        return (any(_exits(stmt, True) for stmt in node.body)
                or any(_exits(stmt, nested) for stmt in node.orelse))
    return any(_exits(child, nested) for child in ast.iter_child_nodes(node))


def _live_wait(loop: ast.While) -> Optional[str]:
    """The first ``.timeout``/``.timer`` the loop yields, if any."""
    for node in _body(loop):
        if (isinstance(node, ast.Yield) and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr in LIVE_WAITS):
            return node.value.func.attr
    return None


def violations(root: pathlib.Path = REPO_ROOT) -> List[str]:
    """Endless ``while True:`` loops that wait on a live entry."""
    root = pathlib.Path(root)
    problems: List[str] = []
    for path in sorted((root / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for loop in ast.walk(tree):
            if not (isinstance(loop, ast.While)
                    and isinstance(loop.test, ast.Constant)
                    and loop.test.value is True):
                continue
            wait = _live_wait(loop)
            if wait is not None and not any(_exits(stmt) for stmt in loop.body):
                problems.append(
                    f"{path.relative_to(root)}:{loop.lineno}: `while True:` "
                    f"yields .{wait}(...) and never breaks or returns, so "
                    f"an open-ended run() never ends (wait on env.tick)"
                )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = pathlib.Path(argv[0]) if argv else REPO_ROOT
    problems = violations(root)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"checked src/ endless loops, {len(problems)} violation(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
