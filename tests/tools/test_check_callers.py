"""The callers check: every ``src`` member has a caller outside tests/
and examples/, or an allowlist entry with a ``view:``/``reference:``/
``paper:`` reason.  A type annotation is not a caller."""

import pathlib
import sys
import textwrap

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT))

from tools import check_callers  # noqa: E402


def write(root, relpath, source):
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))


def make_tree(root):
    """A package whose every member is called, plus a tests/ tree."""
    write(root, "src/pkg/__init__.py", """
        from .core import Engine, helper

        __all__ = ["Engine", "helper"]
    """)
    write(root, "src/pkg/core.py", """
        class Engine:
            def run(self):
                return self._step()

            def _step(self):
                return helper()

            def __repr__(self):
                return "Engine"


        def helper():
            return 1
    """)
    write(root, "tools/demo.py", """
        from pkg import Engine

        Engine().run()
    """)
    write(root, "tests/test_core.py", """
        from pkg.core import Engine

        def test_run():
            assert Engine().run() == 1
    """)


def flagged(problems, name):
    return [p for p in problems if name in p]


def test_a_fully_called_tree_passes(tmp_path):
    make_tree(tmp_path)
    assert check_callers.violations(tmp_path, allowlist={}) == []


def test_a_method_called_only_from_tests_is_flagged(tmp_path):
    make_tree(tmp_path)
    write(tmp_path, "src/pkg/extra.py", """
        class Gauge:
            def drain(self):
                return 0
    """)
    write(tmp_path, "src/pkg/use.py", """
        from .extra import Gauge

        Gauge()
    """)
    write(tmp_path, "tests/test_extra.py", """
        from pkg.extra import Gauge

        def test_drain():
            assert Gauge().drain() == 0
    """)
    problems = check_callers.violations(tmp_path, allowlist={})
    assert len(problems) == 1
    assert flagged(problems, "pkg.extra.Gauge.drain")
    assert "src/pkg/extra.py:3" in problems[0]


def test_a_function_reached_only_through_a_reexport_is_flagged(tmp_path):
    make_tree(tmp_path)
    write(tmp_path, "src/pkg/extra.py", """
        def orphan():
            return orphan()  # a self-call is not a caller
    """)
    write(tmp_path, "src/pkg/reexport.py", """
        from .extra import orphan

        __all__ = ["orphan"]
    """)
    problems = check_callers.violations(tmp_path, allowlist={})
    assert len(problems) == 1
    assert flagged(problems, "pkg.extra.orphan has no caller")


def test_a_method_called_only_from_examples_is_flagged(tmp_path):
    make_tree(tmp_path)
    write(tmp_path, "src/pkg/extra.py", """
        class Gauge:
            def drain(self):
                return 0
    """)
    write(tmp_path, "src/pkg/use.py", """
        from .extra import Gauge

        Gauge()
    """)
    write(tmp_path, "examples/demo_drain.py", """
        from pkg.extra import Gauge

        print(Gauge().drain())
    """)
    problems = check_callers.violations(tmp_path, allowlist={})
    assert len(problems) == 1
    assert flagged(problems, "pkg.extra.Gauge.drain has no caller")


def annotated_tree(tmp_path, use):
    """The base tree, plus a ``Gauge`` class named only by ``use``."""
    make_tree(tmp_path)
    write(tmp_path, "src/pkg/extra.py", """
        class Gauge:
            pass
    """)
    write(tmp_path, "src/pkg/use.py", "from .extra import Gauge\n\n" + use)
    return check_callers.violations(tmp_path, allowlist={})


@pytest.mark.parametrize("use", [
    "def read(gauge: Gauge):\n    return gauge\n\nread(None)\n",
    "def make() -> Gauge:\n    return None\n\nmake()\n",
    "current: Gauge = None\n",
], ids=["argument", "return", "variable"])
def test_a_class_named_only_in_an_annotation_is_flagged(tmp_path, use):
    problems = annotated_tree(tmp_path, use)
    assert len(problems) == 1
    assert flagged(problems, "pkg.extra.Gauge has no caller")


def test_a_name_in_an_annotated_assignment_value_is_a_caller(tmp_path):
    assert annotated_tree(tmp_path, "current: object = Gauge()\n") == []


def test_getattr_strings_and_bench_count_as_callers(tmp_path):
    make_tree(tmp_path)
    write(tmp_path, "src/pkg/extra.py", """
        class Hooks:
            def on_tick(self):
                pass

            def on_stop(self):
                pass
    """)
    write(tmp_path, "bench/run.py", """
        from pkg.extra import Hooks

        getattr(Hooks(), "on_tick")()
    """)
    write(tmp_path, "bench/out/stale.py", "Hooks().on_stop()\n")
    problems = check_callers.violations(tmp_path, allowlist={})
    assert len(problems) == 1
    assert flagged(problems, "pkg.extra.Hooks.on_stop")


def test_an_allowlisted_member_passes(tmp_path):
    make_tree(tmp_path)
    write(tmp_path, "src/pkg/extra.py", """
        class Gauge:
            @property
            def depth(self):
                return 0
    """)
    write(tmp_path, "tools/use.py", "from pkg.extra import Gauge\nGauge()\n")
    allow = {"pkg.extra.Gauge.depth": "view: queue depth the tests read"}
    assert check_callers.violations(tmp_path, allowlist=allow) == []


def test_a_stale_allowlist_entry_is_flagged(tmp_path):
    make_tree(tmp_path)
    allow = {
        "pkg.core.Engine.run": "view: it has a caller in tools/",
        "pkg.core.Engine.gone": "view: deleted long ago",
    }
    problems = check_callers.violations(tmp_path, allowlist=allow)
    assert len(problems) == 2
    assert flagged(problems, "stale allowlist entry pkg.core.Engine.run: it has a caller")
    assert flagged(problems, "stale allowlist entry pkg.core.Engine.gone: no such member")


def test_a_reason_without_an_allowed_prefix_is_flagged(tmp_path):
    make_tree(tmp_path)
    write(tmp_path, "src/pkg/extra.py", """
        def kernel():
            return 0
    """)
    allow = {"pkg.extra.kernel": "kept because the tests like it"}
    problems = check_callers.violations(tmp_path, allowlist=allow)
    assert len(problems) == 1
    assert flagged(problems, "allowlist entry pkg.extra.kernel: reason")


def test_the_repo_allowlist_uses_only_the_three_reasons():
    for qualname, reason in check_callers.ALLOWLIST.items():
        assert reason.startswith(check_callers.REASONS), qualname


def test_main_takes_the_root_and_exits_nonzero_on_a_finding(tmp_path, capsys):
    assert check_callers.main([str(REPO_ROOT)]) == 0
    make_tree(tmp_path)
    write(tmp_path, "src/pkg/extra.py", "def orphan():\n    pass\n")
    assert check_callers.main([str(tmp_path)]) == 1
    assert "pkg.extra.orphan has no caller" in capsys.readouterr().err
