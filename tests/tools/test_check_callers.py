"""The callers check: every ``src`` member has a caller outside tests/
and examples/, or an allowlist entry with a ``view:``/``reference:``/
``paper:`` reason.  A type annotation is not a caller.  Every config
field has a setter there too, and every defaulted parameter a call
that passes it, or a knob entry with a ``paper:``, ``certify:`` or
``deploy:`` reason."""

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
    assert check_callers.violations(tmp_path, allowlist={}, knobs={}) == []


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
    problems = check_callers.violations(tmp_path, allowlist={}, knobs={})
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
    problems = check_callers.violations(tmp_path, allowlist={}, knobs={})
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
    problems = check_callers.violations(tmp_path, allowlist={}, knobs={})
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
    return check_callers.violations(tmp_path, allowlist={}, knobs={})


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
    problems = check_callers.violations(tmp_path, allowlist={}, knobs={})
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
    assert check_callers.violations(tmp_path, allowlist=allow, knobs={}) == []


def test_a_stale_allowlist_entry_is_flagged(tmp_path):
    make_tree(tmp_path)
    allow = {
        "pkg.core.Engine.run": "view: it has a caller in tools/",
        "pkg.core.Engine.gone": "view: deleted long ago",
    }
    problems = check_callers.violations(tmp_path, allowlist=allow, knobs={})
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
    problems = check_callers.violations(tmp_path, allowlist=allow, knobs={})
    assert len(problems) == 1
    assert flagged(problems, "allowlist entry pkg.extra.kernel: reason")


def test_the_repo_allowlist_uses_only_the_three_reasons():
    for qualname, reason in check_callers.ALLOWLIST.items():
        assert reason.startswith(check_callers.REASONS), qualname


def config_tree(tmp_path, use, test_use=""):
    """The base tree, plus a config class whose fields only ``use`` sets."""
    make_tree(tmp_path)
    write(tmp_path, "src/pkg/config.py", """
        from dataclasses import dataclass
        from typing import ClassVar


        @dataclass(frozen=True)
        class PoolConfig:
            size: int = 1
            depth: int = 2
            unit: ClassVar[str] = "slots"


        @dataclass
        class PoolState:
            free: int = 0


        def build(config):
            return config or PoolConfig(), PoolState()
    """)
    write(tmp_path, "tools/use_config.py",
          "from pkg.config import PoolConfig, build\n\n" + use)
    if test_use:
        write(tmp_path, "tests/test_config.py",
              "from pkg.config import PoolConfig\n\n" + test_use)


def knob_problems(tmp_path, use, test_use="", knobs=None):
    config_tree(tmp_path, use, test_use)
    return check_callers.violations(tmp_path, allowlist={}, knobs=knobs or {})


def test_a_field_set_only_under_tests_is_flagged(tmp_path):
    problems = knob_problems(tmp_path, "build(None)\n",
                             test_use="PoolConfig(size=3, depth=4)\n")
    assert len(problems) == 2
    assert flagged(problems, "pkg.config.PoolConfig.size is set by no call")
    assert flagged(problems, "pkg.config.PoolConfig.depth is set by no call")
    assert "src/pkg/config.py:7" in problems[0]


@pytest.mark.parametrize("use", [
    "build(PoolConfig(3, depth=4))\n",
    "build(PoolConfig(**{'size': 3}))\n",
    "from dataclasses import replace as swap\n\n"
    "build(swap(PoolConfig(), size=3, depth=4))\n",
    "import dataclasses\n\n"
    "build(dataclasses.replace(PoolConfig(), size=3, depth=4))\n",
], ids=["position-and-keyword", "splat", "replace", "dataclasses-replace"])
def test_calls_splats_and_replace_keywords_set_fields(tmp_path, use):
    assert knob_problems(tmp_path, use) == []


def test_a_method_named_replace_does_not_set_fields(tmp_path):
    problems = knob_problems(
        tmp_path, "build(PoolConfig(size=3))\n'x'.replace(depth=4)\n")
    assert len(problems) == 1
    assert flagged(problems, "pkg.config.PoolConfig.depth is set by no call")


def test_a_class_level_knob_entry_covers_its_fields(tmp_path):
    knobs = {"pkg.config.PoolConfig": "paper: a component waiting for its sweep"}
    assert knob_problems(tmp_path, "build(None)\n", knobs=knobs) == []


def test_a_field_level_knob_entry_covers_only_its_field(tmp_path):
    knobs = {"pkg.config.PoolConfig.size": "certify: a value certify draws"}
    problems = knob_problems(tmp_path, "build(None)\n", knobs=knobs)
    assert len(problems) == 1
    assert flagged(problems, "pkg.config.PoolConfig.depth is set by no call")


def test_a_stale_knob_entry_is_flagged(tmp_path):
    knobs = {
        "pkg.config.PoolConfig.size": "certify: set by a sweep now",
        "pkg.config.PoolConfig.gone": "paper: deleted long ago",
        "pkg.config.PoolState": "paper: not a config class",
    }
    problems = knob_problems(tmp_path, "build(PoolConfig(size=3, depth=4))\n",
                             knobs=knobs)
    assert len(problems) == 3
    assert flagged(problems, "stale knob entry pkg.config.PoolConfig.size: it is set")
    assert flagged(problems, "stale knob entry pkg.config.PoolConfig.gone: no such")
    assert flagged(problems, "stale knob entry pkg.config.PoolState: no such")


def test_a_class_level_knob_entry_is_stale_once_every_field_is_set(tmp_path):
    knobs = {"pkg.config.PoolConfig": "paper: waiting for its sweep"}
    problems = knob_problems(tmp_path, "build(PoolConfig(3, 4))\n", knobs=knobs)
    assert problems == [
        "stale knob entry pkg.config.PoolConfig: it is set now"]


def test_a_knob_reason_without_an_allowed_prefix_is_flagged(tmp_path):
    knobs = {"pkg.config.PoolConfig": "kept because the tests set it"}
    problems = knob_problems(tmp_path, "build(None)\n", knobs=knobs)
    assert len(problems) == 1
    assert flagged(problems, "knob entry pkg.config.PoolConfig: reason")


def test_the_repo_knobs_use_only_the_knob_reasons():
    for entry, reason in check_callers.KNOBS.items():
        assert reason.startswith(check_callers.KNOB_REASONS), entry


def param_tree(tmp_path, use, extra="", test_use=""):
    """The base tree, plus defaulted parameters only ``use`` passes."""
    make_tree(tmp_path)
    write(tmp_path, "src/pkg/params.py", textwrap.dedent("""
        class Pool:
            def __init__(self, size=1):
                self.size = size

            def resize(self, size, grow=False):
                return size, grow


        def spawn(count=1):
            return [Pool() for _ in range(count)]
    """) + textwrap.dedent(extra))
    write(tmp_path, "tools/use_params.py",
          "from pkg.params import *  # noqa: F403\n\n" + use)
    if test_use:
        write(tmp_path, "tests/test_params.py",
              "from pkg.params import Pool, spawn\n\n" + test_use)


def param_problems(tmp_path, use, extra="", test_use="", allowlist=None,
                   knobs=None):
    param_tree(tmp_path, use, extra, test_use)
    return check_callers.violations(tmp_path, allowlist=allowlist or {},
                                    knobs=knobs or {})


PASS_ALL = "Pool(size=2).resize(2, grow=True)\nspawn(count=3)\n"


def test_a_parameter_passed_only_from_tests_is_flagged(tmp_path):
    problems = param_problems(
        tmp_path, "spawn()\nPool().resize(2)\n",
        test_use="spawn(count=2)\nPool(size=3).resize(1, grow=True)\n")
    assert len(problems) == 3
    assert flagged(problems, "pkg.params.Pool.__init__.size is passed by no call")
    assert flagged(problems, "pkg.params.Pool.resize.grow is passed by no call")
    assert flagged(problems, "pkg.params.spawn.count is passed by no call")
    assert "src/pkg/params.py:3" in problems[0]


@pytest.mark.parametrize("extra, use", [
    ("", PASS_ALL),
    ("", "Pool(2).resize(2, True)\nspawn(3)\n"),
    ("", "args, kwargs = (), {}\nPool(*args).resize(**kwargs)\nspawn(*args)\n"),
    ("""
        class Bucket:
            def __init__(self, size=1):
                self.size = size

            @classmethod
            def large(cls):
                return cls(size=64)
     """, PASS_ALL + "Bucket.large()\n"),
    ("""
        class Big(Pool):
            def __init__(self):
                super().__init__(size=8)
     """, "Big().resize(2, grow=True)\nspawn(count=3)\n"),
], ids=["keyword", "position-after-self", "splat", "cls-call", "super-init"])
def test_keywords_positions_splats_cls_and_super_pass_parameters(
        tmp_path, extra, use):
    assert param_problems(tmp_path, use, extra) == []


def test_an_underscore_parameter_is_skipped(tmp_path):
    extra = """
        def flush(_timer=None):
            return _timer
    """
    assert param_problems(tmp_path, PASS_ALL + "flush()\n", extra) == []


def test_an_allowlisted_members_parameters_are_skipped(tmp_path):
    extra = """
        def harvest(depth=1):
            return depth
    """
    assert flagged(param_problems(tmp_path, PASS_ALL, extra),
                   "pkg.params.harvest.depth is passed by no call")
    allow = {"pkg.params.harvest": "paper: a component waiting for its sweep"}
    assert param_problems(tmp_path, PASS_ALL, extra, allowlist=allow) == []


def test_a_stale_parameter_entry_is_flagged(tmp_path):
    knobs = {
        "pkg.params.spawn.count": "deploy: passed by a caller now",
        "pkg.params.spawn.gone": "paper: deleted long ago",
    }
    problems = param_problems(tmp_path, PASS_ALL, knobs=knobs)
    assert len(problems) == 2
    assert flagged(problems, "stale knob entry pkg.params.spawn.count: it is passed")
    assert flagged(problems, "stale knob entry pkg.params.spawn.gone: no such")


def test_a_deploy_reason_keeps_a_parameter(tmp_path):
    use = "Pool(size=2).resize(2, grow=True)\nspawn()\n"
    knobs = {"pkg.params.spawn.count": "deploy: the operator's pool count"}
    assert param_problems(tmp_path, use, knobs=knobs) == []
    knobs = {"pkg.params.spawn.count": "kept because the tests pass it"}
    problems = param_problems(tmp_path, use, knobs=knobs)
    assert problems == [
        f"knob entry pkg.params.spawn.count: reason {knobs['pkg.params.spawn.count']!r} "
        f"does not start with {', '.join(check_callers.KNOB_REASONS)}"]


#: What the three scans covered when the parameter rule landed; a
#: scanner that silently stops matching drops far below it.
SCAN_FLOOR = {"members": 976, "fields": 57, "parameters": 351}


def test_the_repo_scans_cover_what_they_did():
    size = check_callers.scan_size(REPO_ROOT)
    for scan, floor in SCAN_FLOOR.items():
        assert size[scan] >= 0.9 * floor, (scan, size[scan])


def test_main_takes_the_root_and_exits_nonzero_on_a_finding(tmp_path, capsys):
    assert check_callers.main([str(REPO_ROOT)]) == 0
    make_tree(tmp_path)
    write(tmp_path, "src/pkg/extra.py", "def orphan():\n    pass\n")
    assert check_callers.main([str(tmp_path)]) == 1
    assert "pkg.extra.orphan has no caller" in capsys.readouterr().err
