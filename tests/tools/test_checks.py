"""The unified ``tools.checks`` entry point: registry, run semantics,
and the CLI exit-code contract CI depends on."""

import pathlib
import sys
import textwrap

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT))

from tools import check_loops, check_sweeps, checks  # noqa: E402


def test_registry_contains_every_repo_lint():
    assert set(checks.CHECKS) == {"callers", "loops", "metric-names",
                                  "public-api", "sweeps"}
    for fn in checks.CHECKS.values():
        assert callable(fn)


def test_run_executes_a_single_check():
    assert checks.run("callers") == []
    assert checks.run("loops") == []
    assert checks.run("metric-names") == []
    assert checks.run("public-api") == []
    assert checks.run("sweeps") == []


def test_run_unknown_check_raises_with_registered_names():
    with pytest.raises(KeyError) as excinfo:
        checks.run("no-such-check")
    message = excinfo.value.args[0]
    assert "no-such-check" in message
    assert "metric-names" in message and "public-api" in message


def test_run_all_defaults_to_every_check_sorted():
    results = checks.run_all()
    assert list(results) == sorted(checks.CHECKS)
    assert all(problems == [] for problems in results.values())


def test_run_all_honors_an_explicit_selection():
    results = checks.run_all(["public-api"])
    assert list(results) == ["public-api"]


def test_main_exit_codes(capsys, monkeypatch):
    assert checks.main([]) == 0
    out = capsys.readouterr().out
    assert "metric-names: ok" in out and "public-api: ok" in out
    assert "sweeps: ok" in out and "callers: ok" in out
    assert "loops: ok" in out

    assert checks.main(["--list"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "callers", "loops", "metric-names", "public-api", "sweeps",
    ]

    assert checks.main(["bogus"]) == 2
    assert "bogus" in capsys.readouterr().err

    # A failing check drives exit code 1 and prints its violations.
    monkeypatch.setitem(checks.CHECKS, "metric-names", lambda: ["bad name"])
    assert checks.main(["metric-names"]) == 1
    captured = capsys.readouterr()
    assert "1 violation(s)" in captured.out
    assert "bad name" in captured.err


def _loops_in(tmp_path, source):
    path = tmp_path / "src" / "pkg" / "loops.py"
    path.parent.mkdir(parents=True)
    path.write_text(textwrap.dedent(source))
    return check_loops.violations(tmp_path)


def test_loops_flags_endless_loops_that_wait_on_live_entries(tmp_path):
    problems = _loops_in(tmp_path, """
        def heartbeat(env):
            while True:
                yield env.timeout(1.0)

        def poll(env, items):
            while True:
                for item in items:
                    if item:
                        break  # ends the for, not the while
                yield env.timer(1.0, print)
    """)
    assert [p.split(": ", 1)[0] for p in problems] == [
        "src/pkg/loops.py:3", "src/pkg/loops.py:7",
    ]
    assert ".timeout(...)" in problems[0] and ".timer(...)" in problems[1]


def test_loops_passes_ticking_and_ending_loops(tmp_path):
    assert _loops_in(tmp_path, """
        def heartbeat(env):
            while True:
                yield env.tick(1.0)

        def retry(env, attempt):
            while True:
                if (yield env.timeout(1.0)):
                    break

        def wait_for(env, ready):
            while True:
                for _ in range(3):
                    if ready():
                        return
                yield env.timeout(1.0)

        def spawner(env):
            while True:
                def child():
                    yield env.timeout(1.0)
                    return
                yield env.tick(1.0)
    """) == []


class _Opaque:
    """Pickles, but compares by identity: no round trip is equal."""


def _no_point(params, seed):
    return {}


def _sweep_of(params):
    from repro.experiments.base import ScenarioSpec, Sweep, SweepPlan

    spec = ScenarioSpec(fn=_no_point, params=params, seed=0, label="only")
    return Sweep(name="demo", description="", point_type=dict, columns=(),
                 plan=lambda: SweepPlan(scenarios=(spec,)), title="", footer="")


def test_sweeps_flags_params_that_round_trip_unequal(monkeypatch):
    from repro.experiments import base

    monkeypatch.setattr(base, "registered_sweeps",
                        lambda: {"demo": _sweep_of({"config": _Opaque()})})
    assert checks.run("sweeps") == [
        "sweep 'demo': scenario 'only' params are not equal after a pickle "
        "round trip (a worker would not replay the planned scenario)"
    ]
    monkeypatch.setattr(base, "registered_sweeps",
                        lambda: {"demo": _sweep_of({"config": (1, "a")})})
    assert checks.run("sweeps") == []


def test_sweeps_flags_a_hand_rolled_driver(tmp_path):
    """A driver generator started as a process fails the check; the
    same call in an allowed function (the chaos pager) passes."""
    (tmp_path / "chaos_sweep.py").write_text(textwrap.dedent("""
        def _invocation_stream(env, client, outcomes, window_s):
            while env.now < window_s:
                outcomes.append((yield client.invoke_detailed("noop")))

        def scenario(platform, client, outcomes):
            platform.process(_invocation_stream(platform.env, client,
                                                outcomes, 30.0))

        def start_pager(platform, pager):
            platform.process(_paging_stream(platform.env, pager))
    """))
    assert check_sweeps.process_violations(tmp_path) == [
        "chaos_sweep.py:7: chaos_sweep.scenario starts a process; drive load "
        "with repro.loadgen.open_loop/closed_loop (or allow it in "
        "PROCESS_ALLOWED with a reason)"
    ]
    assert check_sweeps.process_violations() == []
