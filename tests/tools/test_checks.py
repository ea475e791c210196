"""The unified ``tools.checks`` entry point: registry, run semantics,
and the CLI exit-code contract CI depends on."""

import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT))

from tools import checks  # noqa: E402


def test_registry_contains_every_repo_lint():
    assert set(checks.CHECKS) == {"callers", "metric-names", "public-api", "sweeps"}
    for fn in checks.CHECKS.values():
        assert callable(fn)


def test_run_executes_a_single_check():
    assert checks.run("callers") == []
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

    assert checks.main(["--list"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "callers", "metric-names", "public-api", "sweeps",
    ]

    assert checks.main(["bogus"]) == 2
    assert "bogus" in capsys.readouterr().err

    # A failing check drives exit code 1 and prints its violations.
    monkeypatch.setitem(checks.CHECKS, "metric-names", lambda: ["bad name"])
    assert checks.main(["metric-names"]) == 1
    captured = capsys.readouterr()
    assert "1 violation(s)" in captured.out
    assert "bad name" in captured.err
