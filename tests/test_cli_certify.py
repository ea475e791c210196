"""``repro certify`` and ``repro sweep manager_failover``."""

import json

import pytest

from repro.cli import main
from repro.experiments import certify_sweep


def collect():
    lines = []
    return lines, lambda text: lines.append(text)


def test_certify_runs_and_passes():
    lines, out = collect()
    assert main(["certify", "--budget", "2", "--window", "5"], out=out) == 0
    text = "\n".join(lines)
    assert "Chaos certification" in text
    assert "certify-0" in text and "certify-1" in text
    assert "all invariants held" in text
    assert "certify completed in" in text


def test_certify_writes_json(tmp_path):
    path = tmp_path / "certify.json"
    lines, out = collect()
    code = main(["certify", "--budget", "1", "--window", "5",
                 "--json", str(path)], out=out)
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["budget"] == 1
    assert len(payload["points"]) == 1
    assert not any(problems for point in payload["points"]
                   for problems in point["invariants"].values())


def test_certify_exits_1_and_names_each_violation(monkeypatch):
    def lying_plane(controlplane, started, outcomes):
        return {"conservation": ["conservation: 1 invocation vanished"]}

    monkeypatch.setattr(certify_sweep, "run_invariants", lying_plane)
    lines, out = collect()
    assert main(["certify", "--budget", "1", "--window", "3"], out=out) == 1
    text = "\n".join(lines)
    assert "1 VIOLATION(S)" in text
    assert "certify-0: [conservation] conservation: 1 invocation vanished" in text
    assert "all invariants held" not in text


def test_certify_rejects_a_nonpositive_budget():
    with pytest.raises(SystemExit):
        main(["certify", "--budget", "0"], out=lambda s: None)


@pytest.mark.parametrize("window", ["0", "-3"])
def test_certify_rejects_a_nonpositive_window(capsys, window):
    with pytest.raises(SystemExit) as excinfo:
        main(["certify", "--budget", "1", "--window", window],
             out=lambda s: None)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "repro: error: certify: window_s must be positive" in err


def test_certify_rejects_zero_events(capsys):
    """A schedule with no faults is a usage error, not a verdict (exit 1)."""
    with pytest.raises(SystemExit) as excinfo:
        main(["certify", "--events", "0"], out=lambda s: None)
    assert excinfo.value.code == 2
    assert "repro: error: certify: events must be >= 1" in capsys.readouterr().err


def test_certify_zero_standbys_still_certifies():
    """k=0 loses work; it does not violate invariants — loss is honest."""
    lines, out = collect()
    assert main(["certify", "--budget", "1", "--standbys", "0",
                 "--window", "5"], out=out) == 0


def test_managerha_sweep_runs():
    lines, out = collect()
    code = main(["sweep", "manager_failover", "--set", "standbys=(0, 1)",
                 "--set", "window_s=8"], out=out)
    assert code == 0
    text = "\n".join(lines)
    assert "Manager failover" in text
    assert "k=0" in text and "k=1" in text
    assert "manager_failover completed in" in text


def test_managerha_rejects_malformed_standbys():
    with pytest.raises(SystemExit):
        main(["sweep", "manager_failover", "--set", "standbys=some,none"],
             out=lambda s: None)


def test_manager_failover_listed_as_experiment():
    lines, out = collect()
    assert main(["list"], out=out) == 0
    assert any("manager_failover" in line for line in lines)
