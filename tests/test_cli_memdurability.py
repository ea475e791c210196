"""``repro sweep memdurability`` and chaos with ``memservice=True``."""

import json

import pytest

from repro.cli import main


MEMDUR = ["sweep", "memdurability", "--set", "window_s=8", "--set", "accesses=80"]


def collect():
    lines = []
    return lines, lambda text: lines.append(text)


def test_memdurability_sweep_runs():
    lines, out = collect()
    assert main([*MEMDUR, "--set", "factors=(1, 2)"], out=out) == 0
    text = "\n".join(lines)
    assert "Memory durability" in text
    assert "k=1" in text and "k=2" in text
    assert "memdurability completed in" in text


def test_memdurability_writes_json(tmp_path):
    out_path = tmp_path / "sweep.json"
    lines, out = collect()
    code = main([*MEMDUR, "--set", "factors=(1, 2)", "--json", str(out_path)],
                out=out)
    assert code == 0
    blob = json.loads(out_path.read_text())
    assert blob["window_s"] == 8.0
    assert [p["replication"] for p in blob["points"]] == [1, 2]
    assert str(out_path) in "\n".join(lines)


def test_memdurability_rejects_malformed_factors():
    with pytest.raises(SystemExit):
        main(["sweep", "memdurability", "--set", "factors=one,two"],
             out=lambda s: None)


def test_memdurability_listed_as_experiment():
    lines, out = collect()
    assert main(["list"], out=out) == 0
    assert any("memdurability" in line for line in lines)


def test_memdurability_metrics_export(tmp_path):
    metrics = tmp_path / "metrics.txt"
    lines, out = collect()
    code = main([*MEMDUR, "--set", "factors=(2,)", "--metrics-out", str(metrics)],
                out=out)
    assert code == 0
    text = metrics.read_text()
    assert "repro_memservice_replicas_lost_total" in text
    assert "repro_memservice_failovers_total" in text


def test_chaos_memservice_flag():
    lines, out = collect()
    assert main(["sweep", "chaos", "--set", "rates=(0,)", "--set", "window_s=5",
                 "--set", "memservice=True"], out=out) == 0
    assert "Chaos sweep" in "\n".join(lines)
