"""The ``repro sweep`` command: overrides, ``--jobs``, exports, errors."""

import json

import pytest

from repro.cli import main
from repro.sweep import sweep_names


CHAOS = ["sweep", "chaos", "--set", "rates=(0, 8)", "--set", "window_s=4"]


def collect():
    lines = []
    return lines, lambda text: lines.append(text)


def test_sweep_list_enumerates_the_registry():
    lines, out = collect()
    assert main(["sweep", "list"], out=out) == 0
    text = "\n".join(lines)
    for name in sweep_names():
        assert name in text


def test_sweep_runs_a_registered_sweep_with_overrides(tmp_path):
    blob = tmp_path / "result.json"
    lines, out = collect()
    code = main(["sweep", "chaos", "--set", "rates=(0.0, 8.0)",
                 "--set", "window_s=4.0", "--json", str(blob)], out=out)
    assert code == 0
    text = "\n".join(lines)
    assert "rate-0" in text and "rate-8" in text
    assert "chaos completed in" in text
    data = json.loads(blob.read_text())
    assert [p["label"] for p in data["points"]] == ["rate-0", "rate-8"]


def test_sweep_rejects_unknown_names():
    with pytest.raises(SystemExit):
        main(["sweep", "no-such-sweep"], out=lambda s: None)


def test_sweep_rejects_bad_overrides():
    with pytest.raises(SystemExit):
        main(["sweep", "chaos", "--set", "not-a-pair"], out=lambda s: None)


def test_unknown_key_exits_2_naming_the_accepted_parameters(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "chaos", "--set", "bogus=1"], out=lambda s: None)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "repro: error: sweep 'chaos'" in err and "bogus" in err
    assert "rates, window_s, seed" in err


def test_invalid_value_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "loadstorm", "--set", "window_s=0"], out=lambda s: None)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "repro: error: sweep 'loadstorm': window_s must be positive" in err
    assert "shards, window_s, rate_per_s" in err


@pytest.mark.parametrize("name, override, message", [
    ("loadstorm", "shards=(0,)", "shard counts must be >= 1"),
    ("gpu_scaling", "batch_sizes=(0,)", "batch sizes must be >= 1"),
    ("manager_failover", "standbys=(-1,)", "standby counts must be >= 0"),
    ("memdurability", "factors=(0,)", "replication factors must be >= 1"),
])
def test_out_of_range_list_element_exits_2(capsys, name, override, message):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", name, "--set", override, "--jobs", "2"],
             out=lambda s: None)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"repro: error: sweep '{name}': {message} (parameters: " in err


@pytest.mark.parametrize("name, override", [
    ("loadstorm", "shards=()"),
    ("chaos", "rates=()"),
    ("autoscale", "loads=()"),
])
def test_empty_sweep_list_exits_2(capsys, name, override):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", name, "--set", override], out=lambda s: None)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"repro: error: sweep '{name}': the sweep plans no scenarios" in err


def test_jobs_flag_reports_the_fan_out():
    lines, out = collect()
    code = main([*CHAOS, "--jobs", "2"], out=out)
    assert code == 0
    assert "with 2 jobs" in "\n".join(lines)


def test_jobs_must_be_positive():
    with pytest.raises(SystemExit):
        main([*CHAOS, "--jobs", "0"], out=lambda s: None)


@pytest.mark.parametrize("export_flag", ["--trace", "--metrics-out"])
def test_batch_exporters_require_serial_execution(tmp_path, export_flag):
    """A batch export at --jobs 2 is byte-identical to the serial run's.

    --trace and --metrics-out are built from the per-scenario span streams,
    so fanning the scenarios out must not change a byte of either file.
    """
    blobs = {}
    for jobs in ("1", "2"):
        path = tmp_path / f"export-{jobs}.out"
        code = main([*CHAOS, "--jobs", jobs, export_flag, str(path)],
                    out=lambda s: None)
        assert code == 0
        blobs[jobs] = path.read_bytes()
    assert blobs["1"] == blobs["2"]
    assert blobs["1"]
    if export_flag == "--metrics-out":
        assert b'scope="sim1"' in blobs["1"]


def test_stream_spans_works_with_parallel_jobs(tmp_path):
    stream = tmp_path / "spans.jsonl"
    lines, out = collect()
    code = main([*CHAOS, "--jobs", "2", "--stream-spans", str(stream)],
                out=out)
    assert code == 0
    text = "\n".join(lines)
    count = len(stream.read_text().splitlines())
    assert f"[stream: {count} spans -> {stream}]" in text
    assert count > 0


def test_parallel_json_matches_serial_json(tmp_path):
    blobs = {}
    for jobs in ("1", "3"):
        path = tmp_path / f"mem-{jobs}.json"
        code = main(["sweep", "memdurability", "--set", "factors=(1, 2)",
                     "--set", "accesses=40", "--set", "window_s=5",
                     "--jobs", jobs, "--json", str(path)], out=lambda s: None)
        assert code == 0
        blobs[jobs] = path.read_bytes()
    assert blobs["1"] == blobs["3"]
