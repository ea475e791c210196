"""The headline contract, across fresh interpreters: byte-identical JSON.

Each CLI invocation below is its own subprocess, so nothing — module
counters, rng state, import order — can leak between the serial and
parallel runs.  If ``--jobs 4`` and ``--jobs 1`` produce even one
differing byte in the merged result (or in the merged span stream),
the fan-out is not deterministic and these tests fail.
"""

import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent

SWEEP_ARGS = {
    "chaos": ["sweep", "chaos", "--set", "rates=(0, 8)", "--set", "window_s=4"],
    "autoscale": ["sweep", "autoscale", "--set", "loads=(1.0,)",
                  "--set", "window_s=6"],
    "memdurability": ["sweep", "memdurability", "--set", "factors=(1, 2)",
                      "--set", "accesses=40", "--set", "window_s=5"],
    "gpu_scaling": ["sweep", "gpu_scaling", "--set", "batch_sizes=(1, 4, 16)",
                    "--set", "requests=512"],
    "manager_failover": ["sweep", "manager_failover", "--set", "standbys=(0, 1)",
                         "--set", "window_s=8"],
    "loadstorm": ["sweep", "loadstorm", "--set", "shards=(1, 2)",
                  "--set", "window_s=2", "--set", "rate_per_s=600",
                  "--set", "population=50000"],
}


def _run_cli(args, cwd):
    env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr or proc.stdout
    return proc


@pytest.mark.parametrize("name", sorted(SWEEP_ARGS))
def test_merged_json_is_byte_identical_serial_vs_parallel(name, tmp_path):
    blobs = {}
    for jobs in (1, 4):
        out = tmp_path / f"{name}-{jobs}.json"
        _run_cli([*SWEEP_ARGS[name], "--jobs", str(jobs), "--json", str(out)],
                 cwd=tmp_path)
        blobs[jobs] = out.read_bytes()
    assert blobs[1] == blobs[4], (
        f"{name}: --jobs 4 produced different JSON than --jobs 1"
    )
    assert blobs[1]  # non-vacuous: the sweep actually wrote something


def test_merged_span_stream_is_byte_identical_serial_vs_parallel(tmp_path):
    streams = {}
    for jobs in (1, 3):
        path = tmp_path / f"spans-{jobs}.jsonl"
        _run_cli([*SWEEP_ARGS["chaos"], "--jobs", str(jobs),
                  "--stream-spans", str(path)], cwd=tmp_path)
        streams[jobs] = path.read_bytes()
    assert streams[1] == streams[3]
    assert streams[1]


def test_orphaned_executors_replay_identical_span_streams(tmp_path):
    """A crash with zero standbys withdraws every node at once and
    interrupts all in-flight invocations at one instant: they must end
    in the same order in every interpreter."""
    streams = []
    for run in range(2):
        path = tmp_path / f"spans-{run}.jsonl"
        _run_cli(["sweep", "manager_failover", "--set", "standbys=(0,)",
                  "--set", "window_s=8", "--stream-spans", str(path)],
                 cwd=tmp_path)
        streams.append(path.read_bytes())
    assert streams[0] == streams[1]
    assert b'"rfaas.execution"' in streams[0]


def test_int_and_float_set_literals_give_identical_json(tmp_path):
    """Int and float ``--set`` literals name the same plan: the JSON is
    byte-identical whichever spelling (and jobs count) produced it."""
    ints = tmp_path / "ints.json"
    floats = tmp_path / "floats.json"
    _run_cli([*SWEEP_ARGS["chaos"], "--jobs", "1", "--json", str(ints)],
             cwd=tmp_path)
    _run_cli(["sweep", "chaos", "--set", "rates=(0.0, 8.0)",
              "--set", "window_s=4.0", "--jobs", "2", "--json", str(floats)],
             cwd=tmp_path)
    assert ints.read_bytes() == floats.read_bytes()
