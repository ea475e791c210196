"""The capacity plane's determinism contract (ISSUE acceptance criterion).

Same seed ⇒ byte-identical sweep JSON across *fresh interpreters* —
including under a FaultPlan node-crash scenario, where the autoscaler's
re-provisioning races recovering traffic.
"""

import os
import pathlib
import subprocess
import sys

REPO_SRC = pathlib.Path(__file__).resolve().parent.parent.parent / "src"

# Each run gets a fresh process, like the CLI, so the byte-identical
# claim is checked across interpreters, not only within one.
_SWEEP_EXPORT = """
import sys
from repro.sweep import run_sweep
crash = sys.argv[2] == "crash"
result = run_sweep("autoscale", loads=(4.0,), window_s=8.0, seed=7, crash=crash)
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    fh.write(result.to_json())
"""


def _sweep_bytes(path, crash):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, "-c", _SWEEP_EXPORT, str(path),
         "crash" if crash else "calm"],
        check=True, env=env, timeout=240,
    )
    return path.read_bytes()


def test_same_seed_sweep_is_byte_identical(tmp_path):
    first = _sweep_bytes(tmp_path / "a.json", crash=False)
    second = _sweep_bytes(tmp_path / "b.json", crash=False)
    assert len(first) > 0
    assert first == second


def test_same_seed_sweep_is_byte_identical_under_crash_storm(tmp_path):
    first = _sweep_bytes(tmp_path / "a.json", crash=True)
    second = _sweep_bytes(tmp_path / "b.json", crash=True)
    assert b'"faults_injected": 0' not in first  # the storm really ran
    assert first == second
