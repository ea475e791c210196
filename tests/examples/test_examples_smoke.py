"""Smoke tests: every example script runs to completion.

Examples are documentation that executes; these tests keep them honest.
Each runs in a subprocess exactly as a user would invoke it.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, timeout: float = 240.0) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=timeout,
    )
    assert result.returncode == 0, f"{name} failed:\n{result.stderr[-2000:]}"
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "cold start" in out
    assert "attached start" in out


def test_memory_service():
    out = run_example("memory_service.py")
    assert "hit rate" in out


def test_gpu_sharing():
    out = run_example("gpu_sharing.py")
    assert "Fig. 12" in out
    assert "9/12-core request discount: 25%" in out


def test_colocation_policy():
    out = run_example("colocation_policy.py")
    assert "history_reject" in out
    assert "decided by history" in out


def test_idle_node_harvest():
    out = run_example("idle_node_harvest.py")
    assert "function invocations served" in out
    assert "batch jobs completed" in out


@pytest.mark.slow
def test_blackscholes_offload():
    out = run_example("blackscholes_offload.py")
    assert "identical prices" in out
    assert "Eq. 1 calibration" in out
