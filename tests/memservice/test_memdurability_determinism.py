"""The durable memory service's determinism contract (ISSUE acceptance).

Same seed ⇒ byte-identical memdurability JSON across *fresh
interpreters*: the paging trace is pre-generated from the seed, the
storm is an explicit plan, placement/repair draw no randomness, and the
fabric runs with ``jitter=0.0``.
"""

import json
import os
import pathlib
import subprocess
import sys

REPO_SRC = pathlib.Path(__file__).resolve().parent.parent.parent / "src"

_SWEEP_EXPORT = """
import sys
from repro.sweep import run_sweep
result = run_sweep("memdurability", factors=(1, 2), window_s=8.0, seed=7,
                   accesses=120)
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    fh.write(result.to_json())
"""


def _sweep_bytes(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, "-c", _SWEEP_EXPORT, str(path)],
        check=True, env=env, timeout=240,
    )
    return path.read_bytes()


def test_same_seed_sweep_is_byte_identical(tmp_path):
    first = _sweep_bytes(tmp_path / "a.json")
    second = _sweep_bytes(tmp_path / "b.json")
    assert len(first) > 0
    assert first == second
    # The storm really ran, and durability really divided the factors.
    points = {p["replication"]: p for p in json.loads(first)["points"]}
    assert points[1]["faults_injected"] >= 3
    assert points[1]["data_loss_accesses"] > 0
    assert points[2]["data_loss_accesses"] == 0
    assert points[2]["replicas_lost"] > 0  # survived hits, not a calm run
