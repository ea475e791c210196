"""The fault subsystem's determinism contract (ISSUE tentpole requirement).

Same seed + same plan ⇒ the same faults hit the same victims at the same
instants, and the whole chaos run replays *byte-identically* through the
span exporter.
"""

import os
import pathlib
import subprocess
import sys

from repro.faults import FaultPlan

from .conftest import build_platform

REPO_SRC = pathlib.Path(__file__).resolve().parent.parent.parent / "src"

# Entity ids (spans, containers, invocations, leases) are process-global
# counters, so the byte-identical claim holds per interpreter run — the
# same claim the CLI makes.  Each run therefore gets a fresh process.
_CHAOS_EXPORT = """
import sys
from repro.sweep import run_sweep
from repro.telemetry import TelemetryCollector, write_spans_jsonl
collector = TelemetryCollector()
with collector:
    run_sweep("chaos", rates=(8.0,), window_s=8.0, seed=3)
write_spans_jsonl(collector.spans, sys.argv[1])
"""


def _chaos_span_bytes(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, "-c", _CHAOS_EXPORT, str(path)],
        check=True, env=env, timeout=120,
    )
    return path.read_bytes()


def test_same_seed_chaos_run_exports_byte_identical_spans(tmp_path):
    first = _chaos_span_bytes(tmp_path / "a.jsonl")
    second = _chaos_span_bytes(tmp_path / "b.jsonl")
    assert len(first) > 0
    assert first == second


def test_injector_schedule_replays_exactly():
    plan = (FaultPlan(name="mix")
            .lease_storm(at_s=0.5, count=2)
            .node_crash(at_s=1.0, duration_s=1.0, immediate=True)
            .straggler(at_s=2.0, duration_s=0.5, multiplier=10.0))

    def one_run():
        platform = build_platform(plan=FaultPlan.from_json(plan.to_json()),
                                  seed=11, runtime_s=0.02)
        client = platform.client("n0000")
        latencies = []

        def driver():
            while platform.env.now < 4.0:
                result = yield client.invoke("noop", payload_bytes=64)
                latencies.append((result.ok, platform.env.now))

        platform.process(driver())
        platform.run()
        return platform.injector.injected, latencies

    assert one_run() == one_run()
