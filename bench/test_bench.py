"""Self-tests of the benchmark: ``python -m pytest bench -q``."""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import worker
from layertrace import DRIVER, LayerTracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

TINY = {
    "storm": {"window_s": 0.5},
    "chaos": {"window_s": 10.0},
    "gpu": {"requests": 200},
}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_matches_untraced_and_accounts_for_its_wall(workload, tmp_path):
    plain = run.run_worker(workload, 0, False, overrides=TINY[workload])
    spans = tmp_path / "spans.jsonl"
    traced = run.run_worker(workload, 0, True, overrides=TINY[workload], spans=spans)
    assert "error" not in plain and "error" not in traced, (plain, traced)
    assert plain["violations"] == traced["violations"] == []
    assert traced["digest"] == plain["digest"]
    assert sum(traced["self_s"].values()) == pytest.approx(traced["wall_s"], rel=0.01)
    assert traced["calls"]["sim"] > 0 and traced["events"] > 0
    first = json.loads(spans.read_text().splitlines()[0])
    assert set(first) == {"id", "name", "start", "end", "parent", "request"}
    assert first["request"] % 100 == 0


def test_same_layer_call_opens_no_span():
    tracer = LayerTracer()
    inner = tracer.wrap(lambda: "shard result", "shard", "shard.inner")
    middle = tracer.wrap(lambda: inner(), "capacity", "capacity.middle")
    outer = tracer.wrap(lambda: middle(), "capacity", "capacity.outer")
    tracer.start()
    assert outer() == "shard result"
    wall = tracer.stop()
    assert tracer.calls["capacity"] == 1
    assert tracer.calls["shard"] == 1
    assert dict(tracer.span_counts) == {"capacity.outer": 1, "shard.inner": 1}
    assert sum(tracer.self_s.values()) == pytest.approx(wall, abs=1e-9)


def test_generator_is_timed_across_resumes_and_a_thrown_exception():
    pause = 0.02

    def body():
        time.sleep(pause)
        try:
            yield "first"
        except ValueError:
            time.sleep(pause)  # runs inside the throw() resume
        yield "second"
        time.sleep(pause)
        return "done"

    tracer = LayerTracer()
    public = tracer.wrap(body, "shard", "shard.body")

    def caller():  # a driver-layer process body delegating to the layer
        result = yield from public()
        return result

    tracer.start()
    gen = tracer.timed_generator(caller(), DRIVER, "driver.caller")
    assert next(gen) == "first"
    assert gen.throw(ValueError("storm")) == "second"
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    wall = tracer.stop()
    assert stop.value.value == "done"
    assert tracer.calls["shard"] == 3
    assert tracer.self_s["shard"] >= 3 * pause
    assert sum(tracer.self_s.values()) == pytest.approx(wall, abs=1e-9)

    failing = public()
    tracer.start()
    next(failing)
    with pytest.raises(KeyError):
        failing.throw(KeyError("unhandled"))
    tracer.stop()
    assert tracer.calls["shard"] == 5


def _copy_benchmark(tmp_path: Path, with_program: bool) -> Path:
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    if with_program:
        (tmp_path / "src").symlink_to(run.ROOT / "src")
    return tmp_path


def test_corrupted_digest_fails_the_run(tmp_path):
    root = _copy_benchmark(tmp_path, with_program=True)
    (root / "bench" / "golden.json").write_text(json.dumps({"gpu": {"0": ["0" * 64]}}))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gpu", "--repeats", "1"],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 1, 1)
    results = json.loads((root / "bench" / "out" / "results.json").read_text())
    assert results["workloads"]["gpu"]["error_rate"] == 1.0


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    root = _copy_benchmark(tmp_path, with_program=False)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gpu", "--seed", "0",
         "--seconds", "5", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_names_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    workloads = [w["name"] for w in SPEC["workloads"]]
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    layered = [m["name"] for m in SPEC["per_layer"]]
    assert 2 <= len(workloads) <= 8 and 1 <= len(e2e) <= 16 and 1 <= len(layered) <= 128
    names = workloads + e2e + layered
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert sorted(workloads) == sorted(worker.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25

    fake = {"wall_s": 1.0, "setup_s": 0.5, "peak_rss_mb": 100.0, "requests": 10,
            "calls": dict.fromkeys(run.LAYERS, 1), "self_s": dict.fromkeys(run.LAYERS, 0.1),
            "events": 5, "grant_calls": 2, "point": {"completed": 1}}
    assert list(run.end_to_end([fake])) == e2e
    assert sorted(run.per_layer([(fake, fake)])) == sorted(layered)
