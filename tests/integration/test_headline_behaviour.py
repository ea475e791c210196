"""The paper's headline results as pinned behaviour of the simulated system.

Four shards beat one, a standby keeps every invocation alive through a
manager crash, batching amortizes GPU launches, predictive warm pools
beat reactive ones, and replication survives a crash+drain storm.
Every number here is simulated time or a simulated count, so it is a
deterministic function of the parameters and the seed: each one is
pinned exactly at seed 0, and each headline claim is asserted on top.
How fast the simulator produces these numbers is measured separately,
in wall-clock time, by ``bench/run.py`` (see ``BENCHMARK.json``).
"""

import functools

import pytest

from repro.experiments import (
    gpu_scaling_sweep,
    loadstorm_sweep,
    manager_failover_sweep,
)
from repro.sweep import run_sweep

#: An open-loop storm at ~2x one shard's serialization ceiling: the
#: unsharded plane drowns while four shards (two nodes each) keep up.
STORM = {
    "window_s": 4.0,
    "rate_per_s": 2400.0,
    "population": 400_000,
    "zipf_s": 1.1,
    "service_s": 0.05,
    "arrival": "poisson",
    "nodes": 8,
    "cores_per_node": 24,
    "max_batch": 32,
    "crash_at_frac": 0.0,
}

#: The canonical manager crash + partition storm over a 12 s window.
FAILOVER = {
    "window_s": 12.0,
    "runtime_s": 0.02,
    "payload_bytes": 1024,
    "streams": 3,
    "heartbeat_interval_s": 0.1,
}

#: Requests per stream (divisible by every batch size used) at the
#: offered-rate cap.
GPU = {"requests": 1024, "max_rate_rps": 800.0}


@functools.lru_cache(maxsize=None)
def _storm(shards: int) -> dict:
    return loadstorm_sweep.scenario({**STORM, "shards": shards}, seed=0)


@functools.lru_cache(maxsize=None)
def _failover(standbys: int, suspect_after: int = 3) -> dict:
    return manager_failover_sweep.scenario(
        {**FAILOVER, "standbys": standbys, "suspect_after": suspect_after},
        seed=0,
    )


@functools.lru_cache(maxsize=None)
def _gpu(batch_size: int) -> dict:
    return gpu_scaling_sweep.scenario({**GPU, "batch_size": batch_size}, seed=0)


@functools.lru_cache(maxsize=None)
def _autoscale() -> dict:
    """{(load, mode): point} under the default node-crash storm."""
    result = run_sweep("autoscale", loads=(4.0, 16.0), seed=0)
    return {(p.load, p.mode): p for p in result.points}


@functools.lru_cache(maxsize=None)
def _memdurability() -> dict:
    """{replication factor: point} under the crash+drain storm."""
    result = run_sweep("memdurability", factors=(1, 2, 3), seed=0)
    return {p.replication: p for p in result.points}


# -- sharded control plane -------------------------------------------------

@pytest.mark.parametrize("shards, throughput_rps, p99_ms, admitted", [
    (1, 614.0, 16534.227294055283, 9669),
    (4, 2070.75, 2357.124411206025, 9669),
])
def test_loadstorm_points_are_pinned(shards, throughput_rps, p99_ms, admitted):
    point = _storm(shards)
    assert point["throughput_rps"] == throughput_rps
    assert point["p99_ms"] == p99_ms
    assert point["admitted"] == admitted


def test_one_shard_drowns_in_the_storm_but_conserves():
    point = _storm(1)
    assert point["throughput_rps"] < 1000
    assert point["conservation_ok"]


def test_four_shards_double_throughput_and_cut_the_tail():
    one, four = _storm(1), _storm(4)
    assert four["throughput_rps"] >= 2.0 * one["throughput_rps"]
    assert four["p99_ms"] < one["p99_ms"]
    assert four["conservation_ok"]


# -- replicated control plane ----------------------------------------------

@pytest.mark.parametrize("standbys, completed, invocations", [
    (0, 277, 3127),
    (1, 1290, 1290),
])
def test_failover_completions_are_pinned(standbys, completed, invocations):
    point = _failover(standbys)
    assert (point["completed"], point["invocations"]) == (completed, invocations)


def test_fast_detector_p99_is_pinned():
    point = _failover(1, suspect_after=2)
    assert point["p99_ms"] == 20.21652511468986
    assert point["invocations"] == 1337


def test_zero_standbys_lose_work_but_keep_the_invariants():
    point = _failover(0)
    assert point["completed"] / point["invocations"] < 0.9
    assert point["invariants_ok"]


def test_one_standby_completes_through_failover():
    point = _failover(1)
    assert point["completed"] / point["invocations"] >= 0.99
    assert point["failovers"] >= 1
    assert point["invariants_ok"]


# -- GPU batching ----------------------------------------------------------

@pytest.mark.parametrize("batch_size, throughput_rps", [
    (1, 134.797803),
    (32, 743.175968),
])
def test_gpu_throughput_is_pinned(batch_size, throughput_rps):
    point = _gpu(batch_size)
    assert point["throughput_rps"] == throughput_rps
    assert point["completed"] == 2048


def test_batching_amortizes_launches():
    assert _gpu(32)["throughput_rps"] >= 3.0 * _gpu(1)["throughput_rps"]


# -- warm-pool autoscaling -------------------------------------------------

@pytest.mark.parametrize("mode, warm_start_rate, p99_ms", [
    ("reactive", 0.926829, 881.584151),
    ("predictive", 0.958188, 880.081557),
])
def test_autoscale_points_are_pinned(mode, warm_start_rate, p99_ms):
    point = _autoscale()[16.0, mode]
    assert point.warm_start_rate == warm_start_rate
    assert point.p99_ms == p99_ms


def test_predictive_prewarms_are_pinned():
    # In-flight prewarms count against the per-node cap, so a crashed
    # node is refilled once, not once per tick of its cold starts.
    assert _autoscale()[16.0, "predictive"].prewarms == 175


@pytest.mark.parametrize("load", [4.0, 16.0])
def test_predictive_beats_reactive_on_warm_starts(load):
    points = _autoscale()
    assert (points[load, "predictive"].warm_start_rate
            > points[load, "reactive"].warm_start_rate)


# -- durable memory --------------------------------------------------------

@pytest.mark.parametrize("factor, completion_ratio, lost", [
    (1, 0.335, 266),
    (2, 1.0, 0),
    (3, 1.0, 0),
])
def test_memdurability_points_are_pinned(factor, completion_ratio, lost):
    point = _memdurability()[factor]
    assert point.completion_ratio == completion_ratio
    assert point.data_loss_accesses == lost


def test_one_replica_loses_data_and_two_do_not():
    points = _memdurability()
    assert points[1].data_loss_accesses > 0
    for k in (2, 3):
        assert points[k].data_loss_accesses == 0
        assert points[k].completion_ratio >= 0.99
