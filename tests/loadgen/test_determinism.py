"""Loadgen determinism: same spec, same trace — in any interpreter."""

import pathlib
import pickle
import subprocess
import sys
from collections import Counter

from repro.loadgen import (
    LoadSpec,
    MmppArrivals,
    PoissonArrivals,
    TenantMix,
    synthesize,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent

SPEC = LoadSpec(
    arrivals=PoissonArrivals(rate_per_s=500.0),
    mix=TenantMix(population=1_200_000, zipf_s=1.1),
    window_s=2.0,
    service_s=0.05,
    seed=42,
)


def arrivals(trace):
    return trace.times, trace.tenants


def test_same_spec_same_trace_in_process():
    assert arrivals(synthesize(SPEC)) == arrivals(synthesize(SPEC))


def test_different_seed_different_trace():
    other = LoadSpec(arrivals=SPEC.arrivals, mix=SPEC.mix,
                     window_s=SPEC.window_s, service_s=SPEC.service_s, seed=43)
    assert arrivals(synthesize(SPEC)) != arrivals(synthesize(other))


def test_spec_pickle_roundtrip():
    assert pickle.loads(pickle.dumps(SPEC)) == SPEC


def test_fresh_interpreters_produce_byte_identical_traces():
    """The cross-process contract behind parallel sweeps: no hash salt,
    no interpreter state, may leak into the trace."""
    script = (
        "from repro.loadgen import LoadSpec, PoissonArrivals, TenantMix, synthesize\n"
        "spec = LoadSpec(arrivals=PoissonArrivals(rate_per_s=500.0),\n"
        "                mix=TenantMix(population=1_200_000, zipf_s=1.1),\n"
        "                window_s=2.0, service_s=0.05, seed=42)\n"
        "trace = synthesize(spec)\n"
        "print(repr((trace.times, trace.tenants)))\n"
    )
    env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0] == repr(arrivals(synthesize(SPEC))) + "\n"


def test_population_scales_without_materializing_clients():
    """1.2M synthetic clients must not mean 1.2M objects: the trace
    holds one entry per *arrival*, and Zipf concentrates the draw."""
    trace = synthesize(SPEC)
    assert trace.population == 1_200_000
    assert len(trace) < 2_000  # ~rate * window, nowhere near population
    assert len(set(trace.tenants)) < len(trace)
    assert trace.times == sorted(trace.times)


def test_mmpp_bursts_beat_the_mean_rate():
    spec = LoadSpec(arrivals=MmppArrivals(rates_per_s=(50.0, 2000.0),
                                          mean_dwell_s=0.5),
                    mix=TenantMix(population=100_000),
                    window_s=6.0, seed=3)
    trace = synthesize(spec)
    # A modulated process must show bursts above its long-run mean:
    # some half-second bucket beats the mean rate by 20 %.
    per_bucket = Counter(int(t / 0.5) for t in trace.times)
    peak_rate_per_s = max(per_bucket.values()) / 0.5
    # States recur with equal frequency and i.i.d. dwells, so the
    # long-run mean is the plain average of the state rates.
    mean_rate_per_s = sum(spec.arrivals.rates_per_s) / 2
    assert peak_rate_per_s > mean_rate_per_s * 1.2
