"""Cloud FaaS baseline behaviour tests."""

import numpy as np
import pytest

from repro.cloudfaas import CloudFaaSPlatform
from repro.cloudfaas import platform as cloud
from repro.containers import Image, ImageFormat
from repro.sweep import run_sweep
from repro.sim import Environment

MiB = 1024**2


def make_platform():
    env = Environment()
    platform = CloudFaaSPlatform(env, rng=np.random.default_rng(0))
    platform.register("fn", Image("fn", size_bytes=300 * MiB))
    return env, platform


def invoke(env, platform, **kw):
    out = {}

    def proc():
        record = yield platform.invoke("fn", **kw)
        out["record"] = record

    env.process(proc())
    env.run()
    return out["record"]


def test_first_invocation_cold():
    env, platform = make_platform()
    record = invoke(env, platform)
    assert record.cold
    assert record.startup_s > 0.3
    assert platform.cold_starts == 1


def test_warm_within_keepalive_cold_after():
    env, platform = make_platform()
    first = invoke(env, platform)
    assert first.cold

    out = []

    def proc():
        record = yield platform.invoke("fn")
        out.append(record)
        yield env.timeout(2 * cloud.KEEPALIVE_S)  # past keep-alive
        record = yield platform.invoke("fn")
        out.append(record)

    env.process(proc())
    env.run()
    warm, purged = out
    assert not warm.cold and warm.startup_s < 0.01
    assert purged.cold
    assert platform.warm_invocations == 1
    assert platform.cold_starts == 2


def test_warm_invocation_costs_dozens_of_milliseconds():
    """The Sec. IV-A complaint about classical functions."""
    env, platform = make_platform()
    invoke(env, platform)
    record = invoke(env, platform)
    assert not record.cold
    assert 0.01 < record.total_s < 0.1  # dozens of ms, not microseconds


def test_large_payload_detours_through_storage():
    env, platform = make_platform()
    invoke(env, platform)  # warm it
    small = invoke(env, platform, payload_bytes=64 * 1024)
    big = invoke(env, platform, payload_bytes=32 * MiB)
    assert small.storage_s == 0.0
    assert big.storage_s > 0.02
    assert big.total_s > small.total_s


def test_cloud_invocations_trail_hpc_functions_by_three_orders():
    """Table I / Sec. IV-A: a warm cloud invocation pays gateway,
    scheduler and TCP hops (dozens of ms); an HPC hot executor answers in
    microseconds. The storage detour widens the gap for large payloads."""
    env, platform = make_platform()
    invoke(env, platform)  # warm it
    small = invoke(env, platform, payload_bytes=1024)
    big = invoke(env, platform, payload_bytes=1 * MiB)
    (hot,) = run_sweep("fig07", sizes=(1024,), samples=20, seed=1).points
    assert small.total_s / hot.hot_p50_s > 1000  # paper: ms vs single-digit us
    assert big.total_s > 2 * small.total_s


def test_large_output_also_detours():
    env, platform = make_platform()
    invoke(env, platform)
    record = invoke(env, platform, output_bytes=16 * MiB)
    assert record.storage_s > 0.0


def test_execution_time_added():
    env, platform = make_platform()
    invoke(env, platform)
    record = invoke(env, platform, runtime_s=0.5)
    assert record.execution_s == 0.5
    assert record.total_s > 0.5


def test_inline_limit_is_a_strict_boundary():
    """Edge path the burst router rides: == limit inline, limit+1 detours."""
    env, platform = make_platform()
    invoke(env, platform)  # warm it
    limit = cloud.INLINE_PAYLOAD_LIMIT
    at_limit = invoke(env, platform, payload_bytes=limit)
    over = invoke(env, platform, payload_bytes=limit + 1)
    assert at_limit.storage_s == 0.0
    assert over.storage_s > 0.0


def test_detour_cost_is_two_object_store_round_trips():
    """storage_s is exactly 2x single_read_time per oversized direction."""
    env, platform = make_platform()
    invoke(env, platform)
    payload = 32 * MiB
    output = 8 * MiB
    expected = (2 * platform.storage.single_read_time(payload)
                + 2 * platform.storage.single_read_time(output))
    record = invoke(env, platform, payload_bytes=payload, output_bytes=output)
    assert record.storage_s == pytest.approx(expected)
    # The detour dwarfs the gateway hops at this size.
    assert record.storage_s > record.gateway_s


def test_keepalive_purge_then_recovery_counters():
    """purge -> cold start -> warm again; counters track the sequence."""
    env, platform = make_platform()
    records = []

    def proc():
        for gap in (0.0, 10.0, cloud.KEEPALIVE_S + 100.0, 1.0):
            if gap:
                yield env.timeout(gap)
            record = yield platform.invoke("fn")
            records.append(record)

    env.process(proc())
    env.run()
    first, warm, purged, rewarmed = records
    assert [r.cold for r in records] == [True, False, True, False]
    image = platform._functions["fn"]
    assert purged.startup_s == pytest.approx(
        cloud.RUNTIME.cold_start_time(image))
    assert rewarmed.startup_s == pytest.approx(cloud.RUNTIME.warm_attach_s)
    assert platform.cold_starts == 2
    assert platform.warm_invocations == 2


def test_validation():
    env, platform = make_platform()
    with pytest.raises(KeyError):
        platform.invoke("missing")
    with pytest.raises(ValueError):
        platform.invoke("fn", payload_bytes=-1)
    with pytest.raises(ValueError):
        platform.register("fn", Image("fn", size_bytes=1))
    with pytest.raises(ValueError):
        platform.register("sif", Image("sif", size_bytes=1, format=ImageFormat.SINGULARITY))
