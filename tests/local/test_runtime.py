"""Live process-based runtime tests (real multiprocessing)."""

import pickle

import numpy as np
import pytest

from repro.local import LocalRuntime, payload_nbytes, resolve_target, serialize
from repro.workloads import generate_options, price_chunk, split_batch

PRICE = "repro.workloads.blackscholes:price_chunk"


def options(count=64, seed=5):
    return split_batch(generate_options(count, seed=seed), 1)[0]


@pytest.fixture(scope="module")
def runtime():
    rt = LocalRuntime(workers=2)
    rt.register("transport", "repro.workloads.openmc_like:transport_chunk")
    rt.register("price", PRICE)
    yield rt
    rt.shutdown()


def test_resolve_target_validation():
    assert resolve_target(PRICE) is price_chunk
    with pytest.raises(ValueError):
        resolve_target("no-colon")
    with pytest.raises(ModuleNotFoundError):
        resolve_target("nope.nope:fn")
    with pytest.raises(AttributeError):
        resolve_target("repro.workloads.nas:missing")
    with pytest.raises(TypeError):
        resolve_target("repro.workloads.nas:NAS_MODELS")


def test_register_validates_and_rejects_duplicates(runtime):
    with pytest.raises(ValueError):
        runtime.register("transport", PRICE)
    with pytest.raises(ValueError):
        runtime.register("bad", "not-a-target")
    assert "price" in runtime.registered()


def test_invoke_executes_in_worker_process(runtime):
    out = runtime.invoke_sync("transport", {"particles": 200, "seed": 1})
    from repro.workloads import run_transport

    direct = run_transport(200, seed=1)
    assert out["collisions"] == direct.collisions
    assert out["k_estimate"] == direct.k_estimate


def test_invoke_kwargs(runtime):
    payload = options()
    a = runtime.invoke_sync("price", arrays=payload, iterations=3)
    np.testing.assert_array_equal(a, price_chunk(payload, iterations=3))


def test_unregistered_function_raises(runtime):
    with pytest.raises(KeyError):
        runtime.invoke("missing", 1)


def test_map_preserves_order(runtime):
    payloads = [{"particles": 100, "seed": s} for s in range(4)]
    results = runtime.map("transport", payloads)
    assert [r["particles"] for r in results] == [100] * 4
    ks = [r["k_estimate"] for r in results]
    assert len(set(ks)) > 1  # different seeds -> different tallies


def test_worker_exception_propagates(runtime):
    with pytest.raises(ValueError):
        runtime.invoke_sync("transport", {"particles": 0})
    assert runtime.stats.errors >= 1


def test_cold_start_measured_and_warm_reuse(runtime):
    runtime.prewarm()
    assert runtime.stats.cold_start_s is not None
    assert runtime.stats.cold_start_s > 0.01  # process spawn is not free
    assert runtime.warm


def test_shutdown_and_restart():
    rt = LocalRuntime(workers=1)
    rt.register("price", PRICE)
    rt.invoke_sync("price", options(), iterations=1)
    rt.shutdown()
    assert not rt.warm
    # Next invocation re-warms transparently (a new cold start).
    np.testing.assert_array_equal(rt.invoke_sync("price", options(), iterations=1),
                                  rt.invoke_sync("price", options(), iterations=1))
    rt.shutdown()


def test_context_manager():
    with LocalRuntime(workers=1) as rt:
        rt.register("price", PRICE)
        rt.invoke_sync("price", options(), iterations=1)
    assert not rt.warm


def test_worker_count_validation():
    with pytest.raises(ValueError):
        LocalRuntime(workers=0)


def test_serialization_roundtrip_and_size():
    payload = {"a": np.arange(1000, dtype=np.float64), "b": "text"}
    blob = serialize(payload)
    back = pickle.loads(blob)
    np.testing.assert_array_equal(back["a"], payload["a"])
    assert back["b"] == "text"
    assert payload_nbytes(payload) == len(blob)
    assert payload_nbytes(payload) > 8000  # the array dominates
