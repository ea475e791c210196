"""GPU device and GPU-function-spec tests."""

import pytest

from repro.cluster.specs import P100
from repro.gpu import GpuDevice, GpuFunctionSpec, GpuMemoryError
from repro.sim import Environment

MiB = 1024**2
GiB = 1024**3


def make_device():
    env = Environment()
    return env, GpuDevice(env, P100)


def spec(kernels=10, kernel_time=1e-3, occupancy=0.5, input_mb=64):
    return GpuFunctionSpec(
        name="fn", kernel_count=kernels, kernel_time_s=kernel_time,
        occupancy=occupancy, input_bytes=input_mb * MiB,
        device_memory_bytes=256 * MiB,
    )


def test_warm_data_evicted_under_pressure():
    env, dev = make_device()
    dev.keep_warm("model-a", 10 * GiB)
    assert dev.has_warm("model-a")
    # A second owner's dataset that does not fit forces warm eviction.
    dev.keep_warm("model-b", 12 * GiB)
    assert not dev.has_warm("model-a")
    assert dev.has_warm("model-b")
    assert dev.warm_evictions == 1


def test_warm_lru_eviction_order():
    env, dev = make_device()

    def scenario():
        dev.keep_warm("old", 6 * GiB)
        yield env.timeout(1)
        dev.keep_warm("new", 6 * GiB)
        yield env.timeout(1)
        dev.has_warm("old")  # refresh "old" -> "new" becomes LRU
        dev.keep_warm("third", 6 * GiB)

    env.process(scenario())
    env.run()
    assert dev.has_warm("old")
    assert not dev.has_warm("new")


def test_single_kernel_runtime():
    env, dev = make_device()
    p = dev.launch("a", runtime_s=0.5, occupancy=0.5)
    env.run()
    assert env.now == pytest.approx(0.5)
    assert p.value == pytest.approx(0.5)


def test_a_kernel_is_resident_from_launch_until_its_yielder_resumes():
    env, dev = make_device()
    seen = []

    def proc():
        kernel = dev.launch("a", runtime_s=0.5, occupancy=0.5)
        seen.append(dev.current_occupancy)
        yield kernel
        seen.append(dev.current_occupancy)

    env.process(proc())
    env.run()
    assert seen == [0.5, 0.0]


def test_concurrent_kernels_dilate_when_oversubscribed():
    env, dev = make_device()
    done = []

    def proc(tag):
        yield dev.launch(tag, runtime_s=0.5, occupancy=0.8)
        done.append((tag, env.now))

    env.process(proc("a"))
    env.process(proc("b"))
    env.run()
    # Total occupancy 1.6: the later launch sees the full mix and dilates
    # (dilation is sampled at launch time, a documented approximation).
    assert max(t for _, t in done) == pytest.approx(0.5 * 1.6)
    assert dev.kernels_launched == 2


def test_concurrent_small_kernels_share_without_dilation():
    env, dev = make_device()
    done = []

    def proc(tag):
        yield dev.launch(tag, runtime_s=0.5, occupancy=0.3)
        done.append(env.now)

    env.process(proc("a"))
    env.process(proc("b"))
    env.run()
    assert all(t == pytest.approx(0.5) for t in done)


def test_kernel_validation():
    env, dev = make_device()
    with pytest.raises(ValueError):
        dev.launch("a", runtime_s=-1, occupancy=0.5)
    with pytest.raises(ValueError):
        dev.launch("a", runtime_s=1, occupancy=0)
    with pytest.raises(ValueError):
        spec(kernels=0)
    with pytest.raises(ValueError):
        dev.keep_warm("fn", 0)


# -- warm-data eviction edge cases (regression tests) -------------------------
# A second owner's ``keep_warm`` is the call the GPU service makes when a
# function's dataset must displace another's.

def test_exact_fit_allocation_after_lru_eviction():
    env, dev = make_device()
    dev.keep_warm("old", 4 * GiB)
    dev.keep_warm("new", 4 * GiB)
    # Exactly free + all warm data: must succeed by evicting both.
    dev.keep_warm("job", P100.memory_bytes)
    assert dev.free_memory == 0
    assert not dev.has_warm("old") and not dev.has_warm("new")
    assert dev.has_warm("job")
    assert dev.warm_evictions == 2


def test_eviction_tie_break_is_deterministic_on_owner_name():
    # Equal last-used stamps (same sim time): eviction order must not
    # depend on insertion order, only on the owner name.
    for order in (("b", "a", "c"), ("c", "b", "a"), ("a", "c", "b")):
        env, dev = make_device()
        for owner in order:
            dev.keep_warm(owner, 4 * GiB)
        dev.keep_warm("job", P100.memory_bytes - 8 * GiB)
        # One eviction was needed; the name tie-break picks "a".
        assert dev.warm_evictions == 1
        assert not dev.has_warm("a")
        assert dev.has_warm("b") and dev.has_warm("c")


def test_failed_allocation_leaves_warm_data_untouched():
    env, dev = make_device()
    dev.keep_warm("cache", 4 * GiB)
    with pytest.raises(GpuMemoryError):
        dev.keep_warm("job", P100.memory_bytes + 1)
    # All-or-nothing: the doomed dataset must not have evicted the
    # other owner's (or drained free memory) on its way to the error.
    assert dev.has_warm("cache")
    assert dev.warm_evictions == 0
    assert dev.free_memory == P100.memory_bytes - 4 * GiB


def test_failed_keep_warm_preserves_the_owners_old_dataset():
    env, dev = make_device()
    dev.keep_warm("other", P100.memory_bytes - 4 * GiB)
    dev.keep_warm("cache", 2 * GiB)
    with pytest.raises(GpuMemoryError):
        # Cannot fit even after evicting every dataset.
        dev.keep_warm("cache", P100.memory_bytes + 1)
    # Re-warming is fit-checked *before* dropping the old entry: a
    # failed re-warm keeps the previous dataset resident.
    assert dev.has_warm("cache") and dev.has_warm("other")
    assert dev.warm_evictions == 0
    assert dev.free_memory == 2 * GiB
