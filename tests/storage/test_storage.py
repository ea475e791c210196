"""Storage models: Lustre, object store, tiered I/O (Fig. 8 shapes)."""

import pytest
from hypothesis import given, strategies as st

from repro.storage import LustreModel, ObjectStoreModel, TieredFunctionStorage

KiB, MiB, GiB = 1024, 1024**2, 1024**3


def test_lustre_stripe_accounting():
    fs = LustreModel(stripe_size=1 * MiB, stripe_count=4, ost_count=40)
    assert fs.effective_stripes(1) == 1
    assert fs.effective_stripes(1 * MiB) == 1
    assert fs.effective_stripes(3 * MiB) == 3
    assert fs.effective_stripes(100 * MiB) == 4  # capped by stripe_count


def test_lustre_latency_floor_is_milliseconds():
    fs = LustreModel()
    assert fs.read_time(1 * KiB) > 1e-3


def test_objectstore_latency_floor_is_submillisecond():
    store = ObjectStoreModel()
    assert store.read_time(1 * KiB) < 1e-3


def test_fig8_small_files_object_store_wins():
    fs, store = LustreModel(), ObjectStoreModel()
    for size in (1 * KiB, 64 * KiB, 1 * MiB):
        assert store.read_time(size) < fs.read_time(size)


def test_fig8_lustre_wins_at_scale():
    fs, store = LustreModel(), ObjectStoreModel()
    size = 1 * GiB
    readers = 32
    assert fs.aggregate_throughput(size, readers) > store.aggregate_throughput(size, readers)


def test_lustre_aggregate_scales_with_readers():
    fs = LustreModel()
    t1 = fs.aggregate_throughput(256 * MiB, 1)
    t16 = fs.aggregate_throughput(256 * MiB, 16)
    assert t16 > 4 * t1


def test_objectstore_saturates_with_readers():
    store = ObjectStoreModel(server_count=2, server_bandwidth=10e9)
    t64 = store.aggregate_throughput(256 * MiB, 64)
    assert t64 <= 2 * 10e9 * 1.01  # capped by server NICs


def test_validation():
    with pytest.raises(ValueError):
        LustreModel(ost_count=0)
    with pytest.raises(ValueError):
        LustreModel(stripe_size=0)
    with pytest.raises(ValueError):
        ObjectStoreModel(server_count=0)
    with pytest.raises(ValueError):
        LustreModel().read_time(-1)
    with pytest.raises(ValueError):
        LustreModel().read_time(1, concurrent_readers=0)
    with pytest.raises(ValueError):
        ObjectStoreModel().read_time(-1)


@given(size=st.integers(min_value=0, max_value=10 * GiB))
def test_lustre_monotone_in_size(size):
    fs = LustreModel()
    assert fs.read_time(size + MiB) >= fs.read_time(size)


@given(
    size=st.integers(min_value=1, max_value=GiB),
    readers=st.integers(min_value=1, max_value=128),
)
def test_per_reader_latency_never_improves_with_contention(size, readers):
    for model in (LustreModel(), ObjectStoreModel()):
        assert model.read_time(size, readers) >= model.read_time(size, 1) - 1e-12


def test_tiered_crossover_is_consistent():
    tiered = TieredFunctionStorage()
    crossover = tiered.crossover_size()
    assert 1024 < crossover < 1 << 30
    assert tiered.pfs.read_time(crossover) < tiered.cache.read_time(crossover)
    before = max(1024, crossover // 2)
    assert tiered.pfs.read_time(before) >= tiered.cache.read_time(before)
