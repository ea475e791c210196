"""Batching semantics: size/timer triggers, the race, drain."""

import pytest

from repro.gpuservice import BatchPolicy, GpuBatcher
from repro.sim import Environment


def make_batcher(max_batch_size=4, max_wait_s=0.010):
    env = Environment()
    flushed = []
    batcher = GpuBatcher(
        env, BatchPolicy(max_batch_size=max_batch_size, max_wait_s=max_wait_s),
        flush=lambda dev, fn, batch, trigger: flushed.append(
            (env.now, dev, fn, list(batch), trigger)
        ),
    )
    return env, batcher, flushed


def test_policy_validation():
    with pytest.raises(ValueError):
        BatchPolicy(max_batch_size=0)
    with pytest.raises(ValueError):
        BatchPolicy(max_wait_s=0.0)


def test_size_trigger_flushes_synchronously():
    env, batcher, flushed = make_batcher(max_batch_size=2)
    batcher.enqueue("d0", "fn", "r1")
    assert not flushed and batcher.pending(("d0", "fn")) == 1
    batcher.enqueue("d0", "fn", "r2")
    # Synchronous: no simulation step happened yet.
    assert flushed == [(0.0, "d0", "fn", ["r1", "r2"], "size")]
    assert batcher.pending(("d0", "fn")) == 0
    assert batcher.flushes_on_size == 1


def test_timer_flushes_a_partial_batch_at_max_wait():
    env, batcher, flushed = make_batcher(max_batch_size=8, max_wait_s=0.010)
    batcher.enqueue("d0", "fn", "r1")

    def late():
        yield env.timeout(0.004)
        batcher.enqueue("d0", "fn", "r2")

    env.process(late())
    env.run()
    # The max-wait clock starts with the *oldest* request: one flush at
    # t=0.010, carrying both requests, and the second enqueue did not
    # schedule a competing timer.
    assert flushed == [(0.010, "d0", "fn", ["r1", "r2"], "timer")]
    assert batcher.flushes_on_timer == 1 and batcher.flushes_on_size == 0


def test_size_flush_wins_the_race_and_the_stale_timer_noops():
    env, batcher, flushed = make_batcher(max_batch_size=2, max_wait_s=0.010)

    def driver():
        batcher.enqueue("d0", "fn", "r1")   # t=0: starts the timer
        yield env.timeout(0.002)
        batcher.enqueue("d0", "fn", "r2")   # fills the batch before 0.010
        yield env.timeout(0.001)
        batcher.enqueue("d0", "fn", "r3")   # a NEW batch, new generation

    env.process(driver())
    env.run()
    # r1+r2 flushed on size at t=0.002; the t=0.010 timer woke into a
    # newer generation and must NOT have flushed r3 early — r3's own
    # timer (started t=0.003) fires at t=0.013.
    assert [(d, f, b, t) for _, d, f, b, t in flushed] == [
        ("d0", "fn", ["r1", "r2"], "size"),
        ("d0", "fn", ["r3"], "timer"),
    ]
    assert [t for t, *_ in flushed] == pytest.approx([0.002, 0.013])
    assert batcher.flushes_on_size == 1 and batcher.flushes_on_timer == 1


def test_unit_batch_is_a_synchronous_fast_path_with_no_timers():
    env, batcher, flushed = make_batcher(max_batch_size=1)
    for i in range(3):
        batcher.enqueue("d0", "fn", f"r{i}")
    assert [t for t, *_ in flushed] == [0.0, 0.0, 0.0]
    assert batcher.flushes_on_size == 3 and batcher.flushes_on_timer == 0
    # No timer process was ever scheduled: the queue is idle.
    env.run()
    assert env.now == 0.0


def test_queues_are_independent_per_device_function_pair():
    env, batcher, flushed = make_batcher(max_batch_size=2)
    batcher.enqueue("d0", "fn_a", "a1")
    batcher.enqueue("d0", "fn_b", "b1")
    batcher.enqueue("d1", "fn_a", "c1")
    assert not flushed
    assert batcher.pending_total() == 3
    assert batcher.keys() == [("d0", "fn_a"), ("d0", "fn_b"), ("d1", "fn_a")]
    batcher.enqueue("d0", "fn_a", "a2")
    assert flushed == [(0.0, "d0", "fn_a", ["a1", "a2"], "size")]


def test_drain_removes_only_the_dead_devices_queues():
    env, batcher, flushed = make_batcher(max_batch_size=8, max_wait_s=0.010)
    batcher.enqueue("d0", "fn", "dead1")
    batcher.enqueue("d0", "fn", "dead2")
    batcher.enqueue("d1", "fn", "alive")
    drained = batcher.drain(device="d0")
    assert drained == ["dead1", "dead2"]
    assert batcher.pending_total() == 1
    env.run()
    # d0's pending timer woke into the drained generation: no flush for
    # it; d1's timer still fired normally.
    assert flushed == [(0.010, "d1", "fn", ["alive"], "timer")]

