"""Batcher mechanics: FIFO batching, cost model, failure accounting."""

import pytest

from repro.shard import ShardConfig
from repro.shard.batch import ShardBatcher
from repro.sim.engine import Environment


def _batcher(env, apply, **shape):
    return ShardBatcher(env, 0, apply, ShardConfig(**shape), lambda *_: None)


def _drive(env, event, sink):
    """Await one submit event and record its outcome."""
    try:
        value = yield event
    except Exception as exc:  # noqa: BLE001 - the test records any failure
        sink.append(("fail", type(exc).__name__))
    else:
        sink.append(("ok", value))


def test_ops_apply_in_fifo_order_and_batch_up():
    env = Environment()
    applied = []
    batcher = _batcher(env, lambda op: applied.append(op.kind) or op.kind,
                       max_batch=4, batch_overhead_s=0.01, per_op_s=0.001)
    for i in range(6):
        batcher.submit(f"op{i}", {})
    env.run()
    # 6 ops at max_batch=4 -> one flush of 4 then one of 2, FIFO order.
    assert applied == [f"op{i}" for i in range(6)]
    assert batcher.batches == 2
    assert batcher.ops_applied == 6
    env.run()


def test_flush_charges_overhead_plus_per_op_cost():
    env = Environment()
    batcher = _batcher(env, lambda op: None,
                       max_batch=8, batch_overhead_s=0.01, per_op_s=0.002)
    done = []
    for _ in range(3):
        event = batcher.submit("grant", {})
        env.process(_drive(env, event, done))
    env.run()
    # One flush of 3 ops: 0.01 + 3 * 0.002 sim seconds.
    assert env.now == pytest.approx(0.016)
    assert len(done) == 3
    env.run()


def test_apply_failure_fails_the_submit_event_and_counts():
    env = Environment()

    def apply(op):
        if op.kind == "bad":
            raise ValueError("no")
        return "fine"

    batcher = _batcher(env, apply, max_batch=4)
    outcomes = []
    for kind in ("good", "bad", "good"):
        env.process(_drive(env, batcher.submit(kind, {}), outcomes))
    env.run()
    assert outcomes == [("ok", "fine"), ("fail", "ValueError"), ("ok", "fine")]
    assert batcher.ops_applied == 2
    assert batcher.ops_failed == 1
    assert batcher.ops_submitted == 3
    env.run()


def test_conservation_holds_at_every_instant():
    env = Environment()
    batcher = _batcher(env, lambda op: None, max_batch=3)

    def submitter(env):
        for i in range(10):
            batcher.submit("op", {})
            # Ops are submitted, queued, in-flight (popped into the
            # batch being flushed), applied, or failed — never lost.
            in_flight = batcher.ops_submitted - (
                batcher.ops_applied + batcher.ops_failed + batcher.depth()
            )
            assert 0 <= in_flight <= batcher.config.max_batch
            yield env.timeout(0.0003)

    env.process(submitter(env))
    env.run()
    assert batcher.ops_submitted == batcher.ops_applied == 10
    assert batcher.depth() == 0
    env.run()


def test_rejects_invalid_shape():
    # The batcher's shape has one source, ShardConfig, which validates it.
    with pytest.raises(ValueError):
        _batcher(Environment(), lambda op: None, max_batch=0)
    with pytest.raises(ValueError):
        _batcher(Environment(), lambda op: None, per_op_s=-1.0)
