"""Function checkpointing across reclamation (Sec. III)."""

import pytest

from repro.rfaas import InvocationStatus

from .conftest import Harness


def run_scenario(checkpointable, reclaim_at=2.0, runtime=5.0, interval=0.5):
    h = Harness()
    reg1 = h.register_node("n0001")
    h.register_node("n0002")
    h.register_function(
        "long", runtime_s=runtime,
        checkpointable=checkpointable, checkpoint_interval_s=interval,
    )
    # Prewarm so execution starts ~immediately (no cold-start offset).
    reg1.executor.prewarm(h.image)
    client = h.client()
    out = {}

    def invoker():
        t0 = h.env.now
        result = yield client.invoke("long")
        out["result"] = result
        out["elapsed"] = h.env.now - t0

    def reclaimer():
        yield h.env.timeout(reclaim_at)
        h.manager.remove_node("n0001", immediate=True)

    h.env.process(invoker())
    h.env.process(reclaimer())
    h.env.run()
    return h, out


def test_checkpointable_resumes_not_restarts():
    h, out = run_scenario(checkpointable=True)
    result = out["result"]
    assert result.ok
    assert result.node_name == "n0002"
    # ~1.5-2s of work was checkpointed before the 2s reclaim; the retry
    # only executes the remainder, so the second leg is well under the
    # full 5s runtime.
    assert result.timings.execution < 4.0
    # Total elapsed ~ reclaim point + remaining work + redirect costs,
    # clearly less than a full restart (2 + 5 = 7s plus overheads).
    assert out["elapsed"] < 6.5


def test_non_checkpointable_restarts_from_zero():
    h, out = run_scenario(checkpointable=False)
    result = out["result"]
    assert result.ok
    # The retry re-executes everything.
    assert result.timings.execution >= 5.0
    assert out["elapsed"] > 7.0


def test_checkpoint_rounds_down_to_interval():
    # Reclaim at 1.3s with 0.5s checkpoints: 1.0s is preserved, so the
    # retry runs 4.0s (5 - 1).
    h, out = run_scenario(checkpointable=True, reclaim_at=1.3, interval=0.5)
    assert out["result"].ok
    assert out["result"].timings.execution == pytest.approx(4.0, abs=0.1)


def test_checkpoint_interval_validation():
    h = Harness()
    with pytest.raises(ValueError):
        h.register_function("bad", runtime_s=1.0, checkpointable=True,
                            checkpoint_interval_s=0.0)


def test_resume_offset_request_validation():
    from repro.rfaas import InvocationRequest

    with pytest.raises(ValueError):
        InvocationRequest(function="f", payload_bytes=0, invocation_id=1,
                          resume_offset_s=-1.0)
