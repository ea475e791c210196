"""Client-side failure recovery: retry loop, exhaustion, close semantics."""

import pytest

from repro.faults import RecoveryOutcome, RetryPolicy
from repro.rfaas import (
    InvocationStatus,
    InvocationTimeout,
    LeaseRevokedError,
    RFaaSError,
    TerminationError,
)

from .conftest import Harness


def _reclaim_whenever_leased(h, client, period=0.1, kills=None):
    """Reclaim the client's current node every ``period`` seconds."""

    def killer():
        remaining = [kills]
        while remaining[0] is None or remaining[0] > 0:
            yield h.env.timeout(period)
            lease = client.lease
            if lease is not None and lease.active:
                h.manager.remove_node(lease.node_name, immediate=True)
                if remaining[0] is not None:
                    remaining[0] -= 1

    return h.env.process(killer())


def test_redirect_exhaustion_surfaces_terminated_not_hang():
    """Repeated immediate reclaims exhaust the attempt budget: TERMINATED."""
    h = Harness(nodes=5)
    for name in ("n0001", "n0002", "n0003", "n0004"):
        h.register_node(name)
    h.register_function("work", runtime_s=0.5)
    client = h.client()  # default policy: 4 attempts
    _reclaim_whenever_leased(h, client)
    out = {}

    def driver():
        out["d"] = yield client.invoke_detailed("work", payload_bytes=64)

    h.env.process(driver())
    h.env.run(until=10.0)
    detailed = out["d"]
    assert detailed.outcome is RecoveryOutcome.GAVE_UP
    assert detailed.result.status is InvocationStatus.TERMINATED
    assert not detailed.ok
    assert isinstance(detailed.error, TerminationError)
    # Every attempt made ended in a redirect, and the retry count says so.
    assert detailed.attempts == client.retry_policy.max_attempts == 4
    assert detailed.retries == 3
    assert client.retries == {"termination": 4}


def test_plain_invoke_reports_terminated_on_exhaustion():
    h = Harness(nodes=5)
    for name in ("n0001", "n0002", "n0003", "n0004"):
        h.register_node(name)
    h.register_function("work", runtime_s=0.5)
    client = h.client()
    _reclaim_whenever_leased(h, client)
    out = {}

    def driver():
        out["r"] = yield client.invoke("work", payload_bytes=64)

    h.env.process(driver())
    h.env.run(until=10.0)
    assert out["r"].status is InvocationStatus.TERMINATED


def test_single_reclaim_recovers_on_another_node():
    h = Harness()
    h.register_node("n0001")
    h.register_node("n0002")
    h.register_function("work", runtime_s=0.5)
    client = h.client()
    _reclaim_whenever_leased(h, client, kills=1)
    out = {}

    def driver():
        out["d"] = yield client.invoke_detailed("work", payload_bytes=64)

    h.env.process(driver())
    h.env.run(until=10.0)
    detailed = out["d"]
    assert detailed.ok
    assert detailed.outcome is RecoveryOutcome.RECOVERED
    assert detailed.retries == 1 and detailed.attempts == 2
    assert detailed.recovery_s > 0
    assert detailed.result.node_name == "n0002"  # excluded the reclaimed node
    assert client.retries == {"termination": 1}


def test_backoff_delays_retries():
    h = Harness()
    h.register_node("n0001")
    h.register_node("n0002")
    h.register_function("work", runtime_s=0.5)
    policy = RetryPolicy(max_attempts=4, backoff_base_s=0.25)
    client = h.client(retry_policy=policy)
    _reclaim_whenever_leased(h, client, kills=1)
    out = {}

    def driver():
        out["d"] = yield client.invoke_detailed("work", payload_bytes=64)

    h.env.process(driver())
    h.env.run(until=10.0)
    detailed = out["d"]
    assert detailed.ok and detailed.retries == 1
    assert detailed.backoff_s == pytest.approx(0.25)


def test_client_timeout_aborts_long_invocation():
    h = Harness()
    h.register_node("n0001")
    h.register_function("slow", runtime_s=5.0)
    client = h.client(retry_policy=RetryPolicy(max_attempts=4, timeout_s=0.25))
    out = {}

    def driver():
        out["d"] = yield client.invoke_detailed("slow", payload_bytes=64)

    h.env.process(driver())
    h.env.run(until=10.0)
    detailed = out["d"]
    assert detailed.outcome is RecoveryOutcome.TIMED_OUT
    assert detailed.result.status is InvocationStatus.TERMINATED
    assert isinstance(detailed.error, InvocationTimeout)
    assert detailed.elapsed_s == pytest.approx(0.25, abs=0.05)
    # A deadline is terminal: the loop does not burn further attempts.
    assert detailed.attempts == 1


def test_a_reclaim_at_the_deadline_instant_times_out():
    """The deadline timer fires first at 0.25 s, and a reclaim fails the
    execution at the same instant, before the client resumes from the
    race.  The deadline has won: the invocation times out and the
    reclaim's failure is defused, not raised out of the run."""
    h = Harness()
    h.register_node("n0001")
    h.register_node("n0002")
    h.register_function("slow", runtime_s=5.0)
    client = h.client(retry_policy=RetryPolicy(max_attempts=4, timeout_s=0.25))
    out = {}

    def driver():
        out["d"] = yield client.invoke_detailed("slow", payload_bytes=64)

    def reclaim():
        yield h.env.timeout(0.25)
        h.manager.remove_node(client.lease.node_name, immediate=True)

    h.env.process(reclaim())
    h.env.process(driver())
    h.env.run(until=10.0)
    detailed = out["d"]
    assert detailed.outcome is RecoveryOutcome.TIMED_OUT
    assert isinstance(detailed.error, InvocationTimeout)
    assert detailed.elapsed_s == 0.25 and detailed.attempts == 1
    assert client.retries == {}


def test_no_capacity_is_rejected_not_retried():
    h = Harness()
    h.register_function("noop")
    client = h.client()
    out = {}

    def driver():
        out["d"] = yield client.invoke_detailed("noop")

    h.env.process(driver())
    h.env.run()
    detailed = out["d"]
    assert detailed.outcome is RecoveryOutcome.REJECTED
    assert detailed.result.status is InvocationStatus.REJECTED
    assert client.retries == {}  # rejection is terminal, not a retry


def test_close_is_idempotent_and_releases_the_lease():
    h = Harness()
    h.register_node("n0001")
    h.register_function("noop")
    client = h.client()

    def driver():
        yield client.invoke("noop", payload_bytes=64)

    h.env.process(driver())
    h.env.run()
    assert len(h.manager.active_leases()) == 1
    client.close()
    client.close()  # second call is a no-op, not an error
    assert client.closed
    assert client.lease is None
    assert h.manager.active_leases() == []


def test_invoke_after_close_raises():
    h = Harness()
    h.register_node("n0001")
    h.register_function("noop")
    client = h.client()
    client.close()

    def driver():
        with pytest.raises(RFaaSError):
            yield client.invoke("noop")

    h.env.process(driver())
    h.env.run()


def test_close_during_in_flight_lease_setup_leaks_nothing():
    """close() racing _ensure_lease's connect: the fresh lease goes back."""
    h = Harness()
    h.register_node("n0001")
    h.register_function("noop")
    client = h.client()
    out = {}

    def driver():
        out["d"] = yield client.invoke_detailed("noop", payload_bytes=64)

    def closer():
        # The connect handshake takes a (simulated) microsecond or two;
        # land inside it.
        yield h.env.timeout(1e-7)
        client.close()

    h.env.process(driver())
    h.env.process(closer())
    h.env.run()
    detailed = out["d"]
    assert not detailed.ok
    assert detailed.outcome is RecoveryOutcome.GAVE_UP
    assert isinstance(detailed.error, LeaseRevokedError)
    assert h.manager.active_leases() == []  # the raced lease was handed back
    assert client.closed and client.lease is None
