"""The fault subsystem's determinism contract.

Same seed + same plan ⇒ the same faults hit the same victims at the same
instants.  That the whole chaos run replays byte for byte through the
span exporter is pinned in ``tests/integration/test_sweep_goldens.py``.
"""

from repro.faults import FaultPlan

from .conftest import build_platform


def test_injector_schedule_replays_exactly():
    plan = (FaultPlan(name="mix")
            .lease_storm(at_s=0.5, count=2)
            .node_crash(at_s=1.0, duration_s=1.0, immediate=True)
            .straggler(at_s=2.0, duration_s=0.5, multiplier=10.0))

    def one_run():
        platform = build_platform(plan=FaultPlan.from_json(plan.to_json()),
                                  seed=11, runtime_s=0.02)
        client = platform.client("n0000")
        latencies = []

        def driver():
            while platform.env.now < 4.0:
                result = yield client.invoke("noop", payload_bytes=64)
                latencies.append((result.ok, platform.env.now))

        platform.process(driver())
        platform.run()
        return platform.injector.injected, latencies

    assert one_run() == one_run()
