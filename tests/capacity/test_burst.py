"""Cloud-burst router tests: lazy registration, billing, counters."""

import numpy as np
import pytest

from repro.capacity import CloudBurstRouter
from repro.capacity.burst import CORE_HOUR_PRICE, GIB_HOUR_PRICE, PREMIUM
from repro.cloudfaas import CloudFaaSPlatform
from repro.containers import Image
from repro.disagg.billing import FunctionBill
from repro.interference import ResourceDemand
from repro.rfaas import FunctionRegistry
from repro.sim import Environment

MiB = 1024**2


def build():
    env = Environment()
    cloud = CloudFaaSPlatform(env, rng=np.random.default_rng(0))
    registry = FunctionRegistry()
    registry.register(
        "fn", Image("img", size_bytes=100 * MiB, runtime_memory_bytes=256 * MiB),
        runtime_s=0.05,
        demand=ResourceDemand(cores=1, membw=0.0, frac_membw=0.0),
    )
    router = CloudBurstRouter(env, cloud)
    return env, cloud, registry.lookup("fn"), router


def run_burst(env, router, fdef, **kw):
    out = []

    def proc():
        record = yield from router.burst(fdef, **kw)
        out.append(record)

    env.process(proc())
    env.run()
    return out[0]


def test_burst_runs_on_cloud_and_bills_at_premium():
    env, cloud, fdef, router = build()
    record = run_burst(env, router, fdef)
    assert record.invocation.cold          # first touch on the cloud
    assert record.latency_s > 0.0
    expected = FunctionBill(
        cores=1,
        memory_bytes=fdef.image.runtime_memory_bytes,
        duration_s=record.invocation.total_s,
        core_hour_price=CORE_HOUR_PRICE * PREMIUM,
        gib_hour_price=GIB_HOUR_PRICE * PREMIUM,
    ).cost()
    assert record.cost == pytest.approx(expected)
    assert record.cost > 0.0
    assert router.bursts == 1
    assert router.total_cost == pytest.approx(record.cost)


def test_registration_is_lazy_and_idempotent():
    env, cloud, fdef, router = build()
    run_burst(env, router, fdef)
    second = run_burst(env, router, fdef)
    # A second burst must not re-register (the cloud raises on duplicates),
    # and it rides the warm sandbox within the keep-alive window.
    assert not second.invocation.cold
    assert router.bursts == 2
    assert cloud.cold_starts == 1 and cloud.warm_invocations == 1


def test_costs_accumulate_across_bursts():
    env, cloud, fdef, router = build()
    first = run_burst(env, router, fdef)
    second = run_burst(env, router, fdef)
    assert router.total_cost == pytest.approx(first.cost + second.cost)
