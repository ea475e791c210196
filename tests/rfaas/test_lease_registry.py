"""Lease state machine and function registry tests."""

import pytest

from repro.containers import Image
from repro.interference import ResourceDemand
from repro.rfaas import FunctionRegistry, Lease, LeaseState

MiB = 1024**2


def lease(**kw):
    defaults = dict(client="c", node_name="n0", cores=1, lease_id=1)
    defaults.update(kw)
    return Lease(**defaults)


def test_lease_validation():
    with pytest.raises(ValueError):
        lease(cores=0)
    with pytest.raises(ValueError):
        lease(cores=-1)


def test_lease_cancel_notifies_once():
    calls = []
    l = lease()
    l.on_cancel.append(lambda lse: calls.append(lse.lease_id))
    l.cancel()
    l.cancel()  # idempotent
    assert calls == [l.lease_id]
    assert l.state == LeaseState.CANCELLED


def test_lease_release_vs_cancel():
    l = lease()
    l.release()
    assert l.state == LeaseState.RELEASED
    l.cancel()  # no-op after release
    assert l.state == LeaseState.RELEASED


def test_registry_register_and_lookup():
    reg = FunctionRegistry()
    image = Image("img", size_bytes=100 * MiB)
    demand = ResourceDemand(cores=1, membw=1e9, frac_membw=0.2)
    fdef = reg.register("fn", image, runtime_s=0.5, demand=demand)
    assert "fn" in reg
    assert reg.lookup("fn") is fdef
    assert reg.names() == ["fn"]
    with pytest.raises(ValueError):
        reg.register("fn", image, runtime_s=0.5, demand=demand)
    with pytest.raises(KeyError):
        reg.lookup("missing")


def test_function_def_validation():
    from repro.rfaas import FunctionDef

    image = Image("img", size_bytes=1)
    demand = ResourceDemand(cores=1)
    with pytest.raises(ValueError):
        FunctionDef("f", image, demand, runtime_s=-1)
    with pytest.raises(ValueError):
        FunctionDef("f", image, demand, runtime_s=1, output_bytes=-1)
