"""Unit tests for Resource / Container / Store primitives."""

import gc

import pytest

from repro.sim import Container, Environment, Resource, Store
from repro.sim.resources import Request


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    granted = []

    def user(tag, hold):
        with res.request() as req:
            yield req
            granted.append((tag, env.now))
            yield env.timeout(hold)

    env.process(user("a", 5))
    env.process(user("b", 5))
    env.process(user("c", 5))
    env.run()
    times = dict((t, at) for t, at in granted)
    assert times["a"] == 0 and times["b"] == 0
    assert times["c"] == 5


def test_resource_multi_slot_request():
    env = Environment()
    res = Resource(env, capacity=4)
    log = []

    def wide():
        with res.request(count=3) as req:
            yield req
            log.append(("wide", env.now))
            yield env.timeout(10)

    def narrow():
        yield env.timeout(1)
        with res.request(count=2) as req:
            yield req
            log.append(("narrow", env.now))

    env.process(wide())
    env.process(narrow())
    env.run()
    assert ("wide", 0) in log
    assert ("narrow", 10) in log  # must wait for 3 slots to free


def test_resource_priority_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def holder():
        with res.request() as req:
            yield req
            yield env.timeout(5)

    def claimant(tag, prio, delay):
        yield env.timeout(delay)
        with res.request(priority=prio) as req:
            yield req
            order.append(tag)
            yield env.timeout(1)

    env.process(holder())
    env.process(claimant("low", 10, 1))
    env.process(claimant("high", 0, 2))
    env.run()
    assert order == ["high", "low"]


def test_resource_head_of_line_blocking():
    # A wide request at the head must not be starved by small ones.
    env = Environment()
    res = Resource(env, capacity=4)
    order = []

    def holder():
        with res.request(count=3) as req:
            yield req
            yield env.timeout(5)

    def wide():
        yield env.timeout(1)
        with res.request(count=4) as req:
            yield req
            order.append(("wide", env.now))
            yield env.timeout(1)

    def small():
        yield env.timeout(2)
        with res.request(count=1) as req:
            yield req
            order.append(("small", env.now))

    env.process(holder())
    env.process(wide())
    env.process(small())
    env.run()
    assert order[0] == ("wide", 5)
    assert order[1] == ("small", 6)


def test_resource_counts_and_release():
    env = Environment()
    res = Resource(env, capacity=3)

    def proc():
        req = res.request(count=2)
        yield req
        assert res.count == 2
        assert res.available == 1
        res.release(req)
        assert res.count == 0

    env.process(proc())
    env.run()


def test_resource_cancel_waiting_request():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder():
        with res.request() as req:
            yield req
            yield env.timeout(10)

    def impatient():
        yield env.timeout(1)
        req = res.request()
        yield env.timeout(2)
        req.cancel()
        assert res.queue_length == 0

    env.process(holder())
    env.process(impatient())
    env.run()
    assert res.count == 0


def test_resource_invalid_requests():
    env = Environment()
    res = Resource(env, capacity=2)
    with pytest.raises(ValueError):
        res.request(count=0)
    with pytest.raises(ValueError):
        res.request(count=3)
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_container_get_blocks_until_level():
    env = Environment()
    tank = Container(env, capacity=100, init=10)
    got = []

    def consumer():
        yield tank.get(50)
        got.append(env.now)

    def producer():
        yield env.timeout(3)
        yield tank.put(45)

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [3]
    assert tank.level == pytest.approx(5)


def test_container_put_blocks_at_capacity():
    env = Environment()
    tank = Container(env, capacity=10, init=8)
    done = []

    def producer():
        yield tank.put(5)
        done.append(env.now)

    def consumer():
        yield env.timeout(2)
        yield tank.get(4)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert done == [2]
    assert tank.level == pytest.approx(9)


def test_container_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Container(env, capacity=0)
    with pytest.raises(ValueError):
        Container(env, capacity=5, init=7)
    tank = Container(env, capacity=5)
    with pytest.raises(ValueError):
        tank.get(-1)
    with pytest.raises(ValueError):
        tank.put(6)


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    received = []

    def consumer():
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    def producer():
        for i in range(3):
            yield env.timeout(1)
            store.put(i)

    env.process(consumer())
    env.process(producer())
    env.run()
    assert received == [0, 1, 2]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got_at = []

    def consumer():
        yield store.get()
        got_at.append(env.now)

    def producer():
        yield env.timeout(7)
        store.put("x")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got_at == [7]


def test_store_bounded_capacity_rejects():
    env = Environment()
    store = Store(env, capacity=1)
    store.put("a")
    ev = store.put("b")
    assert ev.triggered and not ev.ok
    ev.defuse()
    assert len(store) == 1


def test_granted_requests_are_freed_without_the_cyclic_collector():
    """A granted request fires with ``None``, not with itself, so the
    request is no reference cycle: contended or not, none outlives the
    run with the cyclic collector off."""
    env = Environment()
    res = Resource(env, capacity=2)

    def user():
        with res.request() as req:
            got = yield req
            assert got is None
            yield env.timeout(1.0)

    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            env.process(user())
        env.run()
        left = [obj for obj in gc.get_objects()
                if type(obj) is Request and obj.env is env]
    finally:
        gc.enable()
    assert env.now == 50.0
    assert left == []
