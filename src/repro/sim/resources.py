"""Shared-resource primitives for the simulation engine.

Three classic primitives cover every need of the cluster / FaaS models:

* :class:`Resource` — a counted set of identical slots (e.g. CPU cores on a
  node viewed as interchangeable), acquired with ``request()`` and freed
  with ``release()``.  Supports priorities so that batch jobs can outrank
  serverless functions on reclamation.
* :class:`Container` — a continuous quantity (bytes of memory, link
  bandwidth tokens) with ``get``/``put``.
* :class:`Store` — a FIFO queue of Python objects (message queues,
  invocation inboxes).

All wait queues are strictly deterministic: ties break by request order.
"""

from __future__ import annotations

import heapq
from typing import Any, Generic, Optional, TypeVar

from .engine import Environment, Event, SimulationError

__all__ = ["Resource", "Request", "Container", "Store", "FilterStore"]

T = TypeVar("T")


class Request(Event):
    """A pending or granted claim on a :class:`Resource`.

    Usable as a context manager inside a simulation process::

        with resource.request() as req:
            yield req
            ...  # holding the slot

    A granted request fires with ``None``, not with itself: a request
    whose value is itself would be a reference cycle, left for the
    cyclic collector on every acquisition.
    """

    __slots__ = ("resource", "count", "priority", "key")

    def __init__(self, resource: "Resource", count: int, priority: int, key: int):
        super().__init__(resource.env)
        self.resource = resource
        self.count = count
        self.priority = priority
        self.key = key

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request."""
        self.resource._cancel(self)


class Resource:
    """``capacity`` identical slots with a priority wait queue."""

    def __init__(self, env: Environment, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = int(capacity)
        self._in_use = 0
        self._seq = 0
        self._waiting: list[tuple[int, int, Request]] = []
        self._granted: set[int] = set()

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def request(self, count: int = 1, priority: int = 0) -> Request:
        """Claim ``count`` slots; lower ``priority`` value wins ties."""
        if count < 1 or count > self.capacity:
            raise ValueError(f"invalid slot count {count} (capacity {self.capacity})")
        self._seq += 1
        req = Request(self, count, priority, self._seq)
        if not self._waiting and count <= self.capacity - self._in_use:
            # Uncontended fast path: the queue is empty and the request
            # fits, so it would be granted first by _dispatch anyway —
            # grant directly without the append/sort round-trip.
            self._in_use += count
            self._granted.add(req.key)
            req.succeed()
            return req
        self._waiting.append((priority, self._seq, req))
        self._waiting.sort(key=lambda item: (item[0], item[1]))
        self._dispatch()
        return req

    def release(self, request: Request) -> None:
        if request.key in self._granted:
            self._granted.discard(request.key)
            self._in_use -= request.count
            self._dispatch()
        else:
            self._cancel(request)

    def _cancel(self, request: Request) -> None:
        for i, (_, _, req) in enumerate(self._waiting):
            if req is request:
                del self._waiting[i]
                return

    def _dispatch(self) -> None:
        # Grant strictly in queue order; a large request at the head blocks
        # smaller ones behind it (no starvation of wide requests).
        while self._waiting:
            priority, key, req = self._waiting[0]
            if req.count > self.capacity - self._in_use:
                break
            self._waiting.pop(0)
            self._in_use += req.count
            self._granted.add(req.key)
            req.succeed()


class _ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, env: Environment, amount: float):
        super().__init__(env)
        self.amount = amount


class _ContainerPut(Event):
    __slots__ = ("amount",)

    def __init__(self, env: Environment, amount: float):
        super().__init__(env)
        self.amount = amount


class Container:
    """A continuous quantity between 0 and ``capacity``."""

    def __init__(self, env: Environment, capacity: float, init: float = 0.0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise ValueError("init outside [0, capacity]")
        self.env = env
        self.capacity = float(capacity)
        self._level = float(init)
        self._getters: list[_ContainerGet] = []
        self._putters: list[_ContainerPut] = []

    @property
    def level(self) -> float:
        return self._level

    def get(self, amount: float) -> _ContainerGet:
        if amount < 0:
            raise ValueError("amount must be non-negative")
        if amount > self.capacity:
            raise ValueError(f"get({amount}) exceeds capacity {self.capacity}")
        ev = _ContainerGet(self.env, amount)
        self._getters.append(ev)
        self._dispatch()
        return ev

    def put(self, amount: float) -> _ContainerPut:
        if amount < 0:
            raise ValueError("amount must be non-negative")
        if amount > self.capacity:
            raise ValueError(f"put({amount}) exceeds capacity {self.capacity}")
        ev = _ContainerPut(self.env, amount)
        self._putters.append(ev)
        self._dispatch()
        return ev

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._putters:
                put = self._putters[0]
                if self._level + put.amount <= self.capacity:
                    self._putters.pop(0)
                    self._level += put.amount
                    put.succeed()
                    progress = True
            if self._getters:
                get = self._getters[0]
                if get.amount <= self._level:
                    self._getters.pop(0)
                    self._level -= get.amount
                    get.succeed(get.amount)
                    progress = True


class _StoreGet(Event):
    __slots__ = ()


class _FilterGet(Event):
    __slots__ = ("predicate",)

    def __init__(self, env: Environment, predicate):
        super().__init__(env)
        self.predicate = predicate


class FilterStore(Generic[T]):
    """A store whose getters take the first item matching a predicate.

    Used for MPI-style mailboxes: a receive posted for ``(source, tag)``
    must not consume messages intended for another receive.
    """

    def __init__(self, env: Environment):
        self.env = env
        self.items: list[T] = []
        self._getters: list[_FilterGet] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: T) -> Event:
        ev = Event(self.env)
        self.items.append(item)
        ev.succeed(item)
        self._dispatch()
        return ev

    def get(self, predicate=lambda item: True) -> _FilterGet:
        ev = _FilterGet(self.env, predicate)
        self._getters.append(ev)
        self._dispatch()
        return ev

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            for getter in list(self._getters):
                for i, item in enumerate(self.items):
                    if getter.predicate(item):
                        self._getters.remove(getter)
                        del self.items[i]
                        getter.succeed(item)
                        progress = True
                        break
                if progress:
                    break


class Store(Generic[T]):
    """Unbounded-or-bounded FIFO queue of objects."""

    def __init__(self, env: Environment, capacity: float = float("inf")):
        self.env = env
        self.capacity = capacity
        self.items: list[T] = []
        self._getters: list[_StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: T) -> Event:
        ev = Event(self.env)
        if len(self.items) >= self.capacity:
            ev.fail(SimulationError("store full"))
            return ev
        self.items.append(item)
        ev.succeed(item)
        self._dispatch()
        return ev

    def get(self) -> _StoreGet:
        ev = _StoreGet(self.env)
        self._getters.append(ev)
        self._dispatch()
        return ev

    def _dispatch(self) -> None:
        while self._getters and self.items:
            getter = self._getters.pop(0)
            getter.succeed(self.items.pop(0))
