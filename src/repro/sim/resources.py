"""A predicate-matching mailbox for the simulation engine.

:class:`FilterStore` holds Python objects; each ``get`` takes the first
item its predicate accepts, and getters are served in request order.
MPI-style receives (:mod:`repro.mpifn`) post one getter per
``(source, tag)`` so that a receive never consumes another's message.
"""

from __future__ import annotations

from typing import Generic, TypeVar

from .engine import Environment, Event

__all__ = ["FilterStore"]

T = TypeVar("T")


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
