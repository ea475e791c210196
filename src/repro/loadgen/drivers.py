"""Load drivers as engine timer chains (ordering contract: see the
package docstring)."""

from __future__ import annotations

from typing import Any, Callable, Iterable

from ..sim.engine import Environment, Event

__all__ = ["open_loop", "closed_loop"]


def open_loop(env: Environment, times: Iterable[float],
              submit: Callable[[int], Any]) -> None:
    """Call ``submit(i)`` at the ``i``-th of the non-decreasing absolute
    ``times`` (read lazily), whether or not earlier submissions have
    completed.  An arrival already due is submitted inline."""
    arrivals = enumerate(times)

    def advance(event: Event) -> None:
        # The start timer carries no arrival; an arrival's timer its index.
        if event.value is not None:
            submit(event.value)
        for index, at in arrivals:
            delay = at - env.now
            if delay > 0:
                env.timer(delay, advance, index)
                return
            submit(index)

    env.timer(0.0, advance)


def closed_loop(env: Environment, call: Callable[[], Event],
                record: Callable[[Any], Any], until: float,
                pause_s: float = 0.0) -> None:
    """Issue ``call()`` while ``env.now < until``.  Each time its event
    fires, run ``record(value)``, then issue the next call after
    ``pause_s``.  A failed call ends the stream, and its exception is
    raised out of :meth:`~repro.sim.engine.Environment.run`."""

    def issue(_event: Event) -> None:
        if env.now < until:
            call().add_callback(done)

    def done(event: Event) -> None:
        if event.ok:
            record(event.value)
            if pause_s > 0:
                env.timer(pause_s, issue)
            else:
                issue(event)

    env.timer(0.0, issue)
