"""Deterministic discrete-event simulation engine.

This is the substrate every simulated subsystem (cluster, scheduler,
network, FaaS platform) runs on.  The design follows the classic
process-interaction style popularized by SimPy: simulation *processes* are
Python generators that ``yield`` :class:`Event` objects and are resumed
when those events fire.  The engine is fully deterministic: events
scheduled for the same timestamp fire in FIFO order of scheduling, so a
seeded simulation replays bit-identically.

The engine is self-contained (no third-party dependencies) because the
reproduction environment is offline.

Hot-path design (see ``docs/performance.md``): the logical event order is
a single total order by ``(time, priority, seq)``, but physically the
queue is split into a binary heap for delayed/priority events and a FIFO
deque for the dominant zero-delay case (``succeed``/``fail``/process
completion/``Timeout(0)``).  Zero-delay priority-1 events are appended in
``seq`` order at non-decreasing ``now``, so the deque is already sorted
by the global key and a two-way merge at pop time reproduces the exact
single-heap order without paying ``heappush``/``heappop`` for most
events.  Events additionally keep a ``_waiter`` slot so the dominant
single-waiter case (one process blocked on one event) resumes without
touching the callback list.

Background loops wait on :meth:`Environment.tick`, a delayed
:class:`Timeout` that is a *background entry*; every other entry is
live, whichever process creates it.  An open-ended
:meth:`Environment.run` returns once only background entries remain, so
no caller has to stop a loop before draining.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
]


# Shared sentinel for "no callbacks registered yet": events start with
# this immutable empty tuple instead of allocating a fresh list, and only
# upgrade to a real list when a second waiter registers (the first goes
# into the ``_waiter`` slot).  ``callbacks is None`` still means
# "processed".
_NO_CALLBACKS: tuple = ()


class SimulationError(RuntimeError):
    """Raised for illegal engine operations (e.g. double-trigger)."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence at a point in simulated time.

    Events move through three states: *pending* (created), *triggered*
    (scheduled with a value, waiting in the event queue), and *processed*
    (callbacks executed).  Processes wait on events by yielding them.

    ``callbacks is None`` means the event has been consumed by the queue
    (its callbacks are being/have been run); before that, the first
    waiter is held in ``_waiter`` and any further ones in ``callbacks``,
    fired in registration order.
    """

    __slots__ = ("env", "callbacks", "_waiter", "_value", "_ok", "_triggered",
                 "_processed", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks = _NO_CALLBACKS
        self._waiter: Optional[Callable[["Event"], None]] = None
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        self._defused = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        if not self._triggered:
            raise SimulationError("value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("value not yet available")
        return self._value

    @property
    def defused(self) -> bool:
        """Whether a failure of this event has been handled; an event
        that fails undefused is raised out of :meth:`Environment.run`."""
        return self._defused

    @defused.setter
    def defused(self, value: bool) -> None:
        self._defused = value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Schedule the event to fire successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self._triggered = True
        env = self.env
        env._seq += 1
        env._immediate.append((env._now, env._seq, self))
        return self

    def succeed_in(self, delay: float, value: Any = None) -> "Event":
        """Schedule the event to fire successfully with ``value`` after
        ``delay``: the event is its own timer, so whoever yields it
        resumes from the timer itself, with no event relaying it."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._value = value
        self._triggered = True
        self.env._schedule(self, delay)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Schedule the event to fire with an exception."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exc
        self._triggered = True
        env = self.env
        env._seq += 1
        env._immediate.append((env._now, env._seq, self))
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event fires, in the slot a
        process yielding it now would take: the ``_waiter`` slot if it
        is free, else the end of the callback list.  On an event already
        processed it runs at once, as a yielding process resumes."""
        callbacks = self.callbacks
        if callbacks is None:
            callback(self)
        elif self._waiter is None and not callbacks:
            self._waiter = callback
        elif callbacks:
            callbacks.append(callback)
        else:
            self.callbacks = [callback]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.env.now}>"


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Inlined Event.__init__ + Environment._schedule: a Timeout is
        # born triggered, so the generic pending-state setup would be
        # pure overhead on the engine's most common allocation.
        self.env = env
        self.callbacks = _NO_CALLBACKS
        self._waiter = None
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self._defused = False
        self.delay = delay
        env._seq += 1
        if delay == 0.0:
            env._immediate.append((env._now, env._seq, self))
        else:
            heapq.heappush(env._queue, (env._now + delay, env._seq, self))


class Initialize(Event):
    """Internal: first resumption of a new process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        self.env = env
        self.callbacks = _NO_CALLBACKS
        self._waiter = process._resume
        self._value = None
        self._ok = True
        self._triggered = True
        self._processed = False
        self._defused = False
        env._seq += 1
        env._immediate.append((env._now, env._seq, self))


class _Interruption(Event):
    """Internal: throws an :class:`Interrupt` into a process."""

    __slots__ = ()


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A simulation process wrapping a generator of events.

    The process itself is an event that fires (with the generator's return
    value) when the generator finishes, so processes can wait on each
    other simply by yielding them.
    """

    __slots__ = ("_generator", "_send", "_throw", "_target", "_resume", "name")

    def __init__(self, env: "Environment", generator: ProcessGenerator, name: str = ""):
        try:
            self._send = generator.send
            self._throw = generator.throw
        except AttributeError:
            raise TypeError(f"{generator!r} is not a generator") from None
        self.env = env
        self.callbacks = _NO_CALLBACKS
        self._waiter = None
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self._defused = False
        self._generator = generator
        # One bound method for the process's lifetime: waits register this
        # exact object, so detach can compare with ``is`` and every wait
        # skips a bound-method allocation.  It is a reference cycle
        # (process -> method -> process) until the process finishes and
        # drops it.
        self._resume = self._resume_event
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        A process that has not started yet first runs to its first
        ``yield`` and is interrupted there, so its ``try`` sees it.
        """
        if self._triggered:
            raise SimulationError("cannot interrupt a finished process")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        if type(self._target) is Initialize:
            # Throwing into a fresh generator would bypass its ``try``:
            # re-issue the interrupt behind the queued Initialize.
            def deliver(_event: Event) -> None:
                if not self._triggered:
                    self.interrupt(cause)

            later = Event(self.env)
            later._waiter = deliver
            later.succeed()
            return
        event = _Interruption(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event._triggered = True
        event._waiter = self._resume
        self.env._schedule(event, priority=0)
        # Detach from the event the process was waiting on.
        target = self._target
        if target is not None:
            if target._waiter is self._resume:
                target._waiter = None
            elif target.callbacks:
                try:
                    target.callbacks.remove(self._resume)
                except ValueError:
                    pass
        self._target = None

    # -- engine internals ---------------------------------------------------
    def _resume_event(self, event: Event) -> None:
        if event is not self._target and (type(event) is not _Interruption
                                          or self._triggered):
            # A stale wake-up: interrupted while ``event`` ran a callback
            # list the dispatch had already taken, or interrupted again
            # after the first interrupt ended the process.
            return
        env = self.env
        env._active_process = self
        while True:
            try:
                if event._ok:
                    next_event = self._send(event._value)
                else:
                    event._defused = True
                    next_event = self._throw(event._value)
            except StopIteration as stop:
                env._active_process = None
                # A finished process never resumes, so it drops its
                # self-cycle and refcounting alone can free it.
                self._resume = self._target = None
                self._ok = True
                self._value = stop.value
                self._triggered = True
                env._seq += 1
                env._immediate.append((env._now, env._seq, self))
                return
            except BaseException as exc:
                env._active_process = None
                self._resume = self._target = None
                self._ok = False
                self._value = exc
                self._triggered = True
                env._seq += 1
                env._immediate.append((env._now, env._seq, self))
                return

            if not isinstance(next_event, Event):
                env._active_process = None
                exc = SimulationError(f"process {self.name!r} yielded non-event {next_event!r}")
                self._resume = self._target = None
                self._ok = False
                self._value = exc
                self._triggered = True
                env._seq += 1
                env._immediate.append((env._now, env._seq, self))
                return

            callbacks = next_event.callbacks
            if callbacks is not None:
                # Event still pending/triggered-but-unprocessed: wait for
                # it.  The single-waiter slot keeps the dominant one
                # process / one event case off the callback list, which
                # is only allocated for the second waiter onward.
                if next_event._waiter is None and not callbacks:
                    next_event._waiter = self._resume
                elif callbacks:
                    callbacks.append(self._resume)
                else:
                    next_event.callbacks = [self._resume]
                self._target = next_event
                env._active_process = None
                return
            # Event already processed: loop immediately with its value.
            event = next_event


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("_events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        for ev in self._events:
            if ev.env is not env:
                raise SimulationError("events belong to different environments")
        self._pending = len(self._events)
        for ev in self._events:
            ev.add_callback(self._check)
        if not self._triggered and self._pending == 0:
            self._finish()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._pending -= 1
        if self._satisfied(event):
            self._finish()

    def _results(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self._events if ev._triggered}

    def _finish(self) -> None:
        self.succeed(self._results())

    def _satisfied(self, event: Event) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every component event has fired."""

    __slots__ = ()

    def _satisfied(self, event: Event) -> bool:
        return self._pending == 0


class AnyOf(_Condition):
    """Fires when the first component event fires."""

    __slots__ = ()

    def _satisfied(self, event: Event) -> bool:
        return True


class Environment:
    """The simulation clock and event queue.

    Two physical queues back one logical order (see the module
    docstring): ``_queue`` is a heap of ``(time, priority, seq, event)``
    and ``_immediate`` a deque of ``(time, seq, event)`` zero-delay
    priority-1 entries, already sorted by the same key.
    ``_ticks`` counts the background entries (:meth:`tick`) among
    ``_queue``'s entries.
    """

    def __init__(self):
        self._now = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._immediate: deque[tuple[float, int, Event]] = deque()
        self._urgent: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._ticks = 0
        self._active_process: Optional[Process] = None
        self._id_streams: dict[str, int] = {}

    def next_id(self, stream: str) -> int:
        """Sequential ids (1, 2, ...) from a named per-environment stream.

        Each environment counts its own streams, as each component draws
        from its own injected ``np.random.Generator``: ids are
        deterministic across test orderings and fresh-interpreter
        comparisons — unlike a module-global ``itertools.count``, which
        accumulates across every environment built in the process.
        """
        value = self._id_streams.get(stream, 0) + 1
        self._id_streams[stream] = value
        return value

    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    @property
    def event_count(self) -> int:
        """Events scheduled so far (after an open-ended :meth:`run`: the
        events processed plus the ticks still queued)."""
        return self._seq

    # -- factories -----------------------------------------------------------
    def event(self, callback: Optional[Callable[[Event], None]] = None) -> Event:
        """An untriggered event; ``callback``, if given, runs before any
        process that yields it, as a timer's does."""
        event = Event(self)
        event._waiter = callback
        return event

    def timeout(self, delay: float) -> Timeout:
        return Timeout(self, delay)

    def tick(self, delay: float) -> Timeout:
        """A :class:`Timeout` that is a background entry: a loop that
        waits on ticks never keeps an open-ended :meth:`run` alive.

        ``delay`` must be positive: a zero-delay entry would go to the
        immediate deque, which the drain loop always serves.
        """
        if not delay > 0:
            raise ValueError(f"tick delay must be positive, got {delay}")
        event = Timeout(self, delay)
        # Counted until it fires, so the drain loop can tell a heap
        # holding only ticks.
        self._ticks += 1
        event.callbacks = [self._tick_fired]
        return event

    def timer(self, delay: float, callback: Callable[[Event], None],
              value: Any = None) -> Event:
        """An event that fires with ``value`` after ``delay``, running
        ``callback`` before any process that yields it; it stands in for
        the process a one-shot wait would otherwise cost.  It is a
        :class:`Timeout` with its callback in the waiter slot, so it is
        built and scheduled as cheaply as one.
        """
        event = Timeout(self, delay, value)
        event._waiter = callback
        return event

    def urgent(self, callback: Callable[[Event], None], value: Any = None) -> Event:
        """An event that fires with ``value`` now, ahead of every ordinary
        entry at this instant, running ``callback``: the slot in which
        :meth:`Process.interrupt` delivers its :class:`Interrupt`, for a
        timer chain that interrupts without a process.  Urgent entries
        at one instant fire in the order they were made.
        """
        event = Event(self)
        event._waiter = callback
        event._value = value
        event._triggered = True
        self._schedule(event, priority=0)
        return event

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ------------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = 1) -> None:
        self._seq += 1
        if priority == 1:
            # The two hot queues carry no priority element: within
            # priority 1 the (time, seq) pair alone fixes the order.
            if delay == 0.0:
                self._immediate.append((self._now, self._seq, event))
            else:
                heapq.heappush(self._queue, (self._now + delay, self._seq, event))
        else:
            # Rare lane (only interrupts and urgent() use it): keeps the full
            # (time, priority, seq) key.
            heapq.heappush(self._urgent, (self._now + delay, priority, self._seq, event))

    def _tick_fired(self, event: Event) -> None:
        """First callback of every tick."""
        self._ticks -= 1

    def _pop_next(self) -> Event:
        """Pop the globally next event, advancing the clock to it.

        Three-way merge by the logical (time, priority, seq) key; the
        urgent lane is almost always empty.
        """
        queue = self._queue
        immediate = self._immediate
        # Best priority-1 candidate.
        t1 = s1 = None
        from_queue = False
        if immediate:
            t1, s1, _ = immediate[0]
            if queue:
                head = queue[0]
                if head[0] < t1 or (head[0] == t1 and head[1] < s1):
                    t1, s1 = head[0], head[1]
                    from_queue = True
        elif queue:
            head = queue[0]
            t1, s1 = head[0], head[1]
            from_queue = True
        urgent = self._urgent
        if urgent:
            t_u, p_u, s_u, _ = urgent[0]
            if t1 is None or (t_u, p_u, s_u) < (t1, 1, s1):
                self._now, _, _, event = heapq.heappop(urgent)
                return event
        if t1 is None:
            raise SimulationError("no scheduled events")
        if from_queue:
            self._now, _, event = heapq.heappop(queue)
        else:
            _, _, event = immediate.popleft()
            self._now = t1
        return event

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        t = self._queue[0][0] if self._queue else float("inf")
        if self._immediate:
            t_i = self._immediate[0][0]
            if t_i < t:
                t = t_i
        if self._urgent:
            t_u = self._urgent[0][0]
            if t_u < t:
                t = t_u
        return t

    def step(self) -> None:
        """Process the single next event."""
        event = self._pop_next()
        waiter = event._waiter
        callbacks = event.callbacks
        event.callbacks = None
        if waiter is not None:
            event._waiter = None
            waiter(event)
        for callback in callbacks:
            callback(event)
        event._processed = True
        if not event._ok and not event._defused:
            raise event._value

    def _drain(self, horizon: float = float("inf")) -> None:
        """Process events up to ``horizon``, or, with no horizon (``inf``),
        until only ticks remain.

        The one event loop: everything loop-invariant (queue bindings,
        ``heappop``) is hoisted and the per-event body inlines
        :meth:`step`.  Immediate and urgent entries sit at ``now``, which
        never passes the horizon, so only the heap-only branch checks it;
        that branch is also the only one that can hold nothing but ticks.
        """
        queue = self._queue
        immediate = self._immediate
        urgent = self._urgent
        heappop = heapq.heappop
        bounded = horizon != float("inf")
        while True:
            if urgent:
                event = self._pop_next()
            elif immediate:
                t_i, s_i, event = immediate[0]
                if queue:
                    head = queue[0]
                    t_h = head[0]
                    if t_h < t_i or (t_h == t_i and head[1] < s_i):
                        self._now, _, event = heappop(queue)
                    else:
                        immediate.popleft()
                        self._now = t_i
                else:
                    immediate.popleft()
                    self._now = t_i
            elif queue and (queue[0][0] <= horizon if bounded
                            else len(queue) > self._ticks):
                self._now, _, event = heappop(queue)
            else:
                break
            waiter = event._waiter
            callbacks = event.callbacks
            event.callbacks = None
            if waiter is not None:
                event._waiter = None
                waiter(event)
            for callback in callbacks:
                callback(event)
            event._processed = True
            if not event._ok and not event._defused:
                raise event._value

    def run(self, until: Optional[float] = None) -> Any:
        """Run until ``until`` (a time or an event), or until only ticks
        remain.  Loops tick up to a finite time horizon (``until=inf`` is
        no horizon), but an event only they could fire makes
        ``run(until=event)`` raise."""
        if until is None or until == float("inf"):
            self._drain()
            return None
        if isinstance(until, Event):
            while not until._processed:
                if not (self._immediate or self._urgent
                        or len(self._queue) > self._ticks):
                    raise SimulationError(
                        "event queue drained before the awaited event fired"
                    )
                self.step()
            return until.value
        stop_time = float(until)
        if stop_time < self._now:
            raise ValueError(f"until={stop_time} lies in the past (now={self._now})")
        self._drain(stop_time)
        self._now = stop_time
        return None
