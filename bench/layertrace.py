"""Per-layer self time of the simulator, traced from outside the program.

A layer is one ``repro.<pkg>`` package (:data:`LAYERS`); everything else
(the ``repro.experiments`` scenario code, packages no layer covers, and
the benchmark itself) is the ``driver`` layer.  :meth:`LayerTracer.install`
wraps, at run time, every public function and method of every class or
function a layer exports in its ``__all__``; nothing under ``src/`` is
edited.  In addition:

* ``Environment.process`` wraps each process body, so that every resume
  is timed under the layer whose module defines the generator, and the
  process becomes the request id of the spans opened while it runs;
* a call that returns a generator is itself wrapped, so every
  ``send``/``throw`` resume is timed under the callee's layer (this is
  what makes ``yield from admission.admit(...)`` count as ``capacity``);
* a span opens only when the callee's layer differs from the layer on
  top of the stack, and the wall time since the previous layer
  transition is charged to the layer that was on top.  Layer self times
  therefore add up to the root span's wall time by construction.

Counters are aggregated online.  Full spans are kept only for a
deterministic 1-in-:data:`SAMPLE_EVERY` sample of request ids, at most
:data:`MAX_SPANS` of them.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import json
import sys
import time
import types
import weakref
from collections import Counter

LAYERS = ("sim", "capacity", "shard", "rfaas", "network", "interference",
          "telemetry", "gpuservice", "gpu", "loadgen", "faults", "cluster")
DRIVER = "driver"
ALL_LAYERS = LAYERS + (DRIVER,)

SAMPLE_EVERY = 100
MAX_SPANS = 200_000

_clock = time.perf_counter


def layer_of(module_name: str) -> str:
    """``repro.capacity.admission`` -> ``capacity``; anything else -> driver."""
    parts = module_name.split(".", 2)
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return DRIVER


class LayerTracer:
    """Self time and span counts per layer, for one traced run."""

    def __init__(self):
        self.self_s = dict.fromkeys(ALL_LAYERS, 0.0)
        self.calls = dict.fromkeys(ALL_LAYERS, 0)
        self.span_counts: Counter = Counter()  # span name -> spans opened
        self.spans: list = []
        self.environments: list = []
        # Frames are (layer, span id, start, name, request id); the
        # bottom one is the root span opened by start().  The list object
        # is never replaced: wrappers hold a reference to it.
        self._stack: list = []
        self._rid = None
        self._next_span = 0
        self._next_rid = 0
        self._last = 0.0
        self._t0 = 0.0
        # timed generator -> its [request id] cell, see timed_generator()
        self._rid_cells = weakref.WeakKeyDictionary()
        self._patches: list = []
        self._patched: set = set()
        self._wrappers: dict = {}

    # -- span bookkeeping --------------------------------------------------
    # Callers open a span only when ``layer`` differs from the top's.
    def _enter(self, layer: str, name: str) -> None:
        now = _clock()
        stack = self._stack
        self.self_s[stack[-1][0]] += now - self._last
        self._last = now
        self.calls[layer] += 1
        self.span_counts[name] += 1
        self._next_span += 1
        stack.append((layer, self._next_span, now, name, self._rid))

    def _leave(self) -> None:
        stack = self._stack
        layer, span_id, start, name, rid = stack.pop()
        now = _clock()
        self.self_s[layer] += now - self._last
        self._last = now
        if rid is not None and rid % SAMPLE_EVERY == 0 and len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, start - self._t0, now - self._t0,
                               stack[-1][1], rid))

    def start(self) -> None:
        """Open the root (``driver``) span; call right before the scenario."""
        self._t0 = self._last = _clock()
        self._stack[:] = [(DRIVER, 0, self._t0, DRIVER, None)]
        self.calls[DRIVER] += 1

    def stop(self) -> float:
        """Close the root span; returns its wall time.

        The root frame stays on the stack, so a suspended generator that
        is finalized later still finds one.
        """
        now = _clock()
        self.self_s[self._stack[-1][0]] += now - self._last
        self._last = now
        del self._stack[1:]
        return now - self._t0

    # -- wrappers ------------------------------------------------------------
    def timed_generator(self, gen, layer: str, name: str, rid=None):
        """A generator that runs ``gen``, timing every resume under ``layer``.

        With a request id it is a process body: spans opened while it
        runs carry that id.  ``Environment.process`` sets the id of a
        timed generator it is handed, instead of wrapping it again.
        """
        rid_cell = [rid]
        wrapped = self._resumes(gen, layer, name, rid_cell)
        wrapped.__name__ = getattr(gen, "__name__", name)
        wrapped.__qualname__ = getattr(gen, "__qualname__", name)
        self._rid_cells[wrapped] = rid_cell
        return wrapped

    def _resumes(self, gen, layer, name, rid_cell):
        stack, enter, leave = self._stack, self._enter, self._leave
        send, throw = gen.send, gen.throw
        value = error = None
        while True:
            rid = rid_cell[0]
            if rid is not None:
                outer_rid, self._rid = self._rid, rid
            opened = stack[-1][0] is not layer
            if opened:
                enter(layer, name)
            try:
                yielded = send(value) if error is None else throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                if opened:
                    leave()
                if rid is not None:
                    self._rid = outer_rid
            value = error = None
            try:
                value = yield yielded
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # thrown in: forward on next resume
                error = exc

    def wrap(self, fn, layer: str, name: str):
        """``fn`` timed under ``layer``; a returned generator is wrapped too."""
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                return self.timed_generator(fn(*args, **kwargs), layer, name)
            return generator_wrapper

        stack, enter, leave = self._stack, self._enter, self._leave

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack[-1][0] is layer:
                result = fn(*args, **kwargs)
            else:
                enter(layer, name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave()
            if type(result) is types.GeneratorType:
                result = self.timed_generator(result, layer, name)
            return result
        return wrapper

    # -- installation --------------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        self._patched.add((id(owner), attr))
        setattr(owner, attr, value)

    def _wrap_class(self, cls: type, layer: str) -> None:
        if issubclass(cls, (BaseException, enum.Enum)):
            return
        for attr, member in list(cls.__dict__.items()):
            if attr.startswith("_") or (id(cls), attr) in self._patched:
                continue
            name = f"{layer}.{cls.__qualname__}.{attr}"
            if isinstance(member, staticmethod):
                self._patch(cls, attr, staticmethod(self.wrap(member.__func__, layer, name)))
            elif isinstance(member, classmethod):
                self._patch(cls, attr, classmethod(self.wrap(member.__func__, layer, name)))
            elif isinstance(member, types.FunctionType):
                self._patch(cls, attr, self.wrap(member, layer, name))

    def _wrap_environment(self, env_cls: type) -> None:
        tracer = self
        init, process = env_cls.__init__, env_cls.process

        @functools.wraps(init)
        def traced_init(env, *args, **kwargs):
            init(env, *args, **kwargs)
            tracer.environments.append(env)

        @functools.wraps(process)
        def traced_process(env, generator, name=""):
            frame = getattr(generator, "gi_frame", None)
            if frame is not None:
                rid = tracer._next_rid
                tracer._next_rid += 1
                rid_cell = tracer._rid_cells.get(generator)
                if rid_cell is not None:
                    rid_cell[0] = rid
                else:
                    layer = layer_of(frame.f_globals.get("__name__", ""))
                    generator = tracer.timed_generator(
                        generator, layer, f"{layer}.{generator.__qualname__}", rid)
            return process(env, generator, name)

        self._patch(env_cls, "__init__", traced_init)
        self._patch(env_cls, "process", traced_process)

    def install(self) -> None:
        """Wrap every layer's exports (imports the layer packages)."""
        from repro.sim.engine import Environment

        # First, so that the generic pass below skips these two methods.
        self._wrap_environment(Environment)
        seen: set = set()
        for package in LAYERS:
            module = importlib.import_module(f"repro.{package}")
            for export in module.__all__:
                obj = getattr(module, export)
                if id(obj) in seen:
                    continue
                seen.add(id(obj))
                layer = layer_of(getattr(obj, "__module__", None) or "")
                if layer == DRIVER:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(obj, layer)
                elif isinstance(obj, types.FunctionType):
                    self._wrappers[obj] = self.wrap(obj, layer, f"{layer}.{obj.__qualname__}")
        # ``from x import fn`` copied the function into other modules:
        # rebind every such global to its wrapper.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in self._wrappers:
                    self._patch(mod, attr, self._wrappers[value])

    def uninstall(self) -> None:
        """Undo every patch, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------
    def events(self) -> int:
        """Simulated events scheduled across every environment created."""
        return sum(env.event_count for env in self.environments)

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            for span_id, name, start, end, parent, rid in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "start": round(start, 9),
                    "end": round(end, 9), "parent": parent, "request": rid,
                }) + "\n")
