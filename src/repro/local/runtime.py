"""A real, process-based rFaaS-style runtime.

Where the simulated platform (:mod:`repro.rfaas`) provides cluster-scale
fidelity, this runtime actually executes registered Python functions in
worker *processes* — the live substrate for the offloading case studies
(Fig. 13) and the examples.  The rFaaS concepts map directly:

* **registration** — functions are registered as ``"module:attr"``
  import strings, the moral equivalent of shipping a code container;
* **cold start** — the first invocation pays worker-process spawn +
  interpreter boot + imports (measured and exposed in ``stats``);
* **warm executors** — worker processes persist between invocations;
* **leases** — a runtime instance holds ``workers`` CPU slots until
  ``shutdown`` (graceful: drains in-flight work) — batch reclamation in
  miniature.

Functions must be addressable as import strings because worker processes
start fresh interpreters (spawn context), exactly like a container pulling
the function's code: closures cannot be smuggled in, just as they cannot
be shipped to a remote executor.
"""

from __future__ import annotations

import importlib
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Any, Optional

__all__ = ["LocalRuntime", "RuntimeStats", "resolve_target"]


def resolve_target(target: str):
    """Import ``"module:attr"`` and return the callable."""
    module_name, _, attr = target.partition(":")
    if not module_name or not attr:
        raise ValueError(f"target must look like 'pkg.module:func', got {target!r}")
    module = importlib.import_module(module_name)
    try:
        func = getattr(module, attr)
    except AttributeError:
        raise AttributeError(f"{module_name!r} has no attribute {attr!r}") from None
    if not callable(func):
        raise TypeError(f"{target!r} is not callable")
    return func


def _worker_call(target: str, args: tuple, kwargs: dict) -> Any:
    """Executed inside a worker process: resolve then run."""
    return resolve_target(target)(*args, **kwargs)


@dataclass
class RuntimeStats:
    cold_start_s: Optional[float] = None
    invocations: int = 0
    errors: int = 0


class LocalRuntime:
    """Warm pool of worker processes executing registered functions."""

    def __init__(self, workers: int = 2):
        if workers < 1:
            raise ValueError("need >= 1 worker")
        self.workers = workers
        self._ctx = get_context("spawn")
        self._pool: Optional[ProcessPoolExecutor] = None
        self._functions: dict[str, str] = {}
        self.stats = RuntimeStats()

    # -- registration ---------------------------------------------------------
    def register(self, name: str, target: str) -> None:
        """Register ``name`` -> ``"module:attr"``; validated eagerly."""
        if name in self._functions:
            raise ValueError(f"function {name!r} already registered")
        resolve_target(target)  # fail fast on typos
        self._functions[name] = target

    def registered(self) -> list[str]:
        return sorted(self._functions)

    # -- pool lifecycle -----------------------------------------------------------
    @property
    def warm(self) -> bool:
        return self._pool is not None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            t0 = time.perf_counter()
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=self._ctx
            )
            # Force worker start so the cold-start measurement is honest.
            list(self._pool.map(int, range(self.workers)))
            self.stats.cold_start_s = time.perf_counter() - t0
        return self._pool

    def prewarm(self) -> float:
        """Start the workers ahead of time; returns the cold-start cost."""
        self._ensure_pool()
        return self.stats.cold_start_s or 0.0

    def shutdown(self, wait: bool = True) -> None:
        """Graceful drain (wait=True) or immediate teardown."""
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=not wait)
            self._pool = None

    def __enter__(self) -> "LocalRuntime":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- invocation -----------------------------------------------------------------
    def invoke(self, name: str, *args: Any, **kwargs: Any) -> Future:
        """Asynchronous invocation; returns a Future."""
        target = self._functions.get(name)
        if target is None:
            raise KeyError(f"function {name!r} not registered")
        pool = self._ensure_pool()
        self.stats.invocations += 1
        future = pool.submit(_worker_call, target, args, kwargs)

        def count_errors(f: Future) -> None:
            if f.exception() is not None:
                self.stats.errors += 1

        future.add_done_callback(count_errors)
        return future

    def invoke_sync(self, name: str, *args: Any, **kwargs: Any) -> Any:
        return self.invoke(name, *args, **kwargs).result()

    def map(self, name: str, payloads: list, **kwargs: Any) -> list:
        """Invoke over every payload; preserves order; propagates errors."""
        futures = [self.invoke(name, payload, **kwargs) for payload in payloads]
        return [f.result() for f in futures]
