"""The parallel sweep fabric: fan scenarios out, merge them in order.

Sweeps execute a list of independent, deterministic scenarios — the
evaluation matrix of the paper (fault rates × load multiples ×
replication factors) is exactly this shape, and serial execution leaves
every core but one idle.  :func:`run_sweep` runs any registered sweep
(:mod:`repro.experiments.base`) across a process pool:

1. **Plan in the parent.**  ``sweep.plan(**kwargs)`` fixes the
   canonical scenario order *and every scenario's seed* before a single
   worker exists, following the :meth:`repro.api.Platform.build`
   rng-fan-out discipline: randomness is derived from explicit seeds at
   plan time, never from worker identity, scheduling, or wall clock.
2. **Fan out.**  Each :class:`~repro.experiments.base.ScenarioSpec`
   (a module-level callable + picklable params + seed) crosses the pool
   boundary; workers return ``(index, point dict)`` over the pool's
   result queue as they finish, in whatever order the OS schedules.
3. **Merge in canonical order.**  Points are slotted by plan index, so
   ``sweep.assemble(points, meta)`` sees exactly the sequence serial
   execution would have produced — the final JSON is **byte-identical**
   at every ``jobs`` count: a fresh ``--jobs 2`` run of every sweep
   must hash to the same pin as the in-process ``jobs=1`` run
   (``tests/integration/test_sweep_goldens.py``).

Failure contract: a scenario that raises in a worker surfaces the
*original* traceback in the parent as :class:`SweepScenarioError` and
fails the whole sweep — no hang, no silently dropped point, no span
part file left behind.

Telemetry: with ``stream_spans`` set, every scenario runs under its own
:class:`~repro.telemetry.TelemetryCollector`, whose sink writes each span
to a private part file the moment it closes (``<path>.part-0003`` —
named by plan index, not by worker, so the naming is stable).  The
parent concatenates the parts in canonical order into ``<path>`` and
deletes them, and puts the scenarios' metric registries, as picklable
samples with their ``simN`` scopes numbered across the run, on
:attr:`SweepResult.metrics <repro.experiments.base.SweepResult.metrics>`.
Both are identical for every ``jobs`` count; this is the only way
telemetry leaves a sweep (``repro sweep --trace`` converts the merged
stream, ``--metrics-out`` renders the samples).

The pool start method defaults to ``fork`` where the platform offers it
(cheap, and scenario determinism never depends on inherited state —
every scenario builds its own :class:`~repro.api.Platform` from its own
seed) and falls back to ``spawn`` elsewhere; pass ``start_method`` to
override.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import traceback
from typing import Any, Dict, List, Optional, Union

from .experiments.base import SWEEPS, ScenarioSpec, Sweep, SweepResult, get_sweep

__all__ = ["SweepScenarioError", "run_sweep", "sweep_names", "stream_part_path"]


class SweepScenarioError(RuntimeError):
    """A scenario raised in a worker; carries the original traceback."""

    def __init__(self, label: str, details: str):
        super().__init__(
            f"sweep scenario {label!r} failed in a worker:\n{details.rstrip()}"
        )
        self.label = label
        self.details = details


def sweep_names() -> List[str]:
    """Registered sweep names, in :data:`~repro.experiments.base.SWEEPS` order."""
    return list(SWEEPS)


def stream_part_path(base_path: str, index: int) -> str:
    """The per-scenario span-stream part file (stable: named by index)."""
    return f"{base_path}.part-{index:04d}"


def _default_start_method() -> str:
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


def _execute_task(task) -> tuple:
    """Run one scenario (in a worker or inline); never raises.

    Returns ``(index, ok, payload, samples)`` where payload is the point
    dict on success or the formatted original traceback on failure —
    exceptions must not escape, or the pool would swallow the real
    stack — and samples are the scenario's metric registries when it
    streamed its spans.
    """
    index, spec, stream_base = task
    try:
        if not stream_base:
            return index, True, spec.execute(), None
        # Local import keeps the telemetry stack out of workers that
        # never stream.
        from .telemetry import JsonlStreamWriter, TelemetryCollector, registry_samples

        # A fresh collector numbers span/trace ids and scopes from the
        # start, so each part file is a pure function of (params, seed),
        # independent of process reuse — the merged stream is identical
        # at any jobs count.
        with JsonlStreamWriter(stream_part_path(stream_base, index)) as writer, \
                TelemetryCollector(sink=writer) as collector:
            point = spec.execute()
        return index, True, point, [registry_samples(r) for r in collector.registries()]
    except BaseException:  # noqa: BLE001 - the parent re-raises with this text
        return index, False, traceback.format_exc(), None


def _merge_stream_parts(base_path: str, count: int) -> None:
    """Concatenate the part files in canonical order, deleting each."""
    with open(base_path, "w", encoding="utf-8") as merged:
        for index in range(count):
            part = stream_part_path(base_path, index)
            with open(part, "r", encoding="utf-8") as fh:
                shutil.copyfileobj(fh, merged)
            os.remove(part)


def _number_scopes(scenario_samples: List[Optional[list]]) -> list:
    """The scenarios' registry samples, ``simN`` scopes numbered across the run.

    Each scenario's collector names its scopes by position (``sim0``,
    ``sim1``, ...); renaming them by position in the whole run, in plan
    order, gives the names one collector around the run would give.
    """
    numbered: list = []
    for samples in scenario_samples:
        for scope, rows in samples or ():
            if scope.startswith("sim"):
                scope = f"sim{len(numbered)}"
            numbered.append((scope, rows))
    return numbered


def run_sweep(
    sweep: Union[str, Sweep],
    *,
    jobs: int = 1,
    stream_spans: Optional[str] = None,
    start_method: Optional[str] = None,
    **kwargs: Any,
) -> SweepResult:
    """Run a registered sweep, fanning scenarios across ``jobs`` workers.

    ``sweep`` is a registry name (``"chaos"``, ``"autoscale"``,
    ``"memdurability"``) or a :class:`~repro.experiments.base.Sweep`;
    ``kwargs`` are the sweep's ``plan_scenarios`` arguments.  ``jobs=1``
    executes in-process over the identical plan/merge path, so the
    :class:`~repro.experiments.base.SweepResult` — and, with
    ``stream_spans``, the merged span stream and ``result.metrics`` — is
    byte-identical at every jobs count.

    The stream holds exactly the spans the scenarios closed, one run of
    ids per scenario; ``repro obs`` and :mod:`repro.telemetry.summary`
    analyse it after the run, splitting it back into scenarios where
    the clock restarts.

    Raises :class:`SweepScenarioError` (with the worker's original
    traceback) if any scenario fails; the pool is torn down, nothing
    hangs, and no point is silently dropped.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if isinstance(sweep, str):
        sweep = get_sweep(sweep)
    plan = sweep.plan(**kwargs)
    specs: tuple[ScenarioSpec, ...] = plan.scenarios
    tasks = [(index, spec, stream_spans) for index, spec in enumerate(specs)]
    points: List[Optional[Dict[str, Any]]] = [None] * len(specs)
    samples: List[Optional[list]] = [None] * len(specs)

    def harvest(outcome) -> None:
        index, ok, payload, scenario_samples = outcome
        if not ok:
            raise SweepScenarioError(specs[index].label, payload)
        points[index] = payload
        samples[index] = scenario_samples

    workers = min(jobs, len(specs))
    try:
        if workers <= 1:
            for outcome in map(_execute_task, tasks):
                harvest(outcome)
        else:
            ctx = multiprocessing.get_context(start_method or _default_start_method())
            # The context manager guarantees terminate() on error: a failing
            # scenario raises here instead of hanging the harvest loop.
            with ctx.Pool(processes=workers) as pool:
                for outcome in pool.imap_unordered(_execute_task, tasks):
                    harvest(outcome)
    except BaseException:
        # The pool is gone, so no worker still writes a part file.
        if stream_spans:
            for index in range(len(specs)):
                part = stream_part_path(stream_spans, index)
                if os.path.exists(part):
                    os.remove(part)
        raise

    if stream_spans:
        _merge_stream_parts(stream_spans, len(specs))
    result = sweep.assemble(points, plan.meta)
    result.metrics = _number_scopes(samples)
    return result
