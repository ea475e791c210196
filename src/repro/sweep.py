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

Telemetry: with ``stream_spans`` set, every scenario streams its spans
through its own bounded :class:`~repro.telemetry.SpanPipeline` into a
private part file (``<path>.part-0003`` — named by plan index, not by
worker, so the naming is stable); the parent concatenates the parts in
canonical order into ``<path>`` and deletes them.  The merged stream is
identical for every ``jobs`` count.

The pool start method defaults to ``fork`` where the platform offers it
(cheap, and scenario determinism never depends on inherited state —
every scenario builds its own :class:`~repro.api.Platform` from its own
seed) and falls back to ``spawn`` elsewhere; pass ``start_method`` to
override.
"""

from __future__ import annotations

import multiprocessing
import os
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

    Returns ``(index, ok, payload)`` where payload is the point dict on
    success or the formatted original traceback on failure — exceptions
    must not escape, or the pool would swallow the real stack.
    """
    index, spec, stream_base = task
    try:
        stats = None
        if stream_base:
            # Local import keeps the telemetry stack out of workers that
            # never stream.
            from .telemetry import SpanPipeline, TelemetryCollector

            # A fresh collector numbers span/trace ids from 1, so each
            # part file is a pure function of (params, seed), independent
            # of process reuse — the merged stream is identical at any
            # jobs count.
            pipeline = SpanPipeline(stream_path=stream_part_path(stream_base, index))
            with TelemetryCollector(pipeline=pipeline):
                point = spec.execute()
            pipeline.close()
            stats = {
                "seen": pipeline.seen,
                "peak_retained": pipeline.peak_retained,
            }
        else:
            point = spec.execute()
        return index, True, point, stats
    except BaseException:  # noqa: BLE001 - the parent re-raises with this text
        return index, False, traceback.format_exc(), None


def _merge_stream_parts(base_path: str, count: int) -> tuple[int, int]:
    """Concatenate part files in canonical order; returns (spans, parts)."""
    spans = 0
    parts = 0
    with open(base_path, "w", encoding="utf-8") as merged:
        for index in range(count):
            part = stream_part_path(base_path, index)
            if not os.path.exists(part):
                continue
            parts += 1
            with open(part, "r", encoding="utf-8") as fh:
                for line in fh:
                    merged.write(line)
                    spans += 1
            os.remove(part)
    return spans, parts


def run_sweep(
    sweep: Union[str, Sweep],
    *,
    jobs: int = 1,
    stream_spans: Optional[str] = None,
    start_method: Optional[str] = None,
    stream_stats: Optional[Dict[str, int]] = None,
    **kwargs: Any,
) -> SweepResult:
    """Run a registered sweep, fanning scenarios across ``jobs`` workers.

    ``sweep`` is a registry name (``"chaos"``, ``"autoscale"``,
    ``"memdurability"``) or a :class:`~repro.experiments.base.Sweep`;
    ``kwargs`` are the sweep's ``plan_scenarios`` arguments.  ``jobs=1``
    executes in-process over the identical plan/merge path, so the
    :class:`~repro.experiments.base.SweepResult` — and, with
    ``stream_spans``, the merged span stream — is byte-identical at
    every jobs count.

    With ``stream_spans``, pass a ``stream_stats`` dict to receive the
    aggregated pipeline accounting (``seen`` spans, max
    ``peak_retained``, merged ``parts``).  The stream holds exactly the
    spans the scenarios closed; ``repro obs`` and
    :mod:`repro.telemetry.summary` analyse it after the run (SLO
    replay splits it back into scenarios where the clock restarts).

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
    scenario_stats: List[Dict[str, int]] = []

    def harvest(outcome) -> None:
        index, ok, payload, stats = outcome
        if not ok:
            raise SweepScenarioError(specs[index].label, payload)
        points[index] = payload
        if stats is not None:
            scenario_stats.append(stats)

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
        _spans, parts = _merge_stream_parts(stream_spans, len(specs))
        if stream_stats is not None:
            stream_stats.update(
                seen=sum(s["seen"] for s in scenario_stats),
                peak_retained=max((s["peak_retained"] for s in scenario_stats),
                                  default=0),
                parts=parts,
            )
    return sweep.assemble(points, plan.meta)
