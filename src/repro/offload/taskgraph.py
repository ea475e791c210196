"""Task-graph offloading (Sec. IV-F, "task-based applications").

"The number of tasks that can be offloaded depends on the width of the
task dependency graph — the wider the graph, the more parallelism is
exposed."  The paper's example is the distributed prefix scan of electron
microscopy image registration, whose width varies strongly between the
up-sweep and down-sweep phases.

This module layers a DAG topologically, exposes per-level widths, and
runs a level-synchronous schedule where tasks overflowing the local
worker pool are offloaded when Eq. 1 says the overflow is worth it.
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import TopologicalSorter
from typing import Hashable, Iterable, Optional

from .model import OffloadModel

__all__ = ["TaskGraph", "ScheduleResult", "prefix_scan_graph", "schedule_with_offloading"]


class TaskGraph:
    """A DAG of tasks with durations.

    A task's dependencies must already be defined, so the only cycle
    :meth:`add_task` could create is a self-dependency, which it rejects.
    """

    def __init__(self):
        self._duration: dict[Hashable, float] = {}
        self._deps: dict[Hashable, tuple[Hashable, ...]] = {}

    def add_task(self, task_id: Hashable, duration_s: float = 1.0,
                 deps: Iterable[Hashable] = ()) -> None:
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        if task_id in self._duration:
            raise ValueError(f"duplicate task {task_id!r}")
        deps = tuple(deps)
        for dep in deps:
            if dep == task_id:
                raise ValueError(f"adding {task_id!r} would create a cycle")
            if dep not in self._duration:
                raise KeyError(f"dependency {dep!r} not defined yet")
        self._duration[task_id] = duration_s
        self._deps[task_id] = deps

    def __len__(self) -> int:
        return len(self._duration)

    def duration(self, task_id: Hashable) -> float:
        return self._duration[task_id]

    def levels(self) -> list[list[Hashable]]:
        """Topological layering: level = longest path depth from sources."""
        sorter = TopologicalSorter(self._deps)
        sorter.prepare()
        levels = []
        while sorter.is_active():
            generation = sorter.get_ready()
            sorter.done(*generation)
            levels.append(sorted(generation, key=str))
        return levels

    def widths(self) -> list[int]:
        return [len(level) for level in self.levels()]


@dataclass(frozen=True)
class ScheduleResult:
    makespan_s: float
    offloaded_tasks: int
    local_tasks: int
    per_level_offloads: tuple[int, ...]


def schedule_with_offloading(
    graph: TaskGraph,
    local_workers: int,
    model: Optional[OffloadModel] = None,
) -> ScheduleResult:
    """Level-synchronous schedule with Eq.-1-guarded overflow offloading.

    Each level's tasks run on ``local_workers``; when a level is wider
    than the worker pool and the overflow passes the Eq.-1 threshold, the
    overflow runs remotely in parallel.  Levels synchronize (as the
    prefix-scan phases do), so the level time is the max of local and
    remote streams.
    """
    if local_workers < 1:
        raise ValueError("need >= 1 local worker")
    makespan = 0.0
    offloaded = 0
    local_done = 0
    per_level = []
    for level in graph.levels():
        durations = sorted((graph.duration(t) for t in level), reverse=True)
        n = len(durations)
        if model is not None and n > local_workers and model.should_offload(n):
            plan = model.split(n, local_workers=local_workers)
            n_local, n_remote = plan.n_local, plan.n_remote
        else:
            n_local, n_remote = n, 0
        # Local stream: greedy LPT bound (duration-aware list schedule).
        local_durs = durations[n_remote:]
        loads = [0.0] * min(local_workers, max(n_local, 1))
        for d in local_durs:
            loads[loads.index(min(loads))] += d
        local_time = max(loads) if local_durs else 0.0
        remote_time = 0.0
        if n_remote and model is not None:
            remote_time = model.latency + n_remote / model.remote_rate
            remote_time = max(remote_time, model.t_inv)
        makespan += max(local_time, remote_time)
        offloaded += n_remote
        local_done += n_local
        per_level.append(n_remote)
    return ScheduleResult(
        makespan_s=makespan,
        offloaded_tasks=offloaded,
        local_tasks=local_done,
        per_level_offloads=tuple(per_level),
    )


def prefix_scan_graph(n: int, task_duration_s: float = 1.0) -> TaskGraph:
    """Blelloch prefix-scan DAG over ``n`` leaves (n a power of two).

    Up-sweep halves the width each level; down-sweep doubles it back —
    the varying-width structure the paper highlights.
    """
    if n < 2 or n & (n - 1):
        raise ValueError("n must be a power of two >= 2")
    graph = TaskGraph()
    # Leaves.
    for i in range(n):
        graph.add_task(("leaf", 0, i), task_duration_s)
    # Up-sweep: level k combines pairs from level k-1.
    width = n
    level = 0
    prev_kind = "leaf"
    while width > 1:
        level += 1
        width //= 2
        for i in range(width):
            deps = [(prev_kind, level - 1, 2 * i), (prev_kind, level - 1, 2 * i + 1)]
            graph.add_task(("up", level, i), task_duration_s, deps=deps)
        prev_kind = "up"
    # Down-sweep mirrors the structure, widening again.
    top_level = level
    graph.add_task(("down", 0, 0), task_duration_s, deps=[("up", top_level, 0)])
    width = 1
    for lvl in range(1, top_level + 1):
        width *= 2
        for i in range(width):
            deps = [("down", lvl - 1, i // 2)]
            up_lvl = top_level - lvl
            if up_lvl >= 1:
                deps.append(("up", up_lvl, i))
            graph.add_task(("down", lvl, i), task_duration_s, deps=deps)
    return graph
