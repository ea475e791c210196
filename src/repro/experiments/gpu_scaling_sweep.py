"""GPU batching sweep: the batch-size vs throughput/latency tradeoff.

Kernel-as-a-service backends buy their throughput by *batching*:
queued inference invocations coalesce into one kernel launch, so the
per-launch fixed costs (dispatch setup, per-kernel launch overhead)
amortize and each extra batch element costs only a marginal fraction
of a full kernel pass.  This sweep drives the
:class:`~repro.gpuservice.GpuService` at a sequence of
``max_batch_size`` settings and maps the tradeoff:

* **throughput rises, then plateaus** — per-request device time falls
  as ``T(B)/B``, but the marginal term dominates for large ``B`` and
  the offered load caps at ``max_rate_rps``;
* **tail latency grows** — a request waits for its batch to fill
  ((B−1) arrival gaps at the front of a batch) and then rides a longer
  coalesced launch, so p99 climbs monotonically with ``B``.

Methodology (all arithmetic, no RNG): for each batch size the offered
rate is ``min(max_rate_rps, utilization · capacity(B))`` with
``capacity(B) = devices · B / S(B)``, where ``S(B)`` is the
steady-state per-batch service time (input transfer + dispatch setup +
coalesced kernel sequence).  Arrivals are evenly spaced open-loop, one
stream per function, two functions leased onto two devices — so every
scenario is a pure function of ``(params, seed)`` and the result JSON
is byte-identical at any ``--jobs`` count and across fresh
interpreters (pinned in ``tests/integration/test_sweep_goldens.py``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import count, islice

from ..api import Platform, PlatformConfig
from ..gpu.gpu_function import GpuFunctionSpec
from ..gpuservice import BatchPolicy, GpuServiceConfig
from ..gpuservice.service import batch_service_time
from ..loadgen import open_loop
from .base import ScenarioSpec, Sweep, SweepPlan

__all__ = [
    "GpuScalingPoint",
    "scenario",
    "plan_scenarios",
    "SWEEP",
]

#: Batch sizes swept (1 = the unbatched baseline).
DEFAULT_BATCH_SIZES = (1, 2, 4, 8, 16, 32, 64, 128)

#: Open-loop request streams: one per function, each on its own device.
FUNCTIONS = ("infer_a", "infer_b")

#: The inference function shape (one spec shared by both streams).
KERNEL_COUNT = 16
KERNEL_TIME_S = 0.0008
OCCUPANCY = 0.5
INPUT_BYTES = 1_000_000
DEVICE_MEMORY_BYTES = 256 * 1024**2

#: Target device utilization of the offered load.
UTILIZATION = 0.9


@dataclass(frozen=True)
class GpuScalingPoint:
    """Outcome of one ``max_batch_size`` setting."""

    label: str
    batch_size: int
    offered_rps: float
    throughput_rps: float
    p50_ms: float
    p99_ms: float
    mean_batch_size: float
    batches: int
    size_flushes: int
    timer_flushes: int
    completed: int


def _function_spec(name: str) -> GpuFunctionSpec:
    return GpuFunctionSpec(
        name=name,
        kernel_count=KERNEL_COUNT,
        kernel_time_s=KERNEL_TIME_S,
        occupancy=OCCUPANCY,
        input_bytes=INPUT_BYTES,
        device_memory_bytes=DEVICE_MEMORY_BYTES,
    )


def _offered_rate(batch_size: int, max_rate_rps: float) -> float:
    """Sustainable offered rate across both streams for one batch size."""
    service_s = batch_service_time(_function_spec(FUNCTIONS[0]), batch_size)
    capacity = len(FUNCTIONS) * batch_size / service_s
    return min(max_rate_rps, UTILIZATION * capacity)


def _percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def scenario(params: dict, seed: int) -> dict:
    """One batch-size setting as a pure function of ``(params, seed)``.

    ``params``: ``platform`` (a :class:`PlatformConfig` whose GPU
    service batches up to the setting), ``requests`` (per stream),
    ``max_rate_rps``.  Returns the :class:`GpuScalingPoint` as a dict.
    """
    per_stream: int = params["requests"]
    max_rate_rps: float = params["max_rate_rps"]
    platform = Platform.build(params["platform"], seed=seed)
    batch_size = platform.config.gpu.policy.max_batch_size
    env, service = platform.env, platform.gpu
    offered = _offered_rate(batch_size, max_rate_rps)
    gap_s = len(FUNCTIONS) / offered   # per-stream arrival gap
    latencies: list = []
    last_done = 0.0

    def record(done) -> None:
        nonlocal last_done
        latencies.append(done.value["latency_s"])
        last_done = env.now

    for function in FUNCTIONS:   # one open-loop stream per function
        service.register(_function_spec(function))
        open_loop(env, islice(count(env.now, gap_s), per_stream),
                  lambda _, function=function:
                  service.submit(function).done.add_callback(record))
    platform.run()

    # The makespan ends at the last completion, but no earlier than one
    # gap after the last arrival; pending no-op batch timers run the
    # clock past both, so it is not read after the run.
    makespan = 0.0
    for _ in range(per_stream):
        makespan += gap_s
    makespan = max(makespan, last_done)
    total = service.completed
    latencies.sort()
    batcher = service.batcher
    return asdict(GpuScalingPoint(
        label=f"B={batch_size}",
        batch_size=batch_size,
        offered_rps=round(offered, 6),
        throughput_rps=round(total / makespan, 6) if makespan > 0 else 0.0,
        p50_ms=round(_percentile(latencies, 0.50) * 1e3, 6),
        p99_ms=round(_percentile(latencies, 0.99) * 1e3, 6),
        mean_batch_size=round(total / service.batches, 6) if service.batches else 0.0,
        batches=service.batches,
        size_flushes=batcher.flushes_on_size,
        timer_flushes=batcher.flushes_on_timer,
        completed=total,
    ))


def plan_scenarios(
    batch_sizes=DEFAULT_BATCH_SIZES,
    requests: int = 4096,
    max_rate_rps: float = 800.0,
    seed: int = 0,
) -> SweepPlan:
    """Fix the canonical scenario order: one scenario per batch size."""
    max_rate_rps = float(max_rate_rps)
    batch_sizes = tuple(int(b) for b in batch_sizes)
    if any(b < 1 for b in batch_sizes):
        raise ValueError("batch sizes must be >= 1")
    if requests < 1:
        raise ValueError("need at least one request per stream")
    if max_rate_rps <= 0:
        raise ValueError("max_rate_rps must be positive")
    scenarios = tuple(
        ScenarioSpec(
            fn=scenario,
            params={
                "platform": PlatformConfig(
                    nodes=2, jitter=0.0, gpu=GpuServiceConfig(
                        gpu_nodes=2,
                        policy=BatchPolicy(max_batch_size=b, max_wait_s=1.0),
                    )),
                "requests": requests,
                "max_rate_rps": max_rate_rps,
            },
            seed=seed,
            label=f"B={b}",
        )
        for b in batch_sizes
    )
    return SweepPlan(scenarios=scenarios,
                     meta={"requests": requests, "seed": seed})


SWEEP = Sweep(
    name="gpu_scaling",
    description="GPU invocation batching: batch size vs throughput/latency",
    plan=plan_scenarios,
    point_type=GpuScalingPoint,
    columns=(
        ("batch", lambda p: p.batch_size),
        ("offered (r/s)", lambda p: f"{p.offered_rps:.1f}"),
        ("throughput (r/s)", lambda p: f"{p.throughput_rps:.1f}"),
        ("p50 (ms)", lambda p: f"{p.p50_ms:.2f}"),
        ("p99 (ms)", lambda p: f"{p.p99_ms:.2f}"),
        ("mean batch", lambda p: f"{p.mean_batch_size:.2f}"),
        ("size flushes", lambda p: p.size_flushes),
        ("timer flushes", lambda p: p.timer_flushes),
    ),
    title=("GPU invocation batching — {requests} requests per stream, "
           f"{len(FUNCTIONS)} streams"),
    footer=("Batching amortizes launch overheads: throughput rises with the"
            " batch size until the offered-rate cap, while p99 pays the"
            " batch-fill wait plus the longer coalesced launch."),
)
