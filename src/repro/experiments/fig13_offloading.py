"""Experiment Fig. 13: accelerating real applications with rFaaS offloading.

The live counterpart of the paper's integration study: Black-Scholes
(PARSEC-style, Fig. 13a) and a Monte Carlo particle-transport mini-app
(OpenMC opr stand-in, Fig. 13b/c) are executed three ways:

* **serial** — one in-process loop: the single-threaded baseline
  (Python's GIL makes in-process threads a dishonest stand-in for OpenMP
  threads, so the local side is one worker by construction);
* **remote** — complete remote execution: every chunk shipped to the
  process-based runtime (N warm executors), paying serialization — the
  paper's "complete remote execution with rFaaS";
* **doubled** — the paper's headline configuration: the local worker
  keeps computing while N remote executors absorb the overflow, split by
  the Eq.-1 model so the application never waits.

Expected shape: remote ≈ Nx over serial for compute-heavy chunks (less
when payload transfer dominates — the network-saturation regime);
doubled beats both by adding the free remote resources to local work.

Because measured wall-clock parallelism is bounded by the host's physical
cores (a 1-core CI container cannot show *any* speedup), every result
also carries the Eq.-1 model's *predicted* speedup computed from the
measured T_local / T_inv / payload size; on an unconstrained host the
measured value approaches the prediction.

Sweep protocol: one scenario per application, each on its own
:class:`~repro.local.LocalRuntime`.  Its wall-clock timings cannot share
the host with other scenarios, and a pool worker cannot start the
runtime's processes, so the sweep runs with ``--jobs 1`` only.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

from ..local import LocalRuntime, payload_nbytes
from ..offload import OffloadDispatcher, calibrate_model
from ..workloads import generate_options, price_chunk, split_batch, transport_chunk
from .base import ScenarioSpec, Sweep, SweepPlan

__all__ = ["Fig13Point", "scenario", "plan_scenarios", "SWEEP"]


@dataclass(frozen=True)
class Fig13Point:
    app: str
    workers: int
    chunks: int
    payload_bytes: int
    serial_s: float
    remote_s: float
    doubled_s: float
    remote_speedup: float       # vs serial
    doubled_speedup: float
    # Eq. 1 terms, as the calibrated OffloadModel's fields
    t_local: float
    t_inv: float
    latency: float
    bandwidth: float
    data_per_task: int
    n_local_min: int
    predicted_doubled_speedup: float
    host_cores: int
    checks_passed: bool


def _close_enough(a, b) -> bool:
    import numpy as np

    if isinstance(a, dict):
        return all(_close_enough(a[k], b[k]) for k in a)
    return bool(np.allclose(a, b))


def _time_app(
    app: str,
    runtime: LocalRuntime,
    function: str,
    local_fn: Callable,
    payloads: Sequence,
    workers: int,
    **kwargs,
) -> Fig13Point:
    """Time the three execution variants of one application."""
    runtime.prewarm()
    model = calibrate_model(runtime, function, local_fn, payloads[0], **kwargs)

    # Serial baseline (the one local worker running everything).
    t0 = time.perf_counter()
    serial_results = [local_fn(p, **kwargs) for p in payloads]
    serial_s = time.perf_counter() - t0

    # Remote: everything through the warm process executors.
    t0 = time.perf_counter()
    remote_results = runtime.map(function, list(payloads), **kwargs)
    remote_s = time.perf_counter() - t0

    # Doubled: 1 local worker + N remote executors, Eq.-1 split.
    doubled = OffloadDispatcher(runtime, model).run(function, local_fn, payloads, **kwargs)
    doubled_s = doubled.wall_time_s

    checks = all(
        _close_enough(serial_results[i], variant[i])
        for variant in (remote_results, doubled.results)
        for i in range(len(serial_results))
    )
    return Fig13Point(
        app=app, workers=workers, chunks=len(payloads),
        payload_bytes=payload_nbytes(payloads[0]),
        serial_s=serial_s, remote_s=remote_s, doubled_s=doubled_s,
        remote_speedup=serial_s / remote_s if remote_s > 0 else 1.0,
        doubled_speedup=serial_s / doubled_s if doubled_s > 0 else 1.0,
        **asdict(model), n_local_min=model.n_local_min,
        predicted_doubled_speedup=model.speedup(
            len(payloads), local_workers=1, remote_workers=workers
        ),
        host_cores=os.cpu_count() or 1,
        checks_passed=checks,
    )


def scenario(params: dict, seed: int) -> dict:
    """Time one application serial, remote and doubled.

    ``params``: ``app`` (``"blackscholes"`` with ``options`` and
    ``iterations``, or ``"openmc"`` with ``particles``) and ``workers``.
    """
    if multiprocessing.current_process().daemon:
        raise ValueError("fig13 times live worker processes; run it with --jobs 1")
    workers: int = params["workers"]
    with LocalRuntime(workers=workers) as runtime:
        if params["app"] == "blackscholes":
            runtime.register("price", "repro.workloads.blackscholes:price_chunk")
            batch = generate_options(params["options"], seed=seed)
            payloads = split_batch(batch, (workers + 1) * 6)
            point = _time_app("blackscholes", runtime, "price", price_chunk,
                              payloads, workers, iterations=params["iterations"])
        else:
            count: int = params["particles"]
            runtime.register("transport", "repro.workloads.openmc_like:transport_chunk")
            chunk = max(500, count // ((workers + 1) * 6))
            payloads = [
                {"particles": chunk, "seed": seed + i}
                for i in range(max(1, count // chunk))
            ]
            point = _time_app(f"openmc-{count}p", runtime, "transport",
                              transport_chunk, payloads, workers)
    return asdict(point)


def plan_scenarios(
    workers: int = 2,
    options: int = 2_000_000,
    iterations: int = 4,
    particles=(10_000, 40_000),
    seed: int = 0,
) -> SweepPlan:
    """Fig. 13a (Black-Scholes), then Fig. 13b/c (one per particle count)."""
    blackscholes = ScenarioSpec(
        fn=scenario,
        params={"app": "blackscholes", "workers": workers,
                "options": options, "iterations": iterations},
        seed=seed, label="blackscholes",
    )
    transport = tuple(
        ScenarioSpec(fn=scenario,
                     params={"app": "openmc", "workers": workers,
                             "particles": int(count)},
                     seed=seed, label=f"openmc-{count}p")
        for count in particles
    )
    return SweepPlan(scenarios=(blackscholes, *transport),
                     meta={"workers": workers, "seed": seed})


SWEEP = Sweep(
    name="fig13",
    description="real offloading: Black-Scholes + MC transport",
    plan=plan_scenarios,
    point_type=Fig13Point,
    columns=(
        ("app", lambda p: p.app),
        ("chunks", lambda p: p.chunks),
        ("payload (KiB)", lambda p: f"{p.payload_bytes / 1024:.0f}"),
        ("verified", lambda p: p.checks_passed),
        ("serial (ms)", lambda p: p.serial_s * 1e3),
        ("remote (ms)", lambda p: p.remote_s * 1e3),
        ("doubled (ms)", lambda p: p.doubled_s * 1e3),
        ("remote x", lambda p: f"{p.remote_speedup:.2f}x"),
        ("doubled x", lambda p: f"{p.doubled_speedup:.2f}x"),
        ("T_local (ms)", lambda p: f"{p.t_local * 1e3:.2f}"),
        ("T_inv (ms)", lambda p: f"{p.t_inv * 1e3:.2f}"),
        ("N_local_min", lambda p: p.n_local_min),
        ("predicted x", lambda p: f"{p.predicted_doubled_speedup:.2f}x"),
        ("host cores", lambda p: p.host_cores),
    ),
    title=("Fig. 13 — serial vs remote vs doubled: 1 local + {workers}"
           " remote workers"),
    footer=("Measured speedup needs more free cores than workers; on a smaller"
            " host compare the Eq.-1 predicted speedup instead."
            "\nPaper: offloading to doubled (cheap serverless) resources beats"
            " the OpenMP baseline until network saturation."),
)
