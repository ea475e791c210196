"""Experiment Fig. 13: accelerating real applications with rFaaS offloading.

The live counterpart of the paper's integration study: Black-Scholes
(PARSEC-style, Fig. 13a) and a Monte Carlo particle-transport mini-app
(OpenMC opr stand-in, Fig. 13b/c) are executed four ways:

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
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..analysis.tables import render_table
from ..local import LocalRuntime, payload_nbytes
from ..offload import OffloadModel, calibrate_model
from ..workloads import generate_options, price_chunk, split_batch, transport_chunk

__all__ = ["VariantTiming", "Fig13Result", "run_app", "run", "format_report"]


@dataclass(frozen=True)
class VariantTiming:
    variant: str
    wall_s: float
    speedup_vs_serial: float


@dataclass
class Fig13Result:
    app: str
    workers: int
    chunks: int
    payload_bytes: int
    timings: list[VariantTiming] = field(default_factory=list)
    model: OffloadModel = None
    checks_passed: bool = True
    predicted_doubled_speedup: float = 1.0
    host_cores: int = 1

    def timing(self, variant: str) -> VariantTiming:
        for t in self.timings:
            if t.variant == variant:
                return t
        raise KeyError(variant)


def _close_enough(a, b) -> bool:
    import numpy as np

    if isinstance(a, dict):
        return all(_close_enough(a[k], b[k]) for k in a)
    return bool(np.allclose(a, b))


def run_app(
    app: str,
    runtime: LocalRuntime,
    function: str,
    local_fn: Callable,
    payloads: Sequence,
    workers: int,
    **kwargs,
) -> Fig13Result:
    """Time the four execution variants of one application."""
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
    # Remote chunks are submitted first so their latency hides behind
    # the local compute (never-wait principle).
    plan = model.split(len(payloads), local_workers=1, remote_workers=workers)
    t0 = time.perf_counter()
    futures = [runtime.invoke(function, p, **kwargs) for p in payloads[plan.n_local:]]
    doubled_local = [local_fn(p, **kwargs) for p in payloads[: plan.n_local]]
    doubled_results = doubled_local + [f.result() for f in futures]
    doubled_s = time.perf_counter() - t0

    checks = all(
        _close_enough(serial_results[i], variant[i])
        for variant in (remote_results, doubled_results)
        for i in range(len(serial_results))
    )
    result = Fig13Result(
        app=app, workers=workers, chunks=len(payloads),
        payload_bytes=payload_nbytes(payloads[0]),
        model=model, checks_passed=checks,
        predicted_doubled_speedup=model.speedup(
            len(payloads), local_workers=1, remote_workers=workers
        ),
        host_cores=os.cpu_count() or 1,
    )
    for name, wall in (
        ("serial", serial_s), ("remote", remote_s), ("doubled", doubled_s),
    ):
        result.timings.append(
            VariantTiming(name, wall, serial_s / wall if wall > 0 else 1.0)
        )
    return result


def run(
    workers: int = 2,
    options: int = 2_000_000,
    iterations: int = 4,
    particles: tuple[int, int] = (10_000, 40_000),
    seed: int = 0,
) -> list[Fig13Result]:
    """Run Fig. 13a (Black-Scholes) and Fig. 13b/c (transport)."""
    results = []
    with LocalRuntime(workers=workers) as runtime:
        runtime.register("price", "repro.workloads.blackscholes:price_chunk")
        runtime.register("transport", "repro.workloads.openmc_like:transport_chunk")

        batch = generate_options(options, seed=seed)
        payloads = split_batch(batch, (workers + 1) * 6)
        results.append(
            run_app("blackscholes", runtime, "price", price_chunk,
                    payloads, workers, iterations=iterations)
        )
        for count in particles:
            chunk = max(500, count // ((workers + 1) * 6))
            payloads = [
                {"particles": chunk, "seed": seed + i}
                for i in range(max(1, count // chunk))
            ]
            results.append(
                run_app(f"openmc-{count}p", runtime, "transport", transport_chunk,
                        payloads, workers)
            )
    return results


def saturation_sweep(
    model: OffloadModel,
    remote_workers=(1, 2, 4, 8, 16, 32, 64),
    n_tasks: int = 512,
    link_invocations_per_s: Optional[float] = None,
) -> list[tuple[int, float, float]]:
    """The Fig.-13a knee: speedup vs remote workers until the link saturates.

    Applies the *measured* compute model (T_local, T_inv) to a
    bandwidth-constrained link sustaining ``link_invocations_per_s``
    payload transfers per second — the paper's testbed regime, where a
    229 MB input shared one Aries injection port.  Returns (workers,
    predicted speedup, remote fraction) rows; beyond the saturation point
    extra executors stop helping because the link, not the pool, is the
    bottleneck.
    """
    if link_invocations_per_s is None:
        # Default: the link sustains what ~8 executors can consume, so
        # the knee falls inside the sweep range (as on the testbed, where
        # payload transfer competed with a handful of executors).
        link_invocations_per_s = 8.0 / model.t_inv
    if link_invocations_per_s <= 0:
        raise ValueError("link rate must be positive")
    from dataclasses import replace as _replace

    constrained = _replace(
        model, bandwidth=link_invocations_per_s * model.data_per_task
    )
    rows = []
    for workers in remote_workers:
        plan = constrained.split(n_tasks, local_workers=1, remote_workers=workers)
        speedup = constrained.speedup(n_tasks, local_workers=1, remote_workers=workers)
        rows.append((workers, speedup, plan.n_remote / n_tasks))
    return rows


def format_report(results: list[Fig13Result]) -> str:
    blocks = []
    for result in results:
        rows = [
            [t.variant, t.wall_s * 1e3, f"{t.speedup_vs_serial:.2f}x"]
            for t in result.timings
        ]
        table = render_table(
            ["variant", "wall (ms)", "speedup"],
            rows,
            title=(
                f"Fig. 13 — {result.app}: {result.chunks} chunks,"
                f" 1 local + {result.workers} remote workers,"
                f" payload {result.payload_bytes / 1024:.0f} KiB"
                f" (results verified: {result.checks_passed})"
            ),
        )
        eq1 = (
            f"Eq. 1: T_local={result.model.t_local * 1e3:.2f} ms,"
            f" T_inv={result.model.t_inv * 1e3:.2f} ms,"
            f" N_local_min={result.model.n_local_min};"
            f" predicted doubled speedup {result.predicted_doubled_speedup:.2f}x"
            f" on >= {result.workers + 1} free cores"
            f" (host has {result.host_cores})"
        )
        blocks.append(table + "\n" + eq1)
    note = ""
    if results and results[0].host_cores <= results[0].workers:
        note = (
            "\nNOTE: this host has fewer cores than workers — measured"
            " wall-clock speedup is physically capped near 1x; compare"
            " the predicted values instead."
        )
    return "\n\n".join(blocks) + note + (
        "\nPaper: offloading to doubled (cheap serverless) resources beats"
        " the OpenMP baseline until network saturation."
    )
