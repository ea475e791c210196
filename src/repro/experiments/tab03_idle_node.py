"""Experiment Table III: idle-node throughput with co-located functions.

Serial NAS benchmarks run as rFaaS functions on one idle 36-core Daint
node; the metric is node throughput relative to a single executor as the
co-located function count grows to 32.

Paper reference (Table III):

    app / fns   1    2     4    8    12    16    24     32
    BT, W       1  1.95  3.8  6.9   9.5  11.7  17.37  23.3
    CG, A       1  1.85  2.8  4.8   5.8   6.0   8.5   11.4
    EP, W       1  2.0   3.78 6.8  10.2  13.6  20.4   27.2
    LU, W       1  1.9   3.76 6.7   9.96  -    19.7    -

Expected shape: EP near-linear (~85 % efficiency at 32), BT/LU at
70–80 %, CG saturating one socket's memory bandwidth near 6x and only
recovering when instances spill onto the second socket.  The paper also
reports the rFaaS execution overhead: ~13 % for the shortest benchmark
(CG, 0.6 s) and <1 % elsewhere — reproduced here from the invocation
overhead model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.tables import render_table
from ..cluster import DAINT_MC, NodeSpec
from ..interference import InterferenceModel
from ..network import UGNI
from ..workloads import nas_model

__all__ = ["Tab03Result", "run", "format_report", "rfaas_overhead_fraction"]

DEFAULT_COUNTS = (1, 2, 4, 8, 12, 16, 24, 32)
DEFAULT_BENCHMARKS = ("bt.W", "cg.A", "ep.W", "lu.W")

#: Paper-measured relative throughputs, for side-by-side reporting.
PAPER_TABLE3 = {
    "bt.W": {1: 1, 2: 1.95, 4: 3.8, 8: 6.9, 12: 9.5, 16: 11.7, 24: 17.37, 32: 23.3},
    "cg.A": {1: 1, 2: 1.85, 4: 2.8, 8: 4.8, 12: 5.8, 16: 6.0, 24: 8.5, 32: 11.4},
    "ep.W": {1: 1, 2: 2.0, 4: 3.78, 8: 6.8, 12: 10.2, 16: 13.6, 24: 20.4, 32: 27.2},
    "lu.W": {1: 1, 2: 1.9, 4: 3.76, 8: 6.7, 12: 9.96, 24: 19.7},
}


def rfaas_overhead_fraction(app) -> float:
    """Per-invocation rFaaS overhead relative to the function runtime.

    Two components: (a) fixed per-invocation costs — warm invocation
    round trip, dispatch, container attach, payload staging (~5 ms) —
    amortized over the runtime; (b) coupling with the executor and
    container machinery, which costs bandwidth-bound codes
    disproportionately (the polling executor and container I/O add memory
    traffic).  Calibrated to the paper's observation: ~13 % for the
    0.6-second, heavily memory-bound CG; below ~2 % for BT/LU/EP.
    """
    if app.runtime_s <= 0:
        raise ValueError("runtime must be positive")
    fixed_s = UGNI.params.round_trip(64 * 1024, 64 * 1024) + 0.005
    membw_coupling = 0.15 * app.frac_membw**2
    return fixed_s / app.runtime_s + membw_coupling


@dataclass
class Tab03Result:
    counts: tuple[int, ...]
    throughput: dict[str, dict[int, float]] = field(default_factory=dict)
    overhead: dict[str, float] = field(default_factory=dict)


def run(
    benchmarks=DEFAULT_BENCHMARKS,
    counts=DEFAULT_COUNTS,
    spec: NodeSpec = DAINT_MC,
    model: InterferenceModel = None,
) -> Tab03Result:
    model = model or InterferenceModel()
    result = Tab03Result(counts=tuple(counts))
    for key in benchmarks:
        app = nas_model(key)
        demand = app.demand(1)
        result.throughput[key] = {
            n: model.relative_throughput(spec, demand, n) for n in counts
        }
        result.overhead[key] = rfaas_overhead_fraction(app)
    return result


def run_platform(
    benchmark: str = "cg.A",
    counts=(1, 4, 16),
    window_s: float = 60.0,
    seed: int = 0,
) -> dict[int, float]:
    """Table III measured through the full platform stack.

    Registers one idle Daint node, runs ``count`` concurrent invocation
    streams of the NAS function for ``window_s`` simulated seconds, and
    returns throughput relative to one stream.  Cross-validates that the
    executor/lease/load-registry wiring reproduces what the interference
    model predicts analytically.
    """
    from ..api import ClusterSpec, Platform
    from ..containers import Image
    from ..network import IBVERBS

    app = nas_model(benchmark)
    out: dict[int, float] = {}
    for count in counts:
        platform = Platform.build(
            ClusterSpec(nodes=2, provider=IBVERBS, jitter=0.0), seed=seed
        )
        env = platform.env
        registered = platform.register_node("n0001", cores=max(counts),
                                            memory_bytes=32 * 1024**3)
        image = Image("nas", size_bytes=100 * 1024**2)
        platform.functions.register(benchmark, image, runtime_s=app.runtime_s,
                                    demand=app.demand(1))
        registered.executor.prewarm(image)
        completions = [0]

        def stream():
            client = platform.client("n0000")
            while env.now < window_s:
                result = yield client.invoke(benchmark, payload_bytes=1024)
                if result.ok:
                    completions[0] += 1

        for _ in range(count):
            platform.process(stream())
        platform.run_until(window_s)
        out[count] = completions[0] / window_s
    per_stream_base = out[counts[0]] / counts[0]
    return {n: rate / per_stream_base for n, rate in out.items()}


def format_report(result: Tab03Result) -> str:
    headers = ["app"] + [str(n) for n in result.counts] + ["rFaaS ovh"]
    rows = []
    for key, by_count in result.throughput.items():
        rows.append(
            [key] + [by_count[n] for n in result.counts]
            + [f"{result.overhead[key] * 100:.1f}%"]
        )
        paper = PAPER_TABLE3.get(key)
        if paper:
            rows.append(
                [f"  (paper)"] + [paper.get(n, "—") for n in result.counts] + [""]
            )
    table = render_table(headers, rows, title="Table III — relative idle-node throughput")
    return table + (
        "\nPaper: 70-80% efficiency except CG; rFaaS overhead ~13% for the"
        " shortest CG, <1% otherwise."
    )
