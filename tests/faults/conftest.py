"""Shared fixture for fault-injection tests: a small deterministic platform."""

from repro.api import Platform, PlatformConfig
from repro.containers import Image
from repro.interference import ResourceDemand
from repro.network import IBVERBS
from repro.telemetry import TelemetryCollector

MiB = 1024**2
GiB = 1024**3


def build_platform(nodes=5, executors=("n0001", "n0002", "n0003"), plan=None,
                   seed=0, runtime_s=0.0):
    """A jitterless platform with hot executor nodes and a ``noop`` function.

    The image is exposed as ``platform.image`` so tests can prewarm or
    register further functions against it.
    """
    with TelemetryCollector():
        platform = Platform.build(
            PlatformConfig(nodes=nodes, provider=IBVERBS, jitter=0.0),
            seed=seed, faults=plan,
        )
    for name in executors:
        platform.register_node(name, cores=4, memory_bytes=8 * GiB)
    image = Image("fn-image", size_bytes=50 * MiB)
    platform.functions.register(
        "noop", image, runtime_s=runtime_s,
        demand=ResourceDemand(cores=1, membw=0.0, frac_membw=0.0),
        output_bytes=1,
    )
    platform.image = image
    return platform
