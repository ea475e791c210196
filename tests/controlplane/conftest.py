"""Shared fixture for control-plane HA tests: a replicated platform."""

from repro.api import Platform, PlatformConfig
from repro.containers import Image
from repro.controlplane import HAConfig
from repro.interference import ResourceDemand
from repro.network import IBVERBS
from repro.telemetry import TelemetryCollector

MiB = 1024**2
GiB = 1024**3

#: The canonical detector shape used across these tests: 0.1s
#: heartbeats, suspicion after 3 silent intervals (timeout 0.3s).
HEARTBEAT_S = 0.1
SUSPECT_AFTER = 3


def build_ha_platform(standbys=1, heartbeat_interval_s=HEARTBEAT_S,
                      suspect_after=SUSPECT_AFTER, plan=None, seed=0,
                      runtime_s=0.0, nodes=5,
                      executors=("n0001", "n0002", "n0003")):
    """A jitterless platform with a replicated manager and a ``noop``.

    The wrapper is reachable both as ``platform.manager`` (what every
    downstream consumer sees) and ``platform.ha`` (typed accessor).
    """
    with TelemetryCollector():
        platform = Platform.build(
            PlatformConfig(nodes=nodes, provider=IBVERBS, jitter=0.0,
                           ha=HAConfig(standbys=standbys,
                                       heartbeat_interval_s=heartbeat_interval_s,
                                       suspect_after=suspect_after)),
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
