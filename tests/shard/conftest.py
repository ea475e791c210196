"""Shared builder for sharded-control-plane tests."""

from repro.api import Platform, PlatformConfig
from repro.shard import ShardConfig
from repro.telemetry import TelemetryCollector

GiB = 1024**3


def build_plane(shards=2, nodes=4, cores=4, ha=None, max_batch=8,
                rebalance_interval_s=0.0):
    """(env, plane) with ``nodes`` registered nodes spread over ``shards``,
    built from ``PlatformConfig(shards=, ha=)`` with a fresh telemetry."""
    with TelemetryCollector():
        platform = Platform.build(
            PlatformConfig(
                nodes=max(nodes, 1), ha=ha,
                shards=ShardConfig(shards=shards, max_batch=max_batch,
                                   batch_overhead_s=1e-4, per_op_s=1e-4,
                                   rebalance_interval_s=rebalance_interval_s),
            ),
            seed=0,
        )
    for i in range(nodes):
        platform.register_node(f"n{i:04d}", cores=cores, memory_bytes=4 * GiB)
    return platform.env, platform.manager


def drive(env, event, sink):
    """Await one front-door event and record its outcome in ``sink``."""
    try:
        value = yield event
    except Exception as exc:  # noqa: BLE001 - tests inspect any failure
        sink.append(("fail", exc))
    else:
        sink.append(("ok", value))
