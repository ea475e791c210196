"""When the periodic loops wake, pinned.

The HA detector ticks every ``heartbeat_interval_s``.  The repair loop's
next tick starts ``repair_interval_s`` after its scan *ends*, and a scan
that copies replicas takes sim time, so after a crash its ticks drift off
the interval grid.  Both sequences are pinned to the exact floats, so a
change to how a loop waits cannot move a tick unnoticed.
"""

from repro.api import Platform, PlatformConfig
from repro.controlplane import HAConfig
from repro.memservice import DurableMemoryConfig

MiB = 1024**2

HEARTBEATS = [0.1, 0.2, 0.30000000000000004, 0.4, 0.5, 0.6, 0.7,
              0.7999999999999999, 0.8999999999999999, 0.9999999999999999]
#: The first scan copies two lost replicas (0.2 -> 0.2193 s); every later
#: scan finds nothing to do and takes no sim time.
SCANS = [0.2, 0.41929435019607847, 0.6192943501960785, 0.8192943501960785,
         1.0192943501960785, 1.2192943501960785, 1.4192943501960784,
         1.6192943501960784, 1.8192943501960783, 2.0192943501960783]


def test_heartbeat_and_repair_tick_times_after_a_kill():
    platform = Platform.build(
        PlatformConfig(
            nodes=6, jitter=0.0, ha=HAConfig(),
            durable_memory=DurableMemoryConfig(
                size_bytes=48 * MiB, chunk_bytes=16 * MiB, replication=2,
                repair_interval_s=0.2,
                hosts=("n0001", "n0002", "n0003", "n0004"),
            ),
        ),
        seed=0,
    )
    env, ha, service = platform.env, platform.ha, platform.durable_memory
    repair = service.repair
    heartbeats, scans = [], []

    detect = ha._tick

    def recorded_detect():
        heartbeats.append(env.now)
        detect()

    scan = repair._tick

    def recorded_scan():
        scans.append(env.now)
        return (yield from scan())

    ha._tick = recorded_detect
    repair._tick = recorded_scan
    assert service.kill_node(service.chunks[0].nodes()[0], cause="test") == 2
    platform.run(3.0)
    assert heartbeats[:10] == HEARTBEATS
    assert scans[:10] == SCANS
    assert repair.repairs == 2
