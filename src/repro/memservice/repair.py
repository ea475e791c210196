"""Background anti-entropy for the replicated memory service.

After a crash destroys replicas (or a partition fences them behind the
committed epoch), chunks run below the configured replication factor
until something copies data back.  The repair loop is that something: a
periodic process that scans chunks in index order — deterministic, no
rng — and, for each deficit it finds,

1. *restores* missing replicas by cloning a surviving clean copy onto a
   placement-picked target node, and
2. *resyncs* live-but-fenced replicas in place (a node that missed
   writes while partitioned is re-filled and re-stamped with the
   committed version/epoch).

Copies ride the network fabric like any tenant transfer, so repair
traffic after a failure burst is visible in the same NIC contention the
paper's Fig. 11 measures.  A repair that loses its copy (the target or
source drops mid-transfer) is simply retried on a later tick.
"""

from __future__ import annotations

from ..sim.engine import Environment, Interrupt
from ..telemetry import telemetry_of

__all__ = ["RepairLoop"]


class RepairLoop:
    """Periodically restore the replication factor of degraded chunks."""

    def __init__(self, env: Environment, service, interval_s: float = 0.5):
        self.env = env
        self.service = service
        self.interval_s = interval_s
        self.ticks = 0
        self.repairs = 0
        self.resyncs = 0
        self._proc = None
        telemetry = telemetry_of(env)
        self._tracer = telemetry.tracer
        metrics = telemetry.metrics
        self._m_repairs = metrics.counter(
            "repro_memservice_repairs_total",
            help="replicas restored onto a new node by the repair loop",
        )
        self._m_resyncs = metrics.counter(
            "repro_memservice_resyncs_total",
            help="fenced/stale replicas rewritten in place by the repair loop",
        )

    def start(self):
        """Begin ticking (idempotent while the loop is alive; a daemon,
        so it never keeps an open-ended ``env.run()`` alive)."""
        if self.interval_s <= 0:
            raise ValueError("repair interval must be positive")
        if self._proc is None or self._proc.triggered:
            self._proc = self.env.process(self._loop(), name="memservice-repair")
            self._proc.daemon = True
        return self._proc

    def stop(self) -> None:
        """Stop ticking."""
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt(cause="repair-stop")

    @property
    def running(self) -> bool:
        return self._proc is not None and self._proc.is_alive

    def _loop(self):
        try:
            while True:
                yield self.env.timeout(self.interval_s)
                self.ticks += 1
                yield from self._tick()
        except Interrupt:
            return

    def _tick(self):
        """One scan: repairs run sequentially so a tick's fabric load is
        bounded by one in-flight copy (anti-entropy should not stampede
        the network the tenants are using)."""
        service = self.service
        restored = resynced = 0
        for chunk in service.chunks:
            # Replace replicas destroyed by crashes.
            while len(chunk.replicas) < service.replication:
                ok = yield from service.restore_replica(chunk)
                if not ok:
                    break  # no source or no target; retry next tick
                restored += 1
            # Heal live replicas that missed writes while unreachable.
            for replica in list(chunk.replicas):
                if replica.live and not service.is_clean(chunk, replica):
                    ok = yield from service.resync_replica(chunk, replica)
                    if ok:
                        resynced += 1
        if restored or resynced:
            self.repairs += restored
            self.resyncs += resynced
            self._m_repairs.inc(restored)
            self._m_resyncs.inc(resynced)
            self._tracer.instant(
                "memservice.repair", track="memservice",
                restored=restored, resynced=resynced,
                under_replicated=len(service.under_replicated_chunks()),
            )
