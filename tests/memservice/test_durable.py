"""ReplicatedMemoryService: replication, fencing, migration, repair, failover."""

import pytest

from repro.api import ClusterSpec, Platform
from repro.faults import FaultPlan
from repro.memservice import DurableMemoryConfig
from repro.rfaas.errors import DataLossError, MemoryServiceUnavailable
from repro.sim import Environment
from repro.slurm import BatchScheduler

MiB = 1024**2
GiB = 1024**3

HOSTS = ("n0001", "n0002", "n0003", "n0004")


def build(replication=2, repair_interval_s=0.2, size=48 * MiB, chunk=16 * MiB,
          hosts=HOSTS, faults=None, nodes=6, **config_kwargs):
    config = DurableMemoryConfig(
        size_bytes=size, chunk_bytes=chunk, replication=replication,
        repair_interval_s=repair_interval_s, hosts=hosts, **config_kwargs,
    )
    platform = Platform.build(
        ClusterSpec(nodes=nodes, jitter=0.0), seed=0, telemetry=True,
        faults=faults, durable_memory=config,
    )
    return platform


def drive(platform, generator, until=5.0):
    done = {}

    def wrapper():
        result = yield from generator
        done["value"] = result

    platform.process(wrapper())
    platform.run_until(until)
    assert "value" in done, "driver process did not finish"
    return done["value"]


# -- configuration and wiring --------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        DurableMemoryConfig(size_bytes=0)
    with pytest.raises(ValueError):
        DurableMemoryConfig(chunk_bytes=0)
    with pytest.raises(ValueError):
        DurableMemoryConfig(replication=0)
    with pytest.raises(ValueError):
        DurableMemoryConfig(repair_interval_s=-1.0)


def test_build_places_k_replicas_on_distinct_nodes_and_groups():
    platform = build(replication=2)
    service = platform.durable_memory
    assert service is not None and service.active
    assert service.num_chunks == 3  # 48 MiB / 16 MiB
    topology = platform.cluster.topology
    for chunk in service.chunks:
        nodes = chunk.nodes()
        assert len(nodes) == 2 and len(set(nodes)) == 2
        groups = {topology.group_of(platform.cluster.node_index(n)) for n in nodes}
        assert len(groups) == 2  # wide enough cluster: distinct groups too
    assert service.repair.running


def test_build_rejects_unsatisfiable_replication():
    with pytest.raises(ValueError):
        build(replication=3, hosts=("n0001", "n0002"))


def test_memory_client_requires_durable_memory():
    platform = Platform.build(ClusterSpec(nodes=2), seed=0)
    with pytest.raises(RuntimeError):
        platform.memory_client("n0000")


def test_chunk_span_covers_partial_last_chunk():
    platform = build(size=40 * MiB, chunk=16 * MiB)  # chunks 16/16/8
    service = platform.durable_memory
    assert service.chunks[-1].size_bytes == 8 * MiB
    assert service.chunk_span(0, 40 * MiB) == [
        (0, 16 * MiB), (1, 16 * MiB), (2, 8 * MiB)
    ]
    assert service.chunk_span(16 * MiB - 1, 2) == [(0, 1), (1, 1)]
    assert service.chunk_span(39 * MiB, 0) == [(2, 0)]
    with pytest.raises(ValueError):
        service.validate_access(39 * MiB, 2 * MiB)  # crosses the end


def test_stop_is_idempotent_and_invalidates_access():
    platform = build()
    service = platform.durable_memory
    hosted = sum(len(c.replicas) for c in service.chunks)
    assert hosted == 6
    service.stop()
    service.stop()  # no double-free
    for name in HOSTS:
        assert platform.cluster.node(name).allocated_memory == 0
    with pytest.raises(MemoryServiceUnavailable):
        service.validate_access(0, 1)


def test_stop_before_the_first_step_lets_the_run_drain():
    platform = build()
    service = platform.durable_memory
    service.stop()  # the repair loop is started but has not stepped yet
    platform.run()
    assert not service.repair.running
    assert service.repair.ticks == 0


def test_service_ids_are_per_environment():
    a, b = Environment(), Environment()
    assert [a.next_id("memservice") for _ in range(3)] == [1, 2, 3]
    assert b.next_id("memservice") == 1  # fresh env, fresh stream
    assert a.next_id("other") == 1       # streams are independent


# -- reads, writes, and versioning ---------------------------------------------

def test_write_stamps_every_replica_and_read_verifies():
    platform = build(replication=2)
    service = platform.durable_memory
    client = platform.memory_client("n0000")

    def work():
        put = yield client.write(0, 20 * MiB)  # spans chunks 0 and 1
        got = yield client.read(0, 20 * MiB)
        return put, got

    put, got = drive(platform, work())
    assert put == got == 20 * MiB
    for chunk in service.chunks[:2]:
        assert chunk.version == 1
        assert all(r.version == 1 for r in chunk.replicas)
    assert service.chunks[2].version == 0
    assert client.failovers == 0 and client.data_losses == 0


def test_crash_read_fails_over_and_repair_restores_the_factor():
    platform = build(replication=2, repair_interval_s=0.2)
    service = platform.durable_memory
    client = platform.memory_client("n0000")
    victim = service.chunks[0].nodes()[0]

    def work():
        yield client.write(0, 48 * MiB)
        lost = service.kill_node(victim, cause="test")
        assert lost >= 1
        got = yield client.read(0, 48 * MiB)
        return got

    got = drive(platform, work())
    assert got == 48 * MiB
    assert client.data_losses == 0
    assert service.replicas_lost >= 1
    platform.run_until(8.0)
    assert len(service.under_replicated_chunks()) == 0
    assert service.repair.repairs >= 1
    for chunk in service.chunks:
        nodes = chunk.nodes()
        assert len(nodes) == 2 and len(set(nodes)) == 2


def test_unreplicated_crash_raises_data_loss():
    platform = build(replication=1)
    service = platform.durable_memory
    client = platform.memory_client("n0000")
    victim = service.chunks[0].nodes()[0]
    offsets = [i * 16 * MiB for i, c in enumerate(service.chunks)
               if c.nodes() == [victim]]
    assert offsets

    def work():
        yield client.write(0, 48 * MiB)
        service.kill_node(victim, cause="test")
        with pytest.raises(DataLossError):
            yield client.read(offsets[0], 1 * MiB)
        with pytest.raises(DataLossError):
            yield client.write(offsets[0], 1 * MiB)
        return True

    assert drive(platform, work())
    assert client.data_losses >= 1
    # Nothing to repair from: the chunk stays lost.
    platform.run_until(8.0)
    assert len(service.under_replicated_chunks()) >= 1
    assert service.repair.repairs == 0


# -- fencing: a partitioned stale replica cannot serve torn reads -------------

def test_partition_fences_missed_writes_and_read_averts_stale_replica():
    platform = build(replication=2, repair_interval_s=30.0)  # repair out of frame
    service = platform.durable_memory
    client = platform.memory_client("n0000")
    primary = service.chunks[0].nodes()[0]

    def work():
        yield client.write(0, 1 * MiB)
        platform.fabric.conditioner.partition([primary])
        yield client.write(0, 1 * MiB)  # primary misses this write
        assert service.epoch == 1      # fence bumped
        assert service.degraded_writes == 1
        platform.fabric.conditioner.heal([primary])
        got = yield client.read(0, 1 * MiB)
        return got

    got = drive(platform, work())
    assert got == 1 * MiB
    # The healed-but-stale primary was reached, rejected, and failed over.
    assert client.stale_reads_averted == 1
    assert client.failovers == 1
    assert client.data_losses == 0
    chunk = service.chunks[0]
    stale = next(r for r in chunk.replicas if r.node_name == primary)
    assert stale.epoch < chunk.epoch and stale.version < chunk.version


def test_repair_resyncs_fenced_replica_in_place():
    platform = build(replication=2, repair_interval_s=0.2)
    service = platform.durable_memory
    client = platform.memory_client("n0000")
    primary = service.chunks[0].nodes()[0]

    def work():
        platform.fabric.conditioner.partition([primary])
        yield client.write(0, 1 * MiB)
        platform.fabric.conditioner.heal([primary])
        return True

    drive(platform, work())
    platform.run_until(8.0)
    assert service.repair.resyncs >= 1
    chunk = service.chunks[0]
    assert all(service.is_clean(chunk, r) for r in chunk.replicas)
    assert len(service.under_replicated_chunks()) == 0


def test_fully_unreachable_write_aborts_without_committing():
    platform = build(replication=2, repair_interval_s=30.0)
    service = platform.durable_memory
    client = platform.memory_client("n0000")
    nodes = service.chunks[0].nodes()

    def work():
        yield client.write(0, 1 * MiB)
        platform.fabric.conditioner.partition(nodes)
        with pytest.raises(MemoryServiceUnavailable):
            yield client.write(0, 1 * MiB)
        # Aborted: the committed version did not advance, data is intact.
        assert service.chunks[0].version == 1
        platform.fabric.conditioner.heal(nodes)
        got = yield client.read(0, 1 * MiB)
        return got

    assert drive(platform, work()) == 1 * MiB
    assert client.data_losses == 0


def test_transient_partition_is_unavailable_not_data_loss():
    platform = build(replication=1, repair_interval_s=30.0)
    service = platform.durable_memory
    client = platform.memory_client("n0000")
    only = service.chunks[0].nodes()[0]

    def work():
        yield client.write(0, 1 * MiB)
        platform.fabric.conditioner.partition([only])
        with pytest.raises(MemoryServiceUnavailable):
            yield client.read(0, 1 * MiB)
        platform.fabric.conditioner.heal([only])
        got = yield client.read(0, 1 * MiB)
        return got

    assert drive(platform, work()) == 1 * MiB
    assert client.data_losses == 0  # the data was never gone


def test_strict_quorum_surfaces_degraded_writes():
    platform = build(replication=2, repair_interval_s=30.0, strict_quorum=True)
    service = platform.durable_memory
    client = platform.memory_client("n0000")
    primary = service.chunks[0].nodes()[0]

    def work():
        platform.fabric.conditioner.partition([primary])
        with pytest.raises(MemoryServiceUnavailable):
            yield client.write(0, 1 * MiB)
        platform.fabric.conditioner.heal([primary])
        return True

    assert drive(platform, work())
    # Strict mode still commits on the replicas that acked.
    assert service.chunks[0].version == 1
    assert service.degraded_writes == 1


# -- reclaim integration: manager hooks and scheduler drains -------------------

def test_immediate_manager_reclaim_destroys_hosted_replicas():
    platform = build(replication=2)
    service = platform.durable_memory
    victim = service.chunks[0].nodes()[0]
    platform.register_node(victim, cores=2, memory_bytes=1 * GiB)
    platform.manager.remove_node(victim, immediate=True)
    assert victim not in service.hosting_nodes()
    assert service.replicas_lost >= 1


def test_graceful_manager_reclaim_migrates_chunks_off():
    platform = build(replication=2)
    service = platform.durable_memory
    victim = service.chunks[0].nodes()[0]
    hosted = sum(1 for c in service.chunks for r in c.replicas
                 if r.node_name == victim)
    platform.register_node(victim, cores=2, memory_bytes=1 * GiB)
    platform.manager.remove_node(victim, immediate=False)
    platform.run_until(2.0)
    assert victim not in service.hosting_nodes()
    assert service.migrations == hosted
    assert service.replicas_lost == 0
    assert not platform.cluster.node(victim).allocations_of_kind("memservice")
    for chunk in service.chunks:
        assert len(chunk.replicas) == 2
        assert all(service.is_clean(chunk, r) for r in chunk.replicas)


def test_scheduler_drain_triggers_live_migration():
    platform = build(replication=2)
    service = platform.durable_memory
    scheduler = BatchScheduler(platform.env, platform.cluster)
    service.attach_scheduler(scheduler)
    victim = service.chunks[0].nodes()[0]
    scheduler.drain_node(victim)
    scheduler.drain_node(victim)  # idempotent
    platform.run_until(2.0)
    assert victim not in service.hosting_nodes()
    assert service.migrations >= 1
    # Placement never targets the draining node.
    assert all(victim not in c.nodes() for c in service.chunks)
    scheduler.restore_node(victim)


def test_migration_charges_time_through_the_fabric():
    platform = build(replication=2)
    service = platform.durable_memory
    victim = service.chunks[0].nodes()[0]
    before = platform.env.now
    service._on_drain(victim)
    platform.run_until(5.0)
    # Copying chunks over the interconnect takes simulated time.
    assert service.moved_bytes >= 16 * MiB
    assert platform.fabric.stats.bytes >= service.moved_bytes
    assert platform.env.now > before


# -- fault injection -----------------------------------------------------------

def test_injector_memservice_kill_hits_a_hosting_node():
    plan = FaultPlan(name="kill").memservice_kill(at_s=0.5)
    platform = build(replication=2, faults=plan)
    service = platform.durable_memory
    platform.run_until(1.0)
    assert [(kind, at) for at, kind, _ in platform.injector.injected] == [
        ("memservice_kill", 0.5)
    ]
    victim = platform.injector.injected[0][2]
    assert victim in HOSTS
    assert service.replicas_lost >= 1


def test_injector_memservice_kill_explicit_node_must_host_replicas():
    plan = (FaultPlan(name="kill")
            .memservice_kill(at_s=0.5, node="n0005"))  # not a host
    platform = build(replication=2, faults=plan)
    platform.run_until(1.0)
    assert platform.injector.injected == []
    assert len(platform.injector.skipped) == 1


def test_injector_memservice_kill_without_service_is_skipped():
    plan = FaultPlan(name="kill").memservice_kill(at_s=0.5)
    platform = Platform.build(ClusterSpec(nodes=2), seed=0, faults=plan)
    platform.run_until(1.0)
    assert len(platform.injector.skipped) == 1


# -- telemetry -----------------------------------------------------------------

def test_memservice_metrics_and_spans_are_recorded():
    platform = build(replication=2, repair_interval_s=0.2)
    service = platform.durable_memory
    client = platform.memory_client("n0000")
    victim = service.chunks[0].nodes()[0]

    def work():
        yield client.write(0, 48 * MiB)
        service.kill_node(victim, cause="test")
        yield client.read(0, 48 * MiB)
        return True

    drive(platform, work())
    platform.run_until(8.0)
    registry = platform.telemetry.metrics
    names = {m.name for m in registry}
    assert "repro_memservice_replicas_lost_total" in names
    assert "repro_memservice_repairs_total" in names
    assert "repro_memservice_under_replicated_count" in names
    spans = platform.telemetry.tracer.spans
    kinds = {s.name for s in spans}
    assert "memservice.node_lost" in kinds
    assert "memservice.repair" in kinds
    assert all(s.track == "memservice" for s in spans
               if s.name.startswith("memservice."))
