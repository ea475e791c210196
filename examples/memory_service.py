"""Remote memory as a service: paging into another node's idle memory.

A memory-service function pins a 2 GB RDMA buffer in a node's unused
memory (Sec. III-C).  A client application on another node then uses it
for remote paging: an LRU-resident working set backed by the remote
buffer, with faults and writebacks travelling as one-sided RDMA ops over
the simulated Aries fabric.

Run:  python examples/memory_service.py
"""

import numpy as np

from repro.cluster import Cluster, DAINT_MC, DragonflyTopology
from repro.memservice import MemoryClient, MemoryServiceFunction, RemotePager, TrafficPattern
from repro.network import DrcManager, NetworkFabric, UGNI
from repro.rfaas import NodeLoadRegistry
from repro.sim import Environment

GiB = 1024**3
MiB = 1024**2


def main() -> None:
    env = Environment()
    cluster = Cluster(topology=DragonflyTopology(nodes_per_group=2))
    cluster.add_nodes("n", 2, DAINT_MC)
    drc = DrcManager()
    cred = drc.acquire("memservice-job")
    drc.grant(cred.cred_id, "memservice-job", "app")
    fabric = NetworkFabric(env, cluster, UGNI, rng=np.random.default_rng(0), drc=drc)
    loads = NodeLoadRegistry(cluster)

    service = MemoryServiceFunction(env, cluster.node("n0001"),
                                    size_bytes=2 * GiB, loads=loads)

    def scenario():
        yield service.start()
        host = cluster.node("n0001")
        print(f"service: pinned {service.size_bytes / GiB:.0f} GiB on {host.name}"
              f" ({host.allocated_memory / host.spec.memory_bytes:.1%} of node memory)")

        conn = yield fabric.connect("n0000", "n0001", user="app", cred_id=cred.cred_id)
        client = MemoryClient(env, fabric, service, conn)

        # Remote paging: 256 MiB working set, 64 MiB resident locally.
        pager = RemotePager(env, client, page_bytes=2 * MiB, resident_pages=32)
        rng = np.random.default_rng(42)
        t0 = env.now
        accesses = 600
        for _ in range(accesses):
            # Zipf-ish locality: mostly a hot set of 24 pages, tail to 128.
            if rng.random() < 0.85:
                page = int(rng.integers(0, 24))
            else:
                page = int(rng.integers(24, 128))
            yield pager.touch(page, dirty=bool(rng.random() < 0.3))
        yield pager.flush()
        elapsed = env.now - t0
        print(f"\npaging: {accesses} accesses in {elapsed * 1e3:.1f} ms simulated")
        print(f"  hits: {pager.hits}  faults: {pager.faults}"
              f"  writebacks: {pager.writebacks}"
              f"  hit rate: {pager.hits / accesses * 100:.1f}%")
        print(f"  remote traffic: read {service.bytes_read / MiB:.0f} MiB,"
              f" written {service.bytes_written / MiB:.0f} MiB")

        # A sustained RMA stream, as in the Fig. 11 perturbation study.
        pattern = TrafficPattern(op_bytes=10 * MiB, interval_s=0.001)
        ops = yield client.stream(pattern, duration_s=0.5)
        print(f"\nstream: {ops} x 10 MiB ops in 0.5 s"
              f" = {ops * 10 * MiB / 0.5 / 1e9:.2f} GB/s sustained")
        service.stop()
        print(f"service stopped; node memory back to"
              f" {host.allocated_memory / host.spec.memory_bytes:.1%} used")

    env.process(scenario())
    env.run()


if __name__ == "__main__":
    main()
