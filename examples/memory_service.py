"""Remote memory as a service: paging into another node's idle memory.

A memory-service function pins a 2 GiB RDMA buffer in a node's unused
memory (Sec. III-C).  A client application on another node then uses it
for remote paging: an LRU-resident working set backed by the remote
buffer, with faults and writebacks travelling as one-sided RDMA ops over
the simulated Aries fabric.

Run:  python examples/memory_service.py
"""

import numpy as np

from repro.api import Platform, PlatformConfig
from repro.memservice import DurableMemoryConfig, RemotePager

GiB = 1024**3
MiB = 1024**2


def main() -> None:
    platform = Platform.build(PlatformConfig(
        nodes=2,
        durable_memory=DurableMemoryConfig(
            size_bytes=2 * GiB, replication=1, hosts=("n0001",),
        ),
    ))
    env, service = platform.env, platform.durable_memory
    host = platform.cluster.node("n0001")
    print(f"service: pinned {service.size_bytes / GiB:.0f} GiB on {host.name}"
          f" ({host.allocated_memory / host.spec.memory_bytes:.1%} of node memory)")

    def scenario():
        # Remote paging: 256 MiB working set, 64 MiB resident locally.
        pager = RemotePager(env, platform.memory_client("n0000"),
                            page_bytes=2 * MiB, resident_pages=32)
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
        stats = service.stats()
        print(f"\npaging: {accesses} accesses in {elapsed * 1e3:.1f} ms simulated")
        print(f"  hits: {pager.hits}  faults: {pager.faults}"
              f"  writebacks: {pager.writebacks}"
              f"  hit rate: {pager.hits / accesses * 100:.1f}%")
        print(f"  remote traffic: read {stats['bytes_read'] / MiB:.0f} MiB,"
              f" written {stats['bytes_written'] / MiB:.0f} MiB")
        service.stop()
        print(f"service stopped; node memory back to"
              f" {host.allocated_memory / host.spec.memory_bytes:.1%} used")

    platform.process(scenario())
    platform.run()


if __name__ == "__main__":
    main()
