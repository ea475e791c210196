"""Classical cloud FaaS baseline (the comparator of Secs. IV-A/IV-D).

The paper's motivation for HPC functions is the latency structure of
*classical cloud functions*: every invocation crosses a gateway, gets
centrally scheduled and rerouted to a sandbox over TCP, so "even a warm
invocation in an existing sandbox can introduce dozens of milliseconds
latency"; payloads beyond the inline limit must detour through object
storage because sandboxes cannot accept connections (NAT); idle
containers are purged after a keep-alive window, re-exposing cold starts.

This model reproduces that structure so benchmarks can quantify the gap
to the HPC-specialized platform on identical workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..containers.image import Image
from ..containers.runtime import DOCKER
from ..sim.engine import Environment, Process
from ..storage.objectstore import ObjectStoreModel

__all__ = ["CloudInvocation", "CloudFaaSPlatform"]

# Latency/behaviour constants of a typical commercial platform.
#: API gateway + auth + routing, one way (seconds), and its lognormal sigma.
GATEWAY_LATENCY_S = 4e-3
GATEWAY_JITTER_SIGMA = 0.35
#: Central scheduler decision + worker dispatch.
SCHEDULING_S = 6e-3
#: Payloads above this must round-trip through object storage.
INLINE_PAYLOAD_LIMIT = 256 * 1024
#: Idle containers are purged after this keep-alive window.
KEEPALIVE_S = 600.0
#: The sandbox runtime.
RUNTIME = DOCKER


@dataclass
class CloudInvocation:
    invocation_id: int
    function: str
    cold: bool
    gateway_s: float = 0.0
    scheduling_s: float = 0.0
    startup_s: float = 0.0
    storage_s: float = 0.0
    execution_s: float = 0.0

    @property
    def total_s(self) -> float:
        return (self.gateway_s + self.scheduling_s + self.startup_s
                + self.storage_s + self.execution_s)


class CloudFaaSPlatform:
    """A centralized, storage-mediated serverless platform."""

    def __init__(
        self,
        env: Environment,
        rng: Optional[np.random.Generator] = None,
    ):
        self.env = env
        self.storage = ObjectStoreModel(
            request_latency_s=15e-3,      # cloud storage: tens of ms (Sec. IV-D)
            server_bandwidth=2.5e9,
        )
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._functions: dict[str, Image] = {}
        self._last_used: dict[str, float] = {}
        self.cold_starts = 0
        self.warm_invocations = 0

    def register(self, name: str, image: Image) -> None:
        if name in self._functions:
            raise ValueError(f"function {name!r} already registered")
        if not RUNTIME.supports_image(image):
            raise ValueError(f"runtime {RUNTIME.name} cannot run this image")
        self._functions[name] = image

    def _gateway_hop(self) -> float:
        return float(GATEWAY_LATENCY_S
                     * self.rng.lognormal(0.0, GATEWAY_JITTER_SIGMA))

    def invoke(self, function: str, payload_bytes: int = 0,
               runtime_s: float = 0.0, output_bytes: int = 1024) -> Process:
        """Process yielding a :class:`CloudInvocation` with its breakdown."""
        image = self._functions.get(function)
        if image is None:
            raise KeyError(f"function {function!r} not registered")
        if payload_bytes < 0 or output_bytes < 0 or runtime_s < 0:
            raise ValueError("negative sizes")
        record = CloudInvocation(self.env.next_id("cloud-invocation"), function, cold=False)

        def run():
            # 1. Client -> gateway -> scheduler.
            record.gateway_s = self._gateway_hop()
            yield self.env.timeout(record.gateway_s)
            record.scheduling_s = SCHEDULING_S
            yield self.env.timeout(record.scheduling_s)
            # 2. Sandbox: warm within keep-alive, else cold start.
            last = self._last_used.get(function)
            if last is None or self.env.now - last > KEEPALIVE_S:
                record.cold = True
                record.startup_s = RUNTIME.cold_start_time(image)
                self.cold_starts += 1
            else:
                record.startup_s = RUNTIME.warm_attach_s
                self.warm_invocations += 1
            yield self.env.timeout(record.startup_s)
            # 3. Data: inline or the storage detour (write + read each way).
            storage_time = 0.0
            if payload_bytes > INLINE_PAYLOAD_LIMIT:
                storage_time += 2 * self.storage.single_read_time(payload_bytes)
            if output_bytes > INLINE_PAYLOAD_LIMIT:
                storage_time += 2 * self.storage.single_read_time(output_bytes)
            record.storage_s = storage_time
            if storage_time:
                yield self.env.timeout(storage_time)
            # 4. Execute, then the response crosses the gateway again.
            record.execution_s = runtime_s
            if runtime_s:
                yield self.env.timeout(runtime_s)
            back = self._gateway_hop()
            record.gateway_s += back
            yield self.env.timeout(back)
            self._last_used[function] = self.env.now
            return record

        return self.env.process(run(), name=f"cloud-invoke-{function}")
