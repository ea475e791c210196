"""LogP / LogGP network performance model (Sec. IV-F).

The paper's offloading integration is built on LogP-family models
[Culler'93, Hoefler'06]: a message of ``s`` bytes costs

    T(s) = o_send + L + (s - 1) * G + o_recv

where ``L`` is wire latency, ``o`` per-message CPU overhead and ``G`` the
per-byte gap (inverse bandwidth).  We keep the continuous LogGP form and
add a multiplicative lognormal jitter term so percentile plots (Fig. 7
reports median and p95) are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = ["LogGPParams"]


@dataclass(frozen=True)
class LogGPParams:
    """LogGP parameters, all in seconds / bytes-per-second."""

    L: float                 # wire latency (s)
    o: float                 # per-message CPU overhead at each side (s)
    G: float                 # per-byte gap (s/byte) == 1/bandwidth
    g: float = 0.0           # per-message gap (s) limiting injection rate
    jitter_sigma: float = 0.0  # lognormal sigma of multiplicative noise

    def __post_init__(self):
        if self.L < 0 or self.o < 0 or self.G < 0 or self.g < 0:
            raise ValueError("LogGP parameters must be non-negative")
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be non-negative")

    @property
    def bandwidth(self) -> float:
        """Asymptotic bandwidth in bytes/s."""
        return float("inf") if self.G == 0 else 1.0 / self.G

    def one_way(self, size_bytes: int) -> float:
        """Deterministic one-way message time for ``size_bytes``."""
        if size_bytes < 0:
            raise ValueError("negative message size")
        return 2 * self.o + self.L + size_bytes * self.G

    def round_trip(self, size_out: int, size_back: int = 0) -> float:
        """Deterministic request/response time (e.g. an invocation RTT)."""
        return self.one_way(size_out) + self.one_way(size_back)

    def rdma_read(self, size_bytes: int) -> float:
        """One-sided read: request header out, payload back, no remote o."""
        if size_bytes < 0:
            raise ValueError("negative message size")
        return self.o + 2 * self.L + size_bytes * self.G

    def rdma_write(self, size_bytes: int) -> float:
        """One-sided write: payload out, hardware ack back."""
        if size_bytes < 0:
            raise ValueError("negative message size")
        return self.o + 2 * self.L + size_bytes * self.G

    def sample(self, base_time: float, rng: np.random.Generator) -> float:
        """Apply multiplicative lognormal jitter to a deterministic time."""
        if self.jitter_sigma == 0.0:
            return base_time
        return base_time * float(rng.lognormal(mean=0.0, sigma=self.jitter_sigma))

    def with_jitter(self, sigma: float) -> "LogGPParams":
        return replace(self, jitter_sigma=sigma)
