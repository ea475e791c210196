"""Black-Scholes option pricing (PARSEC blackscholes, Fig. 13a).

The paper's first offloading case study: "a solver for the Black-Scholes
equation ... generates many independent tasks with comparable runtime".
This module is the *real* workload for the live runtime: a vectorized
closed-form Black-Scholes pricer over batches of options, a batch
generator matching PARSEC's input format, and helpers to split work into
offloadable chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "OptionBatch",
    "generate_options",
    "price_options",
    "price_chunk",
    "split_batch",
]


@dataclass(frozen=True)
class OptionBatch:
    """A structure-of-arrays batch of European options."""

    spot: np.ndarray
    strike: np.ndarray
    rate: np.ndarray
    volatility: np.ndarray
    expiry: np.ndarray
    is_call: np.ndarray

    def __post_init__(self):
        n = len(self.spot)
        for field in (self.strike, self.rate, self.volatility, self.expiry, self.is_call):
            if len(field) != n:
                raise ValueError("all arrays must have equal length")

    def __len__(self) -> int:
        return len(self.spot)

    @property
    def nbytes(self) -> int:
        return sum(
            a.nbytes
            for a in (self.spot, self.strike, self.rate, self.volatility, self.expiry, self.is_call)
        )

    def slice(self, start: int, stop: int) -> "OptionBatch":
        return OptionBatch(
            self.spot[start:stop], self.strike[start:stop], self.rate[start:stop],
            self.volatility[start:stop], self.expiry[start:stop], self.is_call[start:stop],
        )


def generate_options(count: int, seed: int = 0) -> OptionBatch:
    """Synthesize a PARSEC-like option portfolio."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    return OptionBatch(
        spot=rng.uniform(10.0, 200.0, count),
        strike=rng.uniform(10.0, 200.0, count),
        rate=rng.uniform(0.005, 0.06, count),
        volatility=rng.uniform(0.05, 0.6, count),
        expiry=rng.uniform(0.05, 2.0, count),
        is_call=rng.random(count) < 0.5,
    )


def price_options(batch: OptionBatch, iterations: int = 1) -> np.ndarray:
    """Closed-form Black-Scholes prices.

    ``iterations`` repeats the computation like PARSEC's ``-n`` flag (the
    paper uses 100 iterations) — it scales compute without scaling data,
    which is what makes offloading profitable (Eq. 1).
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    from scipy.special import ndtr  # standard normal CDF, vectorized

    sqrt_t = np.sqrt(batch.expiry)
    for _ in range(iterations):
        d1 = (
            np.log(batch.spot / batch.strike)
            + (batch.rate + 0.5 * batch.volatility**2) * batch.expiry
        ) / (batch.volatility * sqrt_t)
        d2 = d1 - batch.volatility * sqrt_t
        discounted_strike = batch.strike * np.exp(-batch.rate * batch.expiry)
        call = batch.spot * ndtr(d1) - discounted_strike * ndtr(d2)
        put = discounted_strike * ndtr(-d2) - batch.spot * ndtr(-d1)
        prices = np.where(batch.is_call, call, put)
    return prices


def price_chunk(arrays: dict, iterations: int) -> np.ndarray:
    """Pickle-friendly entry point for remote executors.

    Remote invocation payloads travel as plain dict-of-arrays; this
    rebuilds the batch and prices it.
    """
    batch = OptionBatch(**arrays)
    return price_options(batch, iterations=iterations)


def split_batch(batch: OptionBatch, chunks: int) -> list[dict]:
    """Split into ``chunks`` near-equal dict payloads for dispatch."""
    if chunks < 1:
        raise ValueError("chunks must be >= 1")
    bounds = np.linspace(0, len(batch), chunks + 1, dtype=int)
    out = []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        if stop > start:
            part = batch.slice(int(start), int(stop))
            out.append(
                dict(
                    spot=part.spot, strike=part.strike, rate=part.rate,
                    volatility=part.volatility, expiry=part.expiry, is_call=part.is_call,
                )
            )
    return out
