"""Monte Carlo particle transport mini-app (OpenMC opr stand-in, Fig. 13b/c).

The paper's second offloading case study runs OpenMC's *opr* benchmark
(an Optimized Power Reactor model) with 1,000 and 10,000 particles.  The
real OpenMC and its 410 MB cross-section library are unavailable offline,
so this module implements a faithful miniature: particles random-walk
through a two-region (fuel/moderator) slab geometry with energy-dependent
cross sections, undergoing scattering, absorption and fission, while a
collision estimator tallies k-effective.  Like OpenMC, particle histories
are independent, making the app "extremely malleable" for offloading.

The transport loop is vectorized over the particle population (an
event-based MC formulation), so one call does real numpy work with the
same character as the original: random memory access into cross-section
tables plus branch-heavy particle logic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ReactorModel", "TransportResult", "run_transport", "transport_chunk"]


@dataclass(frozen=True)
class ReactorModel:
    """Two-region slab reactor with energy-dependent cross sections."""

    fuel_width_cm: float = 1.0
    moderator_width_cm: float = 2.0
    energy_groups: int = 64
    # Macroscopic cross sections (1/cm) per group are synthesized
    # deterministically from these anchors.
    fuel_sigma_t: float = 0.55
    moderator_sigma_t: float = 1.2
    fuel_fission_fraction: float = 0.35
    fuel_absorption_fraction: float = 0.55
    moderator_absorption_fraction: float = 0.05
    nu: float = 2.43  # neutrons per fission

    def __post_init__(self):
        if self.fuel_width_cm <= 0 or self.moderator_width_cm <= 0:
            raise ValueError("region widths must be positive")
        if self.energy_groups < 1:
            raise ValueError("need >= 1 energy group")

    @property
    def pitch(self) -> float:
        return self.fuel_width_cm + self.moderator_width_cm

    def cross_sections(self) -> dict[str, np.ndarray]:
        """Group-wise sigma_t per region, 1/v-flavoured energy dependence."""
        g = np.arange(self.energy_groups)
        shape = 1.0 + 1.5 * (g / max(self.energy_groups - 1, 1))  # thermal up
        return {
            "fuel_t": self.fuel_sigma_t * shape,
            "mod_t": self.moderator_sigma_t * shape,
        }


@dataclass(frozen=True)
class TransportResult:
    particles: int
    collisions: int
    absorptions: int
    fissions: int
    leakage: int
    k_estimate: float
    mean_distance_cm: float


def run_transport(
    particles: int,
    seed: int = 0,
    max_collisions: int = 200,
) -> TransportResult:
    """Track a batch of particle histories to termination through the
    default :class:`ReactorModel` lattice."""
    model = ReactorModel()
    if particles < 1:
        raise ValueError("particles must be >= 1")
    if max_collisions < 1:
        raise ValueError("max_collisions must be >= 1")
    rng = np.random.default_rng(seed)
    xs = model.cross_sections()

    # Live particle state (event-based vectorized transport).
    position = rng.uniform(0.0, model.fuel_width_cm, particles)   # start in fuel
    direction = np.where(rng.random(particles) < 0.5, -1.0, 1.0)
    group = rng.integers(0, model.energy_groups, particles)
    alive = np.ones(particles, dtype=bool)

    collisions = absorptions = fissions = leakage = 0
    fission_neutrons = 0.0
    total_distance = 0.0

    for _ in range(max_collisions):
        if not alive.any():
            break
        idx = np.nonzero(alive)[0]
        pos = position[idx]
        in_fuel = pos % model.pitch < model.fuel_width_cm
        sigma = np.where(in_fuel, xs["fuel_t"][group[idx]], xs["mod_t"][group[idx]])
        # Sample flight distance, move along the slab axis.
        distance = -np.log(rng.random(idx.size)) / sigma
        total_distance += float(distance.sum())
        new_pos = pos + direction[idx] * distance
        # Leakage at the outer boundary (10 pitches of slab).
        slab = 10 * model.pitch
        leaked = (new_pos < 0.0) | (new_pos > slab)
        leakage += int(leaked.sum())
        alive[idx[leaked]] = False

        live = idx[~leaked]
        if live.size == 0:
            continue
        position[live] = new_pos[~leaked]
        collisions += live.size

        # Collision physics per region.
        in_fuel_live = position[live] % model.pitch < model.fuel_width_cm
        roll = rng.random(live.size)
        absorb_frac = np.where(
            in_fuel_live, model.fuel_absorption_fraction, model.moderator_absorption_fraction
        )
        fission_frac = np.where(in_fuel_live, model.fuel_fission_fraction, 0.0)
        absorbed = roll < absorb_frac
        fissioned = absorbed & (roll < fission_frac)
        fissions += int(fissioned.sum())
        absorptions += int(absorbed.sum())
        fission_neutrons += model.nu * float(fissioned.sum())
        alive[live[absorbed]] = False

        # Scattering: new direction, downscatter in the moderator.
        scattered = live[~absorbed]
        direction[scattered] = np.where(rng.random(scattered.size) < 0.5, -1.0, 1.0)
        in_mod_scat = position[scattered] % model.pitch >= model.fuel_width_cm
        group[scattered] = np.minimum(
            group[scattered] + in_mod_scat.astype(int), model.energy_groups - 1
        )

    return TransportResult(
        particles=particles,
        collisions=collisions,
        absorptions=absorptions,
        fissions=fissions,
        leakage=leakage,
        k_estimate=fission_neutrons / particles,
        mean_distance_cm=total_distance / particles,
    )


def transport_chunk(payload: dict) -> dict:
    """Pickle-friendly remote entry point: run a particle sub-batch."""
    result = run_transport(
        particles=int(payload["particles"]),
        seed=int(payload.get("seed", 0)),
        max_collisions=int(payload.get("max_collisions", 200)),
    )
    return {
        "particles": result.particles,
        "collisions": result.collisions,
        "fissions": result.fissions,
        "k_estimate": result.k_estimate,
    }
