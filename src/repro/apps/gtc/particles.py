"""Particle storage and loading for the GTC mini-app.

Particles carry the gyrokinetic phase-space coordinates
``(r, theta, zeta, v_parallel)`` plus a statistical weight.  Loading is
uniform in the annulus volume and Maxwellian in parallel velocity —
"the update approach maintains a good load balance due to the
uniformity of the particle distribution".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import PoloidalGrid, TorusGrid

#: Scalars stored per particle (r, theta, zeta, vpar, weight, species).
PARTICLE_FIELDS = ("r", "theta", "zeta", "vpar", "weight", "species")
PARTICLE_WORDS = len(PARTICLE_FIELDS)


@dataclass(frozen=True)
class Species:
    """A particle species of the gyrokinetic system.

    "Simulations with multiple species are essential to study the
    transport of the different products created by the fusion reaction
    in burning plasma experiments.  These multi-species calculations
    require a very large number of particles and will benefit from the
    added decomposition."

    Attributes
    ----------
    charge, mass:
        In units of the reference ion's; the deposited weight carries
        the charge, the Maxwellian loading width scales with
        ``sqrt(temperature / mass)``.
    fraction:
        Share of the total particle budget given to this species.
    """

    name: str
    charge: float = 1.0
    mass: float = 1.0
    temperature: float = 1.0
    fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.mass <= 0 or self.temperature <= 0:
            raise ValueError("mass and temperature must be positive")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")

    @property
    def thermal_velocity(self) -> float:
        return float(np.sqrt(self.temperature / self.mass))


#: The default single-species (deuterium-like reference ion) setup.
DEFAULT_SPECIES: tuple[Species, ...] = (Species(name="ion"),)


@dataclass
class ParticleArray:
    """Structure-of-arrays particle container (vector-friendly layout).

    ``weight`` is the *charge-carrying* statistical weight (species
    charge folded in); ``species`` is the per-particle species index.
    """

    r: np.ndarray = field(default_factory=lambda: np.empty(0))
    theta: np.ndarray = field(default_factory=lambda: np.empty(0))
    zeta: np.ndarray = field(default_factory=lambda: np.empty(0))
    vpar: np.ndarray = field(default_factory=lambda: np.empty(0))
    weight: np.ndarray = field(default_factory=lambda: np.empty(0))
    species: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self) -> None:
        if len(self.species) == 0 and len(self.r) > 0:
            self.species = np.zeros(len(self.r))
        n = len(self.r)
        for name in PARTICLE_FIELDS:
            if len(getattr(self, name)) != n:
                raise ValueError("particle component lengths differ")

    def __len__(self) -> int:
        return len(self.r)

    @property
    def total_charge(self) -> float:
        return float(self.weight.sum())

    def species_count(self, index: int) -> int:
        """Number of particles of one species."""
        return int((self.species.astype(np.int64) == index).sum())

    def species_charge(self, index: int) -> float:
        """Deposited charge carried by one species."""
        mask = self.species.astype(np.int64) == index
        return float(self.weight[mask].sum())

    def pack(self, mask: np.ndarray) -> np.ndarray:
        """Serialize the masked particles into an ``(n, PARTICLE_WORDS)``
        buffer: one row per particle, one column per field."""
        return np.stack(
            [getattr(self, f)[mask] for f in PARTICLE_FIELDS], axis=1
        )

    @classmethod
    def unpack(cls, buffer: np.ndarray) -> "ParticleArray":
        """Inverse of :meth:`pack`."""
        if buffer.ndim != 2 or buffer.shape[1] != PARTICLE_WORDS:
            raise ValueError(f"buffer must be (n, {PARTICLE_WORDS})")
        return cls(*(buffer[:, k].copy() for k in range(PARTICLE_WORDS)))

    def keep(self, mask: np.ndarray) -> "ParticleArray":
        """New array containing only the masked particles."""
        return ParticleArray(
            *(getattr(self, f)[mask].copy() for f in PARTICLE_FIELDS)
        )

    def extend(self, other: "ParticleArray") -> "ParticleArray":
        """New array with ``other``'s particles appended."""
        return ParticleArray(
            *(
                np.concatenate([getattr(self, f), getattr(other, f)])
                for f in PARTICLE_FIELDS
            )
        )

    def copy(self) -> "ParticleArray":
        return ParticleArray(
            *(getattr(self, f).copy() for f in PARTICLE_FIELDS)
        )


def load_particles(
    torus: TorusGrid,
    num: int,
    domain: int,
    rng: np.random.Generator,
    thermal_velocity: float = 1.0,
) -> ParticleArray:
    """Load ``num`` particles uniformly into one toroidal domain.

    Radial positions sample the annulus uniformly *in area*
    (``r ~ sqrt(U)`` between the squared bounds); zeta is uniform within
    the domain's wedge; ``v_parallel`` is Maxwellian.  The particles of
    the gyrokinetic system "are not subject to the Courant condition
    limitations" — velocities may be large relative to the grid.
    """
    if num < 0:
        raise ValueError("num must be non-negative")
    plane = torus.plane
    z_lo, z_hi = torus.domain_bounds(domain)
    u = rng.random(num)
    r = np.sqrt(plane.r0**2 + u * (plane.r1**2 - plane.r0**2))
    # keep particles strictly inside the annulus for clean deposition
    r = np.clip(r, plane.r0 + 1e-6, plane.r1 - 1e-6)
    return ParticleArray(
        r=r,
        theta=rng.random(num) * 2.0 * np.pi,
        zeta=z_lo + rng.random(num) * (z_hi - z_lo),
        vpar=rng.normal(0.0, thermal_velocity, num),
        weight=np.full(num, 1.0),
        species=np.zeros(num),
    )


def load_multispecies(
    torus: TorusGrid,
    num: int,
    domain: int,
    rng: np.random.Generator,
    species: tuple[Species, ...] = DEFAULT_SPECIES,
) -> ParticleArray:
    """Load a multi-species population into one toroidal domain.

    The particle budget is split by each species' ``fraction``
    (normalized); every species loads uniformly in space with its own
    Maxwellian width, carries its charge in the weight, and is tagged
    with its species index.
    """
    if not species:
        raise ValueError("need at least one species")
    fractions = np.array([s.fraction for s in species], dtype=float)
    fractions /= fractions.sum()
    counts = np.floor(fractions * num).astype(int)
    counts[0] += num - counts.sum()  # remainder to the first species

    populations = []
    for index, (spec, count) in enumerate(zip(species, counts)):
        pop = load_particles(
            torus, int(count), domain, rng, spec.thermal_velocity
        )
        pop.weight[:] = spec.charge
        pop.species[:] = float(index)
        populations.append(pop)
    merged = populations[0]
    for pop in populations[1:]:
        merged = merged.extend(pop)
    return merged


def split_particles(
    particles: ParticleArray, num_splits: int
) -> list[ParticleArray]:
    """Partition a domain's particles among its particle-split ranks.

    This is the paper's new third level of parallelism: "the updated
    algorithm splits the particles between several processors within
    each domain of the 1D spatial decomposition".
    """
    if num_splits < 1:
        raise ValueError("num_splits must be >= 1")
    n = len(particles)
    bounds = [n * k // num_splits for k in range(num_splits + 1)]
    out = []
    for k in range(num_splits):
        sl = slice(bounds[k], bounds[k + 1])
        out.append(
            ParticleArray(
                *(getattr(particles, f)[sl].copy() for f in PARTICLE_FIELDS)
            )
        )
    return out
