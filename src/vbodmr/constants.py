"""Physical constants and isotope data shared across the package.

Unit conventions everywhere: frequencies and energies in MHz, magnetic
fields in mT, distances in nm, atomic masses in u, Raman shifts in cm^-1.
Names carry the unit when a value deviates from these defaults. The one
enumeration of nuclear product states (``_label_table``) is here, so the
forward model (``spectrum``) reads it without loading ``spin_core``.
"""

import enum
import functools
import itertools

import numpy as np

# Gyromagnetic ratios
GAMMA_E_MHZ_PER_MT = 28.0       # electron spin of the V_B defect
GAMMA_N14_KHZ_PER_MT = 3.077    # 14N nuclear spin (I = 1)
GAMMA_N15_KHZ_PER_MT = -4.316   # 15N nuclear spin (I = 1/2)

# Zero-field splitting
D_GS_TYPICAL_MHZ = 3450.0       # typical ground-state value

# Default hyperfine couplings (axial component, nearest-neighbor nitrogen)
A14_DEFAULT_MHZ = 43.0
A15_DEFAULT_MHZ = -64.0         # sign is a convention; fits report magnitude only

# Atomic masses (u) and the natural 10B abundance
MASS_B10 = 10.0129
MASS_B11 = 11.0093
MASS_N14 = 14.0031
MASS_N15 = 15.0001
NATURAL_B10_FRACTION = 0.199

# Empirical Raman line: shift = RAMAN_SLOPE_CM1 * sqrt(mu) + RAMAN_INTERCEPT_CM1
RAMAN_SLOPE_CM1 = -537.0
RAMAN_INTERCEPT_CM1 = 2691.0


class IsotopeSpecies(enum.Enum):
    """Stable nitrogen isotopes with their spin data."""

    N14 = "N14"
    N15 = "N15"

    @property
    def spin(self) -> float:
        return 1.0 if self is IsotopeSpecies.N14 else 0.5

    @property
    def gamma_n_khz_per_mt(self) -> float:
        if self is IsotopeSpecies.N14:
            return GAMMA_N14_KHZ_PER_MT
        return GAMMA_N15_KHZ_PER_MT

    @property
    def multiplicity(self) -> int:
        return int(round(2.0 * self.spin)) + 1

    @property
    def projections(self) -> tuple[float, ...]:
        """Allowed m_I values, highest first."""
        return tuple(self.spin - k for k in range(self.multiplicity))


@functools.lru_cache(maxsize=8)
def _label_table(species: tuple[IsotopeSpecies, ...]) -> tuple[tuple[float, ...], ...]:
    """Per-site projections (m_1, m_2, m_3) of every nuclear product state
    of ``species``, in basis order: the product of the per-site projections,
    last site fastest, as the Kronecker rows of ``spin_core._nuclear_operators``
    run. No operator is built, as a spectrum needs none. The one enumeration
    of product states; a tuple, so read-only."""
    return tuple(itertools.product(*(s.projections for s in species)))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a
