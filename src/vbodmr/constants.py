"""Physical constants and isotope data shared across the package.

Unit conventions everywhere: frequencies and energies in MHz, magnetic
fields in mT, distances in nm, atomic masses in u, Raman shifts in cm^-1.
Names carry the unit when a value deviates from these defaults.
"""

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
