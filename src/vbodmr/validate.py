"""Self-check suite: machine-readable pass/fail for the package invariants.

Each group returns a measured figure next to its threshold so a failure
report carries the evidence. The groups cover the eigen-residual of the full
Hamiltonian of dense spin systems, the level-ladder degeneracies, the
agreement of the full Hamiltonian with the secular expression, and the
isotope sensitivity-gain ratio. Thresholds, draw counts and the oracle seed
are the module constants below, so a pass always means the same checks passed.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from .analysis import relative_sensitivity, spectral_slope
from .constants import A14_DEFAULT_MHZ, A15_DEFAULT_MHZ, D_GS_TYPICAL_MHZ, IsotopeSpecies
from .spectrum import SpectrumModel, enumerate_ladder, predict_a15_from_a14
from .spin_core import (
    ElectronParams,
    NuclearSite,
    SpinSystem,
    build_full_hamiltonian,
    eigen_hermitian,
    make_system,
    quadrupole_axes,
    transition_frequencies,
)

DEFAULT_EIGEN_TOLERANCE = 1e-9
DEFAULT_ORACLE_DRAWS = 25
ORACLE_TOLERANCE_MHZ = 1e-6
ORACLE_SEED = 1
DEFAULT_SLOPE_RATIO_BOUNDS = (1.75, 1.85)


def brute_force_ladder_table() -> dict[int, list[int]]:
    """Degeneracy tables by direct enumeration of all product states."""
    table = {}
    for n in range(4):
        species = [IsotopeSpecies.N14] * (3 - n) + [IsotopeSpecies.N15] * n
        counts: dict[float, int] = {}
        for label in itertools.product(*[s.projections for s in species]):
            m = sum(label)
            counts[m] = counts.get(m, 0) + 1
        table[n] = [counts[m] for m in sorted(counts)]
    return table


def check_eigensolver() -> dict:
    """Largest eigen-residual max_k ||H v_k - w_k v_k|| / ||H|| of the full
    Hamiltonian of one dense system per isotope pattern: the hyperfine
    tensor diag(47, 90, 47) MHz rotated 120 deg per site (its 90 MHz axis
    along the site's in-plane axis o; scaled by gamma_15N / gamma_14N on 15N
    sites), a traceless 14N quadrupole, nuclear Zeeman and a 41 mT field
    tilted off the symmetry axis."""
    electron = ElectronParams(D_GS_TYPICAL_MHZ, b_field=(3.0, -2.0, 41.0))
    worst = 0.0
    for n15 in range(4):
        sites = []
        for j in (1, 2, 3):
            o_axis = quadrupole_axes(j)[1]
            tensor = 47.0 * np.eye(3) + 43.0 * np.outer(o_axis, o_axis)
            if j > 3 - n15:
                tensor = predict_a15_from_a14(tensor)
                sites.append(NuclearSite(IsotopeSpecies.N15, tensor, site_index=j))
            else:
                sites.append(NuclearSite(IsotopeSpecies.N14, tensor, (-0.7, 1.2, -0.5), j))
        system = SpinSystem(
            electron, tuple(sites), include_nuclear_zeeman=True, include_quadrupole=True
        )
        h = build_full_hamiltonian(system)
        values, vectors = eigen_hermitian(h)
        residual = np.linalg.norm(h.entries @ vectors - vectors * values, axis=0).max()
        worst = max(worst, float(residual / np.linalg.norm(h.entries)))
    return {
        "name": "eigensolver",
        "passed": bool(worst <= DEFAULT_EIGEN_TOLERANCE),
        "measured_residual": worst,
        "tolerance": DEFAULT_EIGEN_TOLERANCE,
    }


def check_ladder() -> dict:
    """Each configuration's ladder, the label table's states summed by m_tot
    as every line weight of W sums them, against direct enumeration."""
    expected = brute_force_ladder_table()
    mismatches = []
    for n in range(4):
        got = list(enumerate_ladder(n).degeneracies)
        want = expected[n]
        if got != want:
            mismatches.append({"n15_count": n, "computed": got, "expected": want})
    return {
        "name": "ladder",
        "passed": not mismatches,
        "mismatches": mismatches,
    }


def check_oracle_equivalence() -> dict:
    rng = random.Random(ORACLE_SEED)
    worst = 0.0
    for n15 in range(4):
        for _ in range(DEFAULT_ORACLE_DRAWS):
            d = rng.uniform(3300.0, 3600.0)
            b_z = rng.uniform(10.0, 100.0)
            a14 = rng.uniform(-80.0, 80.0)
            a15 = rng.uniform(-80.0, 80.0)
            sys = make_system(d, b_z, n15, a14, a15)
            full = transition_frequencies(sys, "full")
            effective = transition_frequencies(sys, "effective")
            for branch in (1, -1):
                deviation = full.frequencies(branch) - effective.frequencies(branch)
                worst = max(worst, float(np.abs(deviation).max()))
    return {
        "name": "oracle_equivalence",
        "passed": bool(worst <= ORACLE_TOLERANCE_MHZ),
        "max_deviation_mhz": worst,
        "tolerance_mhz": ORACLE_TOLERANCE_MHZ,
        "draws_per_configuration": DEFAULT_ORACLE_DRAWS,
    }


def check_slope_ratio() -> dict:
    grid = np.linspace(2308.0 - 300.0, 2308.0 + 300.0, 4001)
    common = dict(f_center=2308.0, contrast=0.1, linewidth=50.0, branch=-1)
    model15 = SpectrumModel(a14=A14_DEFAULT_MHZ, a15=abs(A15_DEFAULT_MHZ), p15=1.0, **common)
    model14 = SpectrumModel(a14=A14_DEFAULT_MHZ, a15=abs(A15_DEFAULT_MHZ), p15=0.0, **common)
    slope15 = spectral_slope(model15, grid, "per_contrast")
    slope14 = spectral_slope(model14, grid, "per_contrast")
    # eta_15/eta_14 = slope_14/slope_15; the quoted gain is the inverse.
    gain = 1.0 / relative_sensitivity(slope15, slope14)
    low, high = DEFAULT_SLOPE_RATIO_BOUNDS
    return {
        "name": "slope_ratio",
        "passed": bool(low <= gain <= high),
        "gain_15n_over_14n": gain,
        "bounds": [low, high],
    }


def run_validation() -> dict:
    groups = [
        check_eigensolver(),
        check_ladder(),
        check_oracle_equivalence(),
        check_slope_ratio(),
    ]
    return {
        "passed": all(g["passed"] for g in groups),
        "groups": groups,
    }
