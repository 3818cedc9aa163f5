"""Derived quantities: spectral slope and relative magnetometry sensitivity,
nuclear polarization from line areas, bias-field estimates from the spectrum
center, and the reduced-mass Raman-shift model."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .constants import (
    GAMMA_E_MHZ_PER_MT,
    MASS_B10,
    MASS_B11,
    MASS_N14,
    MASS_N15,
    NATURAL_B10_FRACTION,
    RAMAN_INTERCEPT_CM1,
    RAMAN_SLOPE_CM1,
)
from .fit import FitResult, free_model_from_result
from .spectrum import Curve, SpectrumModel, _present_lines, binomial_fractions

# Ascending-frequency quartet lines map to these m_I,tot values. The mapping
# assumes the 15N coupling convention that puts high m_tot at high frequency.
QUARTET_M_ASSIGNMENT = (-1.5, -0.5, 0.5, 1.5)


@dataclass(frozen=True)
class SensitivityReport:
    """Maximum spectral slope and the relative sensitivity figure 1/slope."""

    max_slope: float          # per MHz, of the (optionally C-normalized) ratio
    slope_curve: Curve        # dR/df on the evaluation grid
    eta_relative: float       # relative field sensitivity, smaller is better
    normalization: str        # "raw" or "per_contrast"


@dataclass(frozen=True)
class PolarizationReport:
    """Area-weighted nuclear polarization estimate."""

    areas: dict[float, float]   # m_tot -> area proxy
    polarization: float
    m_max: float


@dataclass(frozen=True)
class RamanPoint:
    """Isotope composition with its reduced mass and predicted Raman shift."""

    boron_frac_10: float
    nitrogen_frac_15: float
    reduced_mass: float
    shift_cm1: float


def _slope_values(model: SpectrumModel, grid: np.ndarray) -> np.ndarray:
    """Closed-form dR/df of the mixture: sum of Lorentzian derivatives."""
    half2 = (0.5 * model.linewidth) ** 2
    fractions, positions, weights, bounds = _present_lines(model, binomial_fractions(model.p15))
    coeff = np.repeat(fractions, np.diff(bounds)) * weights
    u = grid - positions[:, None]
    return model.contrast * (coeff[:, None] * (2.0 * half2 * u) / (u * u + half2) ** 2).sum(axis=0)


def spectral_slope(
    model: SpectrumModel,
    grid,
    normalization: str = "raw",
) -> SensitivityReport:
    """Analytic derivative of the model spectrum and its maximum magnitude.

    ``per_contrast`` divides the slope by the signal amplitude C, removing
    the dependence on measurement conditions so different isotope
    compositions can be compared on equal footing. The grid must resolve the
    lineshape (spacing at most linewidth / 20).
    """
    if normalization not in ("raw", "per_contrast"):
        raise ValueError("normalization must be 'raw' or 'per_contrast'")
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2:
        raise ValueError("grid must have at least 2 points")
    step = float(np.diff(grid).max())
    if step > model.linewidth / 20.0:
        raise ValueError(
            f"grid spacing {step:.3g} MHz too coarse; need <= linewidth/20 = "
            f"{model.linewidth / 20.0:.3g} MHz"
        )
    values = _slope_values(model, grid)
    if normalization == "per_contrast":
        if model.contrast == 0.0:
            raise ValueError("per_contrast normalization undefined at zero contrast")
        values = values / model.contrast
    max_slope = float(np.abs(values).max())
    return SensitivityReport(
        max_slope=max_slope,
        slope_curve=Curve(grid, values),
        eta_relative=1.0 / max_slope if max_slope > 0 else math.inf,
        normalization=normalization,
    )


def relative_sensitivity(report_a: SensitivityReport, report_b: SensitivityReport) -> float:
    """eta_a / eta_b = max_slope_b / max_slope_a; values below 1 mean a wins."""
    if report_a.normalization != report_b.normalization:
        raise ValueError("reports must share the same normalization")
    if report_a.max_slope == 0.0 or report_b.max_slope == 0.0:
        raise ValueError("zero slope; sensitivity ratio undefined")
    return report_b.max_slope / report_a.max_slope


def polarization_from_areas(
    areas: Mapping[float, float],
    m_max: float,
) -> PolarizationReport:
    """Polarization = sum(m_tot * A_mtot) / (m_max * sum(A_mtot)).

    The areas are proxies (depth times width); any common scale factor
    cancels. Equal areas over a symmetric m_tot set give exactly zero.
    """
    if m_max <= 0:
        raise ValueError("m_max must be positive")
    items = sorted(areas.items())
    if not items:
        raise ValueError("areas must be nonempty")
    if any(a < 0 for _, a in items):
        raise ValueError("areas must be nonnegative")
    total = math.fsum(a for _, a in items)
    if total == 0.0:
        raise ValueError("areas are all zero; polarization undefined")
    moment = math.fsum(m * a for m, a in items)
    return PolarizationReport(
        areas=dict(items),
        polarization=moment / (m_max * total),
        m_max=m_max,
    )


def quartet_areas(result: FitResult) -> dict[float, float]:
    """Map a free-Lorentzian quartet fit to areas keyed by m_I,tot.

    The fit must have exactly four lines (``depth_1`` ... ``depth_4``).
    Lines are taken in ascending center frequency and assigned
    m_tot = -3/2, -1/2, +1/2, +3/2 in that order.
    """
    n_lines = sum(name.startswith("depth_") for name in result.names)
    if n_lines != 4:
        raise ValueError(f"the m_tot assignment is defined for quartets, not {n_lines} lines")
    model = free_model_from_result(result, n_lines)
    order = np.argsort(model.centers)
    return {
        QUARTET_M_ASSIGNMENT[i]: model.areas[j] for i, j in enumerate(order)
    }


def polarization_from_quartet_fit(result: FitResult) -> PolarizationReport:
    """Fit -> area -> polarization chain for the 15N quartet."""
    return polarization_from_areas(quartet_areas(result), m_max=1.5)


def min_detectable_field(
    report: SensitivityReport,
    photon_rate_hz: float,
    duration_s: float,
    gamma_e: float = GAMMA_E_MHZ_PER_MT,
) -> float:
    """Shot-noise-limited field resolution (mT) for a given photon budget.

    B_min = 1 / (gamma_e * sqrt(I0 * T) * |dR/df|_max); needs the raw slope
    of the normalized spectrum, so per-contrast reports are rejected.
    """
    if report.normalization != "raw":
        raise ValueError("absolute field resolution needs a raw-normalized slope")
    if photon_rate_hz <= 0 or duration_s <= 0:
        raise ValueError("photon rate and duration must be positive")
    if report.max_slope == 0.0:
        raise ValueError("zero slope; field resolution undefined")
    return 1.0 / (gamma_e * math.sqrt(photon_rate_hz * duration_s) * report.max_slope)


def field_from_center(
    d_gs_mhz: float,
    f_center_mhz: float,
    gamma_e: float = GAMMA_E_MHZ_PER_MT,
) -> float:
    """Axial field (mT) from the lower-branch center: (D - f_center)/gamma_e."""
    b_z = (d_gs_mhz - f_center_mhz) / gamma_e
    if b_z < 0:
        raise ValueError(
            f"negative field {b_z:.3f} mT: f_center above D means the wrong branch"
        )
    return b_z


def reduced_mass(boron_frac_10: float, nitrogen_frac_15: float) -> float:
    """Reduced mass of the B-N oscillator with composition-averaged masses."""
    if not 0.0 <= boron_frac_10 <= 1.0 or not 0.0 <= nitrogen_frac_15 <= 1.0:
        raise ValueError("isotope fractions must lie in [0, 1]")
    m_b = boron_frac_10 * MASS_B10 + (1.0 - boron_frac_10) * MASS_B11
    m_n = nitrogen_frac_15 * MASS_N15 + (1.0 - nitrogen_frac_15) * MASS_N14
    return m_b * m_n / (m_b + m_n)


def raman_shift(mu: float) -> float:
    """Empirical phonon line position (cm^-1), linear in sqrt(reduced mass)."""
    if mu <= 0:
        raise ValueError("reduced mass must be positive")
    return RAMAN_SLOPE_CM1 * math.sqrt(mu) + RAMAN_INTERCEPT_CM1


def raman_point(
    nitrogen_frac_15: float,
    boron_frac_10: float = NATURAL_B10_FRACTION,
) -> RamanPoint:
    """Reduced mass and predicted Raman shift for one isotope composition."""
    mu = reduced_mass(boron_frac_10, nitrogen_frac_15)
    return RamanPoint(
        boron_frac_10=boron_frac_10,
        nitrogen_frac_15=nitrogen_frac_15,
        reduced_mass=mu,
        shift_cm1=raman_shift(mu),
    )
