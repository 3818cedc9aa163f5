"""Derived quantities: spectral slope and relative magnetometry sensitivity,
nuclear polarization from line areas, bias-field estimates from the spectrum
center, and the reduced-mass Raman-shift model."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
from .fit import FitResult
from .spectrum import Curve, SpectrumModel, _grid_constants, _line_pass, _line_plan, _line_table

# Ascending-frequency quartet lines of the lower branch map to these m_I,tot
# values. The mapping assumes the 15N coupling convention that puts high m_tot
# at high frequency there; the upper branch, whose lines lie at f_center +
# branch * (coupling shift), runs the other way.
QUARTET_M_ASSIGNMENT = (-1.5, -0.5, 0.5, 1.5)
QUARTET_M_MAX = max(QUARTET_M_ASSIGNMENT)


@dataclass(frozen=True)
class SensitivityReport:
    """Maximum spectral slope; the relative sensitivity figure is 1/slope."""

    max_slope: float          # per MHz, of the (optionally C-normalized) ratio
    slope_curve: Curve        # dR/df on the evaluation grid
    normalization: str        # "raw" or "per_contrast"


@dataclass(frozen=True)
class PolarizationReport:
    """Area-weighted nuclear polarization estimate."""

    areas: dict[float, float]   # m_tot -> area proxy
    polarization: float | None  # None: a quartet fit with no line area
    m_max: float
    sigma: float | None = None  # 1-sigma, from a fit covariance when there is one


@dataclass(frozen=True)
class RamanPoint:
    """Isotope composition with its reduced mass and predicted Raman shift."""

    boron_frac_10: float
    nitrogen_frac_15: float
    reduced_mass: float
    shift_cm1: float


def _slope_values(model: SpectrumModel, grid: np.ndarray) -> np.ndarray:
    """Closed-form dR/df of the mixture from its lines
    (``spectrum._line_pass``, one ``lorentzian`` call), not its curve: with
    their offsets u = f - f_line, g = (FWHM/2)^2 and L = g / (u^2 + g),
    dR/df = (2 C / g) (w @ (u L^2)), finite wherever g is."""
    plan = _line_plan(model, _line_table(model.populations))
    _, w, _, u, slopes = _line_pass(model, _grid_constants(grid, len(plan[0])), plan)
    slopes *= slopes
    slopes *= u
    half = 0.5 * model.linewidth
    return 2.0 * model.contrast * (w @ slopes) / (half * half)


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
    cancels. Equal areas over a symmetric m_tot set give exactly zero, and
    P lies in [-1, 1] because every key lies in [-m_max, m_max].
    """
    if m_max <= 0:
        raise ValueError("m_max must be positive")
    items = sorted(areas.items())
    if not items:
        raise ValueError("areas must be nonempty")
    for m, _ in items:
        if abs(m) > m_max:
            raise ValueError(f"area key m_tot = {m} lies outside [-m_max, m_max], m_max = {m_max}")
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


def quartet_areas(result: FitResult, branch: int = -1) -> dict[float, float]:
    """Map a free-Lorentzian quartet fit to areas keyed by m_I,tot.

    The fit must have exactly four lines (``depth_1`` ... ``depth_4``).
    Its lines lie in ascending center frequency (the spacing is positive)
    and are assigned m_tot = -3/2, -1/2, +1/2, +3/2 in that order on the
    lower branch, +3/2 ... -3/2 on the upper one. A line's area is depth
    times width (constant factors cancel in P).
    """
    n_lines = sum(name.startswith("depth_") for name in result.names)
    if n_lines != 4:
        raise ValueError(f"the m_tot assignment is defined for quartets, not {n_lines} lines")
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    v = result.values
    assignment = QUARTET_M_ASSIGNMENT[::-branch]
    return {m: v[f"depth_{k}"] * v[f"width_{k}"] for k, m in enumerate(assignment, 1)}


def polarization_from_quartet_fit(result: FitResult, branch: int = -1) -> PolarizationReport:
    """Fit -> area -> polarization chain for the 15N quartet on ``branch``.

    sigma comes from the delta method on the depth and width block of the
    fit covariance: dP/dA_i = (m_i - m_max P) / (m_max sum A) with
    A_i = d_i w_i, so dA/dd = w and dA/dw = d. It is None when that block
    is not finite.
    """
    areas = quartet_areas(result, branch)
    report = polarization_from_areas(areas, m_max=QUARTET_M_MAX)
    names = [f"{kind}_{k}" for kind in ("depth", "width") for k in range(1, 5)]
    depths, widths = np.split(np.array([result.values[n] for n in names]), 2)
    m = np.array(list(areas))  # in line order
    dp_da = (m - report.m_max * report.polarization) / (report.m_max * math.fsum(areas.values()))
    grad = np.concatenate([dp_da * widths, dp_da * depths])
    rows = [result.names.index(n) for n in names]
    block = result.covariance[np.ix_(rows, rows)]
    if not np.all(np.isfinite(block)):
        return report
    return replace(report, sigma=math.sqrt(max(float(grad @ block @ grad), 0.0)))


def field_from_center(d_gs_mhz: float, f_center_mhz: float, branch: int = -1) -> float:
    """Axial field (mT) from the center of the ``branch`` resonance (-1
    lower, +1 upper): branch * (f_center - D)/gamma_e."""
    b_z = -branch * (d_gs_mhz - f_center_mhz) / GAMMA_E_MHZ_PER_MT
    if b_z < 0:
        side = "above" if branch < 0 else "below"
        raise ValueError(f"negative field {b_z:.3f} mT: f_center {side} D means the wrong branch")
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
