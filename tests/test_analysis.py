import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from vbodmr.analysis import (
    field_from_center,
    polarization_from_areas,
    polarization_from_quartet_fit,
    quartet_areas,
    raman_point,
    raman_shift,
    reduced_mass,
    relative_sensitivity,
    spectral_slope,
)
from vbodmr.constants import MASS_B10, MASS_B11, MASS_N14, MASS_N15
from vbodmr.fit import FitResult, MeasuredSpectrum, fit_free_lorentzians
from vbodmr.spectrum import (
    Populations,
    SpectrumModel,
    default_grid,
    enumerate_ladder,
    mixture_spectrum,
)


def sample_model(p15, contrast=0.1, linewidth=50.0):
    return SpectrumModel(
        f_center=2308.0,
        contrast=contrast,
        linewidth=linewidth,
        a14=43.0,
        a15=64.0,
        p15=p15,
    )


def fine_grid(f_center=2308.0, span=300.0, points=12001):
    return np.linspace(f_center - span, f_center + span, points)


# --- spectral slope ------------------------------------------------------------

def test_isotope_slope_ratio_is_about_1p8():
    grid = fine_grid()
    s15 = spectral_slope(sample_model(1.0), grid, "per_contrast")
    s14 = spectral_slope(sample_model(0.0), grid, "per_contrast")
    ratio = s15.max_slope / s14.max_slope
    assert ratio == pytest.approx(1.8, abs=0.05)


def test_zero_contrast_slope_is_zero():
    model = sample_model(1.0, contrast=0.0)
    report = spectral_slope(model, fine_grid(), "raw")
    assert report.max_slope == 0.0
    assert np.all(report.slope_curve.values == 0.0)


def test_single_lorentzian_slope_closed_form():
    # max |dL/df| = (3 sqrt(3) / 4) * C / fwhm at f0 +- fwhm/(2 sqrt 3)
    model = SpectrumModel(
        f_center=2308.0, contrast=0.1, linewidth=40.0, a14=0.0, a15=0.0, p15=0.0
    )
    grid = fine_grid(points=48001)
    report = spectral_slope(model, grid, "raw")
    expected = (3.0 * math.sqrt(3.0) / 4.0) * model.contrast / model.linewidth
    assert report.max_slope == pytest.approx(expected, rel=1e-6)
    peak_at = grid[np.argmax(np.abs(report.slope_curve.values))]
    assert abs(abs(peak_at - 2308.0) - model.linewidth / (2.0 * math.sqrt(3.0))) < 0.05


def test_slope_matches_finite_differences():
    model = sample_model(0.6)
    grid = fine_grid(points=6001)
    report = spectral_slope(model, grid, "raw")
    h = model.linewidth / 100.0
    upper = mixture_spectrum(model, grid + h).values
    lower = mixture_spectrum(model, grid - h).values
    numeric = (upper - lower) / (2.0 * h)
    # 1e-6 on the unit scale of R; the finite-difference truncation itself
    # dominates the residual
    assert np.abs(report.slope_curve.values - numeric).max() <= 1e-6


@pytest.mark.parametrize("linewidth", [1e150, 1e151, 1e152, 1e153, 1e154])
def test_slope_is_finite_wherever_the_squared_half_width_is(linewidth):
    # every line is flat on the grid: L = 1 to within (u / FWHM)^2, so the
    # slope is 2 C (f - f_center) / g with g = (FWHM/2)^2 finite
    model = sample_model(0.6, linewidth=linewidth)
    grid = fine_grid()
    values = spectral_slope(model, grid, "raw").slope_curve.values
    assert np.all(np.isfinite(values)) and np.abs(values).max() > 0.0
    expected = 2.0 * model.contrast * (grid - model.f_center) / (0.5 * linewidth) ** 2
    assert np.abs(values - expected).max() <= 1e-12 * np.abs(expected).max()


def test_slope_antisymmetric_for_unpolarized():
    model = sample_model(1.0)
    delta = np.linspace(-250.0, 250.0, 5001)
    values = spectral_slope(model, model.f_center + delta, "raw").slope_curve.values
    assert np.abs(values + values[::-1]).max() <= 1e-10


def test_slope_grid_resolution_guard():
    model = sample_model(1.0, linewidth=40.0)
    coarse = np.linspace(2200.0, 2400.0, 50)  # ~4 MHz spacing > 2 MHz limit
    with pytest.raises(ValueError):
        spectral_slope(model, coarse)


def test_relative_sensitivity_contract():
    grid = fine_grid()
    report = spectral_slope(sample_model(1.0), grid, "per_contrast")
    assert relative_sensitivity(report, report) == 1.0
    s14 = spectral_slope(sample_model(0.0), grid, "per_contrast")
    # eta_14 / eta_15 = slope_15 / slope_14 ~ 1.8: 15N wins
    assert relative_sensitivity(s14, report) == pytest.approx(1.8, abs=0.05)
    # doubling C doubles the raw slope, so halves eta = 1 / slope
    raw_1 = spectral_slope(sample_model(1.0, contrast=0.05), grid, "raw")
    raw_2 = spectral_slope(sample_model(1.0, contrast=0.10), grid, "raw")
    assert raw_2.max_slope / raw_1.max_slope == pytest.approx(2.0, rel=1e-9)
    with pytest.raises(ValueError):
        relative_sensitivity(report, spectral_slope(sample_model(0.0), grid, "raw"))


def test_zero_slope_ratio_is_an_error():
    grid = fine_grid()
    zero = spectral_slope(sample_model(1.0, contrast=0.0), grid, "raw")
    nonzero = spectral_slope(sample_model(1.0), grid, "raw")
    with pytest.raises(ValueError):
        relative_sensitivity(zero, nonzero)
    with pytest.raises(ValueError):
        relative_sensitivity(nonzero, zero)


# --- polarization estimator ------------------------------------------------------

QUARTET_M = (-1.5, -0.5, 0.5, 1.5)


def test_equal_areas_give_exact_zero():
    report = polarization_from_areas({m: 3.7 for m in QUARTET_M}, m_max=1.5)
    assert report.polarization == 0.0


def test_full_weight_at_extremal_state():
    areas = {m: 0.0 for m in QUARTET_M}
    areas[1.5] = 2.0
    assert polarization_from_areas(areas, m_max=1.5).polarization == 1.0
    areas = {m: 0.0 for m in QUARTET_M}
    areas[-1.5] = 2.0
    assert polarization_from_areas(areas, m_max=1.5).polarization == -1.0


def test_polarization_direct_evaluation():
    # oracle: sum(m*A) = -1.5 - 1.5 + 1.9 + 2.4 = 1.3, denom = 1.5 * 9.4 = 14.1
    areas = dict(zip(QUARTET_M, (1.0, 3.0, 3.8, 1.6)))
    report = polarization_from_areas(areas, m_max=1.5)
    assert report.polarization == pytest.approx(1.3 / 14.1, abs=1e-12)
    scaled = {m: 77.3 * a for m, a in areas.items()}
    assert polarization_from_areas(scaled, 1.5).polarization == pytest.approx(
        report.polarization, abs=1e-12
    )


@given(
    areas=st.lists(st.floats(0.0, 1e6, allow_subnormal=False), min_size=4, max_size=4),
    k=st.floats(1e-6, 1e6),
)
@example(areas=[0.0, 0.0, 0.0, 5e-324], k=0.5)
def test_polarization_bounds_and_scale_invariance(areas, k):
    if sum(areas) == 0.0:
        return
    base = polarization_from_areas(dict(zip(QUARTET_M, areas)), 1.5).polarization
    assert -1.0 <= base <= 1.0
    scaled_areas = [k * a for a in areas]
    if not any(scaled_areas):
        # every scaled area underflowed to zero: no polarization to compare
        with pytest.raises(ValueError, match="all zero"):
            polarization_from_areas(dict(zip(QUARTET_M, scaled_areas)), 1.5)
        return
    # a subnormal product keeps too few bits for the 1e-12 comparison
    assume(all(a == 0.0 or a >= sys.float_info.min for a in scaled_areas))
    scaled = polarization_from_areas(dict(zip(QUARTET_M, scaled_areas)), 1.5).polarization
    assert abs(scaled - base) <= 1e-12


def test_polarization_monotone_in_high_m_weight():
    areas = dict(zip(QUARTET_M, (2.0, 2.0, 2.0, 2.0)))
    previous = polarization_from_areas(areas, 1.5).polarization
    for moved in (0.5, 1.0, 1.5):
        shifted = dict(areas)
        shifted[-1.5] -= moved
        shifted[1.5] += moved
        current = polarization_from_areas(shifted, 1.5).polarization
        assert current > previous
        previous = current


def test_polarization_error_cases():
    with pytest.raises(ValueError):
        polarization_from_areas({m: 0.0 for m in QUARTET_M}, 1.5)
    with pytest.raises(ValueError):
        polarization_from_areas({0.5: -1.0}, 1.5)
    with pytest.raises(ValueError):
        polarization_from_areas({}, 1.5)
    # a key beyond m_max would put P outside [-1, 1]
    with pytest.raises(ValueError, match="m_tot = -7.5 lies outside"):
        polarization_from_areas({0.5: 1.0, -7.5: 1.0}, 1.5)


def test_fit_area_chain_recovers_constructed_polarization():
    target = 0.16
    pops = {3: Populations.with_polarization(enumerate_ladder(3), target)}
    model = SpectrumModel(
        f_center=2308.0,
        contrast=0.11,
        linewidth=51.0,
        a14=43.0,
        a15=-64.0,
        p15=1.0,
        populations=pops,
    )
    grid = default_grid(2308.0)
    clean = mixture_spectrum(model, grid).values
    noisy = clean + np.random.default_rng(99).normal(0.0, 0.002, clean.size)
    res = fit_free_lorentzians(MeasuredSpectrum(grid, noisy), 4)
    report = polarization_from_quartet_fit(res)
    assert report.polarization == pytest.approx(target, abs=0.02)
    assert set(quartet_areas(res)) == set(QUARTET_M)


def test_polarization_sigma_covers_the_truth():
    # 48 quartets drawn like the fit_batch op_c corpus (801-point grid, noise
    # sigma 0.002, contrast 0.05-0.12, linewidth 45-55 MHz, P 0.1-0.3); a
    # calibrated sigma(P) gives an RMS z near 1
    rng = np.random.default_rng(4111)
    z = []
    for _ in range(48):
        target = rng.uniform(0.1, 0.3)
        model = SpectrumModel(
            f_center=rng.uniform(2280.0, 2340.0),
            contrast=rng.uniform(0.05, 0.12),
            linewidth=rng.uniform(45.0, 55.0),
            a14=43.0,
            a15=-rng.uniform(62.0, 66.0),
            p15=1.0,
            populations={3: Populations.with_polarization(enumerate_ladder(3), target)},
        )
        grid = default_grid(model.f_center)
        noisy = mixture_spectrum(model, grid).values + rng.normal(0.0, 0.002, grid.size)
        res = fit_free_lorentzians(MeasuredSpectrum(grid, noisy), 4)
        report = polarization_from_quartet_fit(res)
        z.append((report.polarization - target) / report.sigma)
    assert 0.8 <= math.sqrt(np.mean(np.square(z))) <= 1.25


def quartet_result(covariance):
    names = ["f_first", "spacing"] + [f"depth_{k}" for k in range(1, 5)]
    names += [f"width_{k}" for k in range(1, 5)]
    p = (2212.0, 64.0, 0.01, 0.03, 0.04, 0.02, 47.0, 52.0, 49.0, 55.0)
    return FitResult(
        names=tuple(names),
        values=dict(zip(names, p)),
        sigmas={n: 0.0 for n in names},
        covariance=covariance,
        residual_norm=0.0,
        iterations=1,
        converged=True,
    )


@pytest.mark.parametrize("i", range(2, 10))
def test_polarization_sigma_is_the_delta_method(i):
    # one nonzero variance: sigma(P) = |dP/dp_i| sigma_i, against central
    # differences of the area chain, on either branch's m_tot order
    covariance = np.zeros((10, 10))
    covariance[i, i] = 1e-6
    result = quartet_result(covariance)
    h = 1e-7 * result.values[result.names[i]]
    for branch in (-1, 1):

        def chain(step):
            values = dict(result.values)
            values[result.names[i]] += step
            areas = quartet_areas(replace(result, values=values), branch)
            return polarization_from_areas(areas, 1.5)

        slope = (chain(h).polarization - chain(-h).polarization) / (2.0 * h)
        sigma = polarization_from_quartet_fit(result, branch).sigma
        assert sigma == pytest.approx(abs(slope) * 1e-3, rel=1e-6)


def test_upper_branch_quartet_reverses_the_m_tot_order():
    result = quartet_result(np.eye(10))
    lower, upper = quartet_areas(result, -1), quartet_areas(result, 1)
    # the same lines in the same order, keyed by opposite m_tot
    assert list(lower) == list(QUARTET_M) and list(upper) == list(QUARTET_M[::-1])
    assert list(lower.values()) == list(upper.values())
    assert polarization_from_quartet_fit(result, 1).polarization == -(
        polarization_from_quartet_fit(result, -1).polarization
    )
    with pytest.raises(ValueError, match="branch must be"):
        quartet_areas(result, 0)


def test_polarization_sigma_is_none_without_a_covariance():
    assert polarization_from_areas(dict(zip(QUARTET_M, (1.0, 2.0, 3.0, 4.0))), 1.5).sigma is None
    covariance = np.eye(10)
    covariance[4, 7] = covariance[7, 4] = math.nan
    assert polarization_from_quartet_fit(quartet_result(covariance)).sigma is None
    # a non-finite entry outside the depth and width block does not matter
    covariance = np.eye(10)
    covariance[0, 0] = math.inf
    assert math.isfinite(polarization_from_quartet_fit(quartet_result(covariance)).sigma)


@pytest.mark.parametrize("n_lines", [0, 3, 5])
def test_quartet_chain_rejects_other_line_counts(n_lines):
    # a fit with other than four lines must not be read as a quartet
    names = ["f_first", "spacing"] + [f"depth_{k + 1}" for k in range(n_lines)]
    names += [f"width_{k + 1}" for k in range(n_lines)]
    values = {"f_first": 2212.0, "spacing": 64.0, **{n: 0.05 for n in names[2:]}}
    res = FitResult(
        names=tuple(names),
        values=values,
        sigmas={n: 0.0 for n in names},
        covariance=np.zeros((len(names), len(names))),
        residual_norm=0.0,
        iterations=1,
        converged=True,
    )
    with pytest.raises(ValueError, match=f"not {n_lines} lines"):
        quartet_areas(res)
    with pytest.raises(ValueError, match=f"not {n_lines} lines"):
        polarization_from_quartet_fit(res)


# --- field estimates --------------------------------------------------------------

def test_field_from_center_values():
    assert field_from_center(3466.0, 2312.0) == pytest.approx(41.2142857, abs=1e-6)
    assert field_from_center(2130.0, 0.0) == pytest.approx(76.0714286, abs=1e-6)
    assert field_from_center(3466.0, 3466.0) == 0.0
    assert field_from_center(3466.0, 4620.0, branch=1) == pytest.approx(41.2142857, abs=1e-6)


def test_field_from_center_wrong_branch():
    with pytest.raises(ValueError, match="f_center above D"):
        field_from_center(3466.0, 3500.0)
    with pytest.raises(ValueError, match="f_center below D"):
        field_from_center(3466.0, 2312.0, branch=1)


@given(d=st.floats(2000.0, 4000.0), b=st.floats(0.0, 120.0), branch=st.sampled_from([-1, 1]))
def test_field_round_trip(d, b, branch):
    f_center = d + branch * 28.0 * b
    assert field_from_center(d, f_center, branch) == pytest.approx(b, abs=1e-9)


# --- reduced mass and Raman -------------------------------------------------------

def independent_mu(b10, n15):
    m_b = b10 * MASS_B10 + (1.0 - b10) * MASS_B11
    m_n = n15 * MASS_N15 + (1.0 - n15) * MASS_N14
    return m_b * m_n / (m_b + m_n)


def test_reduced_mass_natural_boron_values():
    assert reduced_mass(0.199, 0.0) == pytest.approx(6.1009, abs=2e-4)
    assert reduced_mass(0.199, 1.0) == pytest.approx(6.2828, abs=2e-4)
    for n15 in (0.0, 0.37, 0.6, 1.0):
        assert reduced_mass(0.199, n15) == pytest.approx(independent_mu(0.199, n15), rel=1e-12)


def test_reduced_mass_bounds_for_valid_fractions():
    lo = independent_mu(1.0, 0.0)   # 10B-14N
    hi = independent_mu(0.0, 1.0)   # 11B-15N
    assert lo == pytest.approx(5.83, abs=0.01)
    assert hi == pytest.approx(6.35, abs=0.01)
    for b10 in (0.0, 0.2, 1.0):
        for n15 in (0.0, 0.5, 1.0):
            assert lo <= reduced_mass(b10, n15) <= hi


def test_reduced_mass_heavy_partner_limit():
    # as the partner mass grows, mu approaches the boron mass
    m_b = 0.199 * MASS_B10 + 0.801 * MASS_B11
    heavy = m_b * 1e9 / (m_b + 1e9)
    assert heavy == pytest.approx(m_b, rel=1e-6)


@given(
    b10=st.floats(0.0, 1.0),
    n15_lo=st.floats(0.0, 0.999),
    bump=st.floats(1e-6, 0.5),
)
def test_reduced_mass_monotone_in_heavy_fractions(b10, n15_lo, bump):
    n15_hi = min(n15_lo + bump, 1.0)
    assert reduced_mass(b10, n15_hi) > reduced_mass(b10, n15_lo)
    # heavier boron means lower 10B fraction
    if b10 >= 1e-6:
        assert reduced_mass(b10 - 1e-6, n15_lo) > reduced_mass(b10, n15_lo)


def test_raman_shift_monotone_decreasing():
    mus = np.linspace(5.8, 6.4, 50)
    shifts = np.array([raman_shift(m) for m in mus])
    assert np.all(np.diff(shifts) < 0)


def test_raman_predictions_against_measured_lines():
    # measured shifts for p15 = 0, 0.6, 1.0; agreement within the quoted
    # ~2 cm^-1 envelope (the 60% point sits at 2.19, which rounds to that)
    for n15, measured, envelope in [(0.0, 1366.3, 2.0), (0.6, 1354.8, 2.2), (1.0, 1346.6, 2.0)]:
        point = raman_point(n15)
        assert abs(point.shift_cm1 - measured) <= envelope


def test_raman_point_frozen_values():
    # oracle: direct evaluation of the sqrt-mass line with independent mu
    for n15, expected in [(0.0, 1364.613), (0.6, 1352.615), (1.0, 1344.981)]:
        direct = -537.0 * math.sqrt(independent_mu(0.199, n15)) + 2691.0
        assert direct == pytest.approx(expected, abs=5e-3)
        assert raman_point(n15).shift_cm1 == pytest.approx(direct, rel=1e-12)


def test_raman_shift_rejects_bad_mass():
    with pytest.raises(ValueError):
        raman_shift(0.0)
    with pytest.raises(ValueError):
        reduced_mass(1.2, 0.0)
