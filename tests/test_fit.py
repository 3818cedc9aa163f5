import dataclasses
import json

import numpy as np
import pytest

from vbodmr.fit import (
    FreeLorentzianModel,
    MeasuredSpectrum,
    fit_free_lorentzians,
    fit_physical,
    fit_pl_saturation,
    free_model_from_result,
    initial_physical_guess,
    lm_minimize,
    _as_magnitudes,
    _forward_jacobian,
    _physical_problem,
)
from vbodmr.spectrum import (
    Populations,
    SpectrumModel,
    default_grid,
    enumerate_ladder,
    lorentzian,
    mixture_spectrum,
)


# --- measured spectrum type ----------------------------------------------------

def test_measured_spectrum_sorts_and_validates():
    f = np.array([3.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    r = np.arange(8.0)
    meas = MeasuredSpectrum(f, r)
    assert np.array_equal(meas.frequencies, np.sort(f))
    assert meas.ratios[0] == 1.0  # value followed its frequency
    with pytest.raises(ValueError):
        MeasuredSpectrum(np.arange(7.0), np.arange(7.0))  # too few
    with pytest.raises(ValueError):
        MeasuredSpectrum(np.array([1.0, 1.0, 2, 3, 4, 5, 6, 7]), np.arange(8.0))


# --- core minimizer ------------------------------------------------------------

def test_lm_linear_model_exact_recovery():
    x = np.linspace(0.0, 10.0, 50)
    y = 3.7 * x

    res = lm_minimize(lambda p: p[0] * x - y, [1.0], names=("a",))
    assert res.converged
    assert res.values["a"] == pytest.approx(3.7, abs=1e-10)
    assert res.residual_norm < 1e-10


def test_lm_single_lorentzian_round_trip():
    truth = (2310.0, 0.08, 45.0)
    grid = default_grid(2310.0)
    y = 1.0 - truth[1] * lorentzian(grid, truth[0], truth[2])

    def residual(p):
        return (1.0 - p[1] * lorentzian(grid, p[0], p[2])) - y

    res = lm_minimize(residual, [2300.0, 0.05, 30.0], names=("f0", "c", "w"))
    assert res.converged
    for name, true_val in zip(("f0", "c", "w"), truth):
        assert res.values[name] == pytest.approx(true_val, rel=1e-8)


def test_lm_quadratic_bowl_fast_convergence():
    target = np.array([1.0, -2.0, 0.5])
    res = lm_minimize(lambda p: p - target, [10.0, 10.0, 10.0])
    assert res.converged
    assert res.iterations < 20
    assert res.values["p0"] == pytest.approx(1.0, abs=1e-10)


def test_lm_respects_bounds():
    res = lm_minimize(lambda p: p - np.array([-5.0]), [1.0], bounds=([0.0], [np.inf]))
    assert res.values["p0"] == 0.0
    with pytest.raises(ValueError):
        lm_minimize(lambda p: p, [-1.0], bounds=([0.0], [1.0]))


def test_lm_converges_to_constrained_optimum_on_a_bound():
    # the unconstrained least-squares optimum has p0 < 0; coupled columns made
    # the unprojected step crawl along p0 = 0 to the iteration cap
    a = np.array([[1.0, 1.0], [1.0, 1.2], [1.0, 0.9]])
    b = np.array([1.0, 2.0, 0.0])
    bounds = ([0.0, -np.inf], [np.inf, np.inf])
    res = lm_minimize(lambda p: a @ p - b, [1.0, 0.0], bounds=bounds)
    assert res.converged
    assert res.iterations < 50
    assert res.values["p0"] == 0.0
    # minimize |a[:, 1] p1 - b|^2 alone: p1 = a1.b / a1.a1
    assert res.values["p1"] == pytest.approx(3.4 / 3.25, abs=1e-8)
    assert "held at bound: p0 = 0 (gradient points outward)" in res.diagnostics


def test_lm_never_probes_outside_the_box():
    def residual(p):
        if not (2.0 <= p[0] <= 2.0 and 0.0 <= p[2] <= 1e-9):
            raise ValueError(f"residual evaluated outside the box at {p}")
        return np.array([p[1] - 1.0, p[0] * p[1] - 2.0, p[1] + 0.5, p[2] - 1.0])

    # p0 sits in a zero-width box, p2 in one narrower than the FD step
    res = lm_minimize(
        residual, [2.0, 0.0, 0.0], bounds=([2.0, -np.inf, 0.0], [2.0, np.inf, 1e-9])
    )
    assert res.converged
    assert res.values["p0"] == 2.0
    assert res.values["p1"] == pytest.approx(0.75, abs=1e-8)
    assert res.values["p2"] == 1e-9
    p = np.array([2.0, 0.5, 0.0])
    lower, upper = np.array([2.0, -np.inf, 0.0]), np.array([2.0, np.inf, 1e-9])
    jac = _forward_jacobian(residual, p, residual(p), lower, upper)
    assert np.all(jac[:, 0] == 0.0)
    assert jac[:, 2] == pytest.approx([0.0, 0.0, 0.0, 1.0])


def test_lm_iteration_cap_reports_nonconvergence():
    x = np.linspace(0.0, 1.0, 20)

    def residual(p):
        return np.exp(p[0] * x) - 2.0

    res = lm_minimize(residual, [0.0], max_iter=2)
    assert not res.converged
    assert res.iterations == 2


def test_lm_degenerate_parameter_diagnostic():
    x = np.linspace(0.0, 1.0, 30)
    y = 2.0 * x

    # p[0] and p[1] enter only through their sum: J^T J is singular
    res = lm_minimize(lambda p: (p[0] + p[1]) * x - y, [0.5, 0.5])
    assert any("degenerate" in d for d in res.diagnostics)


def test_forward_jacobian_matches_analytic_lorentzian_derivatives():
    rng = np.random.default_rng(17)
    grid = np.linspace(-150.0, 150.0, 301)
    for _ in range(5):
        centers = rng.uniform(-80, 80, 3)
        depths = rng.uniform(0.02, 0.2, 3)
        widths = rng.uniform(20, 60, 3)

        def residual(p):
            out = np.ones_like(grid)
            for k in range(3):
                out -= p[3 + k] * lorentzian(grid, p[k], p[6 + k])
            return out

        p = np.concatenate([centers, depths, widths])
        jac = _forward_jacobian(
            residual, p, residual(p), np.full(9, -np.inf), np.full(9, np.inf)
        )
        analytic = np.empty_like(jac)
        for k in range(3):
            u = grid - p[k]
            g = (p[6 + k] / 2.0) ** 2
            lor = g / (u * u + g)
            # d/df0 = depth * 2 g u / (u^2+g)^2 enters with the minus sign of the dip
            analytic[:, k] = -p[3 + k] * (2.0 * g * u) / (u * u + g) ** 2
            analytic[:, 3 + k] = -lor
            dg = p[6 + k] / 2.0
            analytic[:, 6 + k] = -p[3 + k] * (u * u / (u * u + g) ** 2) * dg
        scale = np.abs(analytic).max()
        assert np.abs(jac - analytic).max() <= 1e-5 * scale


# --- physical model fits --------------------------------------------------------

def synthetic(params, seed=None, sigma=0.002):
    truth = SpectrumModel(**params)
    grid = default_grid(truth.f_center)
    values = mixture_spectrum(truth, grid).values
    if seed is not None:
        values = values + np.random.default_rng(seed).normal(0.0, sigma, values.size)
    return truth, MeasuredSpectrum(grid, values)


def test_fit_hb14n_noisy_recovery():
    truth, meas = synthetic(
        dict(f_center=2312.0, contrast=0.056, linewidth=47.0, a14=43.0, a15=64.0, p15=0.0),
        seed=101,
    )
    res = fit_physical(meas, p15_mode=("fixed", 0.0))
    assert res.converged
    assert res.values["a14"] == pytest.approx(43.0, abs=2.0)
    assert res.values["linewidth"] == pytest.approx(47.0, abs=3.0)
    assert res.sigmas["a14"] > 0
    assert res.covariance[res.names.index("a14"), res.names.index("a14")] == pytest.approx(
        res.sigmas["a14"] ** 2
    )


def test_fit_hb15n_noisy_recovery():
    truth, meas = synthetic(
        dict(f_center=2308.0, contrast=0.11, linewidth=51.0, a14=43.0, a15=64.0, p15=1.0),
        seed=102,
    )
    res = fit_physical(meas, p15_mode=("fixed", 1.0))
    assert res.converged
    assert res.values["a15"] == pytest.approx(64.0, abs=2.0)
    assert res.values["linewidth"] == pytest.approx(51.0, abs=3.0)


def test_fit_recovers_p15_with_frozen_couplings():
    truth, meas = synthetic(
        dict(f_center=2310.0, contrast=0.08, linewidth=45.0, a14=43.0, a15=64.0, p15=0.6)
    )
    init = SpectrumModel(
        f_center=2305.0, contrast=0.05, linewidth=40.0, a14=43.0, a15=64.0, p15=0.4
    )
    res = fit_physical(meas, init=init, p15_mode="free", freeze=("a14", "a15"))
    assert res.converged
    assert res.values["p15"] == pytest.approx(0.600, abs=0.01)


def test_fit_p15_free_on_pure_sample_reports_degeneracy():
    # with no 15N content the a15 direction carries no signal
    truth, meas = synthetic(
        dict(f_center=2312.0, contrast=0.056, linewidth=47.0, a14=43.0, a15=64.0, p15=0.0)
    )
    init = SpectrumModel(
        f_center=2312.0, contrast=0.056, linewidth=47.0, a14=43.0, a15=64.0, p15=0.0
    )
    res = fit_physical(meas, init=init, p15_mode="free")
    assert any("degenerate" in d for d in res.diagnostics)


def test_fit_p15_free_converges_when_held_at_zero():
    # a noise draw whose free-p15 fit runs into p15 = 0; there the a15 column
    # vanishes, and an unprojected step crawled along the bound to the cap
    truth, meas = synthetic(
        dict(f_center=2310.0, contrast=0.08, linewidth=50.0, a14=44.0, a15=64.0, p15=0.6),
        seed=7,
    )
    res = fit_physical(meas, p15_mode="free")
    assert res.converged
    assert res.iterations <= 50
    assert res.values["p15"] == 0.0
    assert any(d.startswith("held at bound: p15 = 0") for d in res.diagnostics)


BASE = ("f_center", "contrast", "linewidth")


# the ids are the names these cases have always run under
PHYSICAL_JACOBIAN_CASES = {
    "model0-active0-None-False": (dict(p15=0.0), BASE + ("a14",), False),
    "model1-active1-None-False": (dict(p15=0.3), BASE + ("a14", "a15"), False),
    "model2-active2-None-True": (dict(p15=0.6), BASE + ("a14", "a15"), True),
    "model3-active3-None-False": (dict(p15=1.0, branch=1), BASE + ("a15",), False),
    "model4-active4-None-False": (dict(p15=0.45), BASE + ("a14", "a15", "p15"), False),
    "model5-active5-None-False": (dict(p15=0.0), BASE + ("a14", "a15", "p15"), False),
    "model6-active6-None-True": (dict(p15=1.0), BASE + ("a14", "a15", "p15"), True),
    "model11-active11-None-False": (
        dict(
            p15=0.6,
            populations={
                n: Populations.with_polarization(enumerate_ladder(n), 0.15) for n in (1, 2, 3)
            },
        ),
        BASE + ("a14", "a15", "p15"),
        False,
    ),
    "model12-active12-None-False": (dict(p15=0.6, a14=-44.0), BASE + ("a14", "a15"), False),
    "model13-active13-None-False": (
        dict(p15=0.6, a15=0.4, branch=1), BASE + ("a14", "a15", "p15"), False
    ),
    "model14-active14-None-False": (dict(p15=0.6), ("contrast", "a15"), False),
}


@pytest.mark.parametrize(
    "model, active, sigmas",
    PHYSICAL_JACOBIAN_CASES.values(),
    ids=PHYSICAL_JACOBIAN_CASES.keys(),
)
def test_physical_jacobian_matches_forward_differences(model, active, sigmas):
    truth = SpectrumModel(
        **dict(dict(f_center=2310.0, contrast=0.09, linewidth=48.0, a14=44.0, a15=64.0), **model)
    )
    grid = default_grid(2312.0)
    rng = np.random.default_rng(5)
    y = mixture_spectrum(dataclasses.replace(truth, f_center=2312.0), grid).values
    meas = MeasuredSpectrum(grid, y, rng.uniform(0.001, 0.004, grid.size) if sigmas else None)
    residual, jacobian = _physical_problem(meas, truth, active)
    p = np.array([getattr(truth, name) for name in active])
    lower = np.array([0.0 if name == "p15" else -np.inf for name in active])
    upper = np.array([1.0 if name == "p15" else np.inf for name in active])
    fd = _forward_jacobian(residual, p, residual(p), lower, upper)
    jac = jacobian(p)
    assert jac.shape == fd.shape
    for i, name in enumerate(active):
        scale = np.abs(fd[:, i]).max()
        assert np.abs(jac[:, i] - fd[:, i]).max() <= 5e-4 * scale, name


def test_physical_fit_is_the_same_from_mirrored_couplings():
    # the couplings are fitted signed and reported as magnitudes: a fit run
    # from (-a14, -a15) reports what the fit from (+a14, +a15) reports, with
    # the covariance of the magnitudes
    truth, meas = synthetic(
        dict(f_center=2310.0, contrast=0.08, linewidth=50.0, a14=44.0, a15=64.0, p15=0.6),
        seed=11,
    )
    active = list(BASE + ("a14", "a15"))
    init = initial_physical_guess(meas, 0.6)
    mirrored = dataclasses.replace(init, a14=-init.a14, a15=-init.a15)
    residual, jacobian = _physical_problem(meas, mirrored, active)
    p0 = [getattr(mirrored, name) for name in active]
    signed = lm_minimize(residual, p0, names=active, jacobian=jacobian)
    flipped = [name for name in ("a14", "a15") if signed.values[name] < 0.0]
    assert flipped  # a coupling may cross zero on the way, both need not
    neg = _as_magnitudes(signed)
    pos = fit_physical(meas, init=init, p15_mode=("fixed", 0.6))
    assert neg.names == pos.names
    for name in active:
        assert neg.values[name] == pytest.approx(pos.values[name], rel=1e-6)
        assert neg.sigmas[name] == pytest.approx(pos.sigmas[name], rel=1e-6)
    assert np.allclose(neg.covariance, pos.covariance, rtol=1e-6, atol=0.0)
    for name in flipped:
        i = active.index(name)
        assert neg.covariance[i, 0] == -signed.covariance[i, 0] != 0.0
        assert neg.covariance[i, i] == signed.covariance[i, i]


@pytest.mark.parametrize("p15, name, species", [(0.0, "a15", "15N"), (1.0, "a14", "14N")])
def test_free_p15_on_a_pure_sample_reports_the_absent_coupling_undetermined(p15, name, species):
    truth, meas = synthetic(
        dict(f_center=2310.0, contrast=0.1, linewidth=50.0, a14=44.0, a15=64.0, p15=p15),
        seed=2,
    )
    res = fit_physical(meas, p15_mode="free")
    assert res.converged
    assert res.values["p15"] == p15
    assert res.sigmas[name] == np.inf
    i = res.names.index(name)
    assert res.covariance[i, i] == np.inf
    assert f"{name} undetermined: no {species} lines at p15 = {p15:g}" in res.diagnostics
    other = "a14" if name == "a15" else "a15"
    assert np.isfinite(res.sigmas[other]) and res.sigmas[other] > 0.0
    report = res.to_json_dict()
    assert report["params"][name]["sigma"] is None
    json.dumps(report, allow_nan=False)


def test_physical_fit_recovers_from_coupling_starts_near_zero():
    # off-default coupling starts on one mixed spectrum; an exact Jacobian
    # carries some of them onto the symmetry plane a = 0 with a too-wide
    # line, and the restart from the default couplings brings them back
    rng = np.random.default_rng(107)
    truth = SpectrumModel(
        f_center=rng.uniform(2280.0, 2340.0),
        contrast=rng.uniform(0.05, 0.12),
        linewidth=rng.uniform(45.0, 55.0),
        a14=rng.uniform(42.0, 46.0),
        a15=rng.uniform(62.0, 66.0),
        p15=0.6,
    )
    grid = default_grid(truth.f_center)
    meas = MeasuredSpectrum(
        grid, mixture_spectrum(truth, grid).values + rng.normal(0.0, 0.002, grid.size)
    )
    guess = initial_physical_guess(meas, 0.6)
    for a14 in (0.5, 5.0, 15.0, 30.0, 44.0, 60.0):
        for a15 in (5.0, 30.0, 64.0, 90.0):
            init = dataclasses.replace(guess, a14=a14, a15=a15)
            res = fit_physical(meas, init=init, p15_mode=("fixed", 0.6))
            assert res.residual_norm <= 1.2 * 0.002, (a14, a15)


def test_noiseless_round_trip_mixture():
    truth, meas = synthetic(
        dict(f_center=2310.0, contrast=0.09, linewidth=44.0, a14=41.0, a15=62.0, p15=0.6)
    )
    init = SpectrumModel(
        f_center=2302.0, contrast=0.06, linewidth=52.0, a14=45.0, a15=58.0, p15=0.6
    )
    res = fit_physical(meas, init=init, p15_mode=("fixed", 0.6))
    for name, value in [
        ("f_center", 2310.0),
        ("contrast", 0.09),
        ("linewidth", 44.0),
        ("a14", 41.0),
        ("a15", 62.0),
    ]:
        assert abs(res.values[name] - value) / value < 1e-6


def test_noise_robustness_one_sigma_coverage():
    # loose coverage sanity: nonlinearity keeps this off the exact 68%
    truth = SpectrumModel(
        f_center=2308.0, contrast=0.11, linewidth=51.0, a14=43.0, a15=64.0, p15=1.0
    )
    grid = default_grid(truth.f_center)
    clean = mixture_spectrum(truth, grid).values
    hits = 0
    for trial in range(100):
        rng = np.random.default_rng(9000 + trial)
        meas = MeasuredSpectrum(grid, clean + rng.normal(0.0, 0.002, clean.size))
        res = fit_physical(meas, p15_mode=("fixed", 1.0))
        if abs(res.values["a15"] - 64.0) <= res.sigmas["a15"]:
            hits += 1
    assert hits >= 60


def test_fit_honors_per_sample_sigma():
    truth, meas = synthetic(
        dict(f_center=2308.0, contrast=0.11, linewidth=51.0, a14=43.0, a15=64.0, p15=1.0),
        seed=77,
    )
    weighted = MeasuredSpectrum(
        meas.frequencies, meas.ratios, np.full(meas.n_samples, 0.002)
    )
    res_w = fit_physical(weighted, p15_mode=("fixed", 1.0))
    res_u = fit_physical(meas, p15_mode=("fixed", 1.0))
    # uniform sigmas rescale the cost only; the optimum is unchanged
    assert res_w.values["a15"] == pytest.approx(res_u.values["a15"], abs=1e-6)
    assert res_w.sigmas["a15"] == pytest.approx(res_u.sigmas["a15"], rel=0.05)


def test_initial_guess_is_reasonable():
    truth, meas = synthetic(
        dict(f_center=2308.0, contrast=0.11, linewidth=51.0, a14=43.0, a15=64.0, p15=1.0),
        seed=55,
    )
    init = initial_physical_guess(meas, 1.0)
    assert init.f_center == pytest.approx(2308.0, abs=10.0)
    assert 0.0 < init.contrast < 0.2
    assert init.linewidth > 0


# --- free equally spaced Lorentzians ---------------------------------------------

def quartet_signal(depths, widths, f_first=2212.0, spacing=64.0, grid=None):
    grid = default_grid(2308.0) if grid is None else grid
    values = np.ones_like(grid)
    for k, (c, w) in enumerate(zip(depths, widths)):
        values -= c * lorentzian(grid, f_first + k * spacing, w)
    return grid, values


def test_free_quartet_depth_ratio_recovery():
    depths = 0.03 * np.array([1.0, 3.0, 3.0, 1.0])
    grid, values = quartet_signal(depths, [40.0] * 4)
    rng = np.random.default_rng(5)
    meas = MeasuredSpectrum(grid, values + rng.normal(0.0, 0.001, values.size))
    res = fit_free_lorentzians(meas, 4)
    model = free_model_from_result(res, 4)
    ratios = np.array(model.depths) / min(model.depths)
    assert np.allclose(ratios, [1.0, 3.0, 3.0, 1.0], rtol=0.05)
    assert res.values["spacing"] == pytest.approx(64.0, abs=1.0)


def test_free_single_line_equals_single_fit():
    grid, values = quartet_signal([0.05], [30.0], f_first=2300.0)
    meas = MeasuredSpectrum(grid, values)
    res = fit_free_lorentzians(meas, 1)
    assert res.values["f_first"] == pytest.approx(2300.0, abs=1e-6)
    assert res.values["depth_1"] == pytest.approx(0.05, rel=1e-6)
    assert res.values["width_1"] == pytest.approx(30.0, rel=1e-6)


def test_free_fit_canonical_order_from_shuffled_inits():
    depths = 0.02 * np.array([2.0, 1.0, 3.0, 1.5])
    grid, values = quartet_signal(depths, [35.0] * 4)
    meas = MeasuredSpectrum(grid, values)
    inits = [
        FreeLorentzianModel(4, 2200.0, 60.0, (0.02,) * 4, (30.0,) * 4),
        FreeLorentzianModel(4, 2230.0, 55.0, (0.05, 0.01, 0.01, 0.05), (45.0,) * 4),
    ]
    centers = []
    for init in inits:
        res = fit_free_lorentzians(meas, 4, init=init)
        model = free_model_from_result(res, 4)
        assert list(model.centers) == sorted(model.centers)
        centers.append(np.array(model.centers))
    assert np.allclose(centers[0], centers[1], atol=1e-3)


def test_free_fit_needs_as_many_samples_as_parameters():
    grid, values = quartet_signal([0.03] * 4, [40.0] * 4, grid=default_grid(2308.0, points=10))
    meas = MeasuredSpectrum(grid[:9], values[:9])
    with pytest.raises(ValueError, match="6 free Lorentzians have 14 parameters, more than the 9"):
        fit_free_lorentzians(meas, 6)
    with pytest.raises(ValueError, match="4 free Lorentzians have 10 parameters"):
        fit_free_lorentzians(meas, 4)
    # ten samples for ten parameters is enough
    res = fit_free_lorentzians(MeasuredSpectrum(grid, values), 4, n_starts=1)
    assert res.names[-1] == "width_4"


def test_free_model_validation():
    with pytest.raises(ValueError):
        FreeLorentzianModel(2, 0.0, -1.0, (0.1, 0.1), (1.0, 1.0))
    with pytest.raises(ValueError):
        FreeLorentzianModel(2, 0.0, 1.0, (-0.1, 0.1), (1.0, 1.0))
    with pytest.raises(ValueError):
        FreeLorentzianModel(2, 0.0, 1.0, (0.1, 0.1), (0.0, 1.0))


# --- PL saturation ---------------------------------------------------------------

def test_pl_saturation_round_trip():
    i_max, p_sat = 100.0, 2.0
    powers = np.array([0.2, 0.5, 1.0, 2.0, 4.0, 8.0])
    data = [(p, i_max * p / (p + p_sat)) for p in powers]
    res = fit_pl_saturation(data)
    assert res.converged
    assert res.values["i_max"] == pytest.approx(i_max, rel=1e-8)
    assert res.values["p_sat"] == pytest.approx(p_sat, rel=1e-8)
    # model-form limits: I -> 0 at P -> 0 and I = I_max/2 at P = P_sat
    fitted = lambda p: res.values["i_max"] * p / (p + res.values["p_sat"])
    assert fitted(0.0) == 0.0
    assert fitted(res.values["p_sat"]) == pytest.approx(res.values["i_max"] / 2.0)


def test_pl_saturation_degenerate_when_far_from_saturation():
    # powers far below P_sat: the curve is a straight line, only the ratio
    # I_max/P_sat is constrained
    i_max, p_sat = 100.0, 5000.0
    data = [(p, i_max * p / (p + p_sat)) for p in (0.1, 0.2, 0.4, 0.8)]
    res = fit_pl_saturation(data)
    assert res.diagnostics


def test_pl_saturation_input_validation():
    with pytest.raises(ValueError):
        fit_pl_saturation([(1.0, 2.0), (2.0, 3.0)])
    with pytest.raises(ValueError):
        fit_pl_saturation([(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)])
    with pytest.raises(ValueError):
        fit_pl_saturation([(1.0, 1.0), (1.0, 2.0), (2.0, 3.0)])
