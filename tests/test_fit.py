import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from vbodmr import fit, spectrum
from vbodmr.analysis import (
    QUARTET_M_ASSIGNMENT,
    polarization_from_areas,
    polarization_from_quartet_fit,
)
from vbodmr.fit import (
    PHYSICAL_BOUNDS,
    MeasuredSpectrum,
    fit_free_lorentzians,
    fit_physical,
    initial_physical_guess,
    lm_minimize,
    _as_magnitudes,
    _free_problem,
    _projected_problem,
    _line_table,
    _physical_problem,
)
from vbodmr.spectrum import (
    Populations,
    SpectrumModel,
    _line_pass,
    _offsets,
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


def with_entry(values, index, value):
    values = np.array(values, dtype=float)
    values[index] = value
    return values


GRID_10 = np.linspace(2200.0, 2400.0, 10)
ONES_10 = np.ones(10)
SIGMAS_10 = np.full(10, 0.002)


@pytest.mark.parametrize(
    "frequencies, ratios, sigmas, message",
    [
        (GRID_10, ONES_10, np.full(12, 0.002), "one value per sample"),
        (GRID_10, ONES_10, SIGMAS_10[:9], "one value per sample"),
        (GRID_10, ONES_10, with_entry(SIGMAS_10, 3, np.nan), "finite"),
        (GRID_10, ONES_10, with_entry(SIGMAS_10, 3, np.inf), "finite"),
        (with_entry(GRID_10, 9, np.nan), ONES_10, None, "finite"),
        (with_entry(GRID_10, 9, np.inf), ONES_10, None, "finite"),
        (with_entry(GRID_10, 0, -np.inf), ONES_10, None, "finite"),
        (GRID_10, with_entry(ONES_10, 4, np.nan), None, "finite"),
        (GRID_10, with_entry(ONES_10, 4, np.inf), None, "finite"),
    ],
    ids=["long_sigmas", "short_sigmas", "nan_sigma", "inf_sigma", "nan_frequency",
         "inf_frequency", "minus_inf_frequency", "nan_ratio", "inf_ratio"],
)
def test_measured_spectrum_rejects_malformed_input(frequencies, ratios, sigmas, message):
    with pytest.raises(ValueError, match=message):
        MeasuredSpectrum(frequencies, ratios, sigmas)


# --- finite-difference oracle ----------------------------------------------------

def _forward_jacobian(residual_fn, p, r0, lower, upper):
    """Oracle for the closed-form Jacobians: per parameter, the three-point
    forward difference (4 r(p + h/2) - r(p + h) - 3 r0) / h, exact to second
    order in the step h = max(1e-6 |p|, 1e-4); taken inward at an upper
    bound, so no probe leaves the box."""
    jac = np.empty((r0.size, p.size))
    for i in range(p.size):
        h = max(1e-6 * abs(p[i]), 1e-4)
        if p[i] + h > upper[i]:
            h = -h
        half, full = p.copy(), p.copy()
        half[i] += 0.5 * h
        full[i] += h
        jac[:, i] = (4.0 * residual_fn(half) - residual_fn(full) - 3.0 * r0) / h
    return jac


def unbounded(k, names=None):
    """The box (lower, upper) with no bounds and the names, p0..p{k-1} unless
    given, of a k-parameter test problem, as lm_minimize takes them."""
    return ([-np.inf] * k, [np.inf] * k), names or tuple(f"p{i}" for i in range(k))


def paired(residual, jacobian):
    """An lm_minimize problem from a residual function and a Jacobian
    function of the parameters."""
    return lambda p: (residual(p), lambda: jacobian(p))


def assert_jacobian_matches_oracle(problem, p, lower, upper):
    """Each column of the problem's closed-form Jacobian within 1e-6 of the
    oracle column's largest magnitude."""
    residual = lambda q: problem(q)[0]
    fd = _forward_jacobian(residual, p, residual(p), lower, upper)
    jac = problem(p)[1]()
    assert jac.shape == fd.shape
    for i in range(p.size):
        scale = np.abs(fd[:, i]).max()
        assert np.abs(jac[:, i] - fd[:, i]).max() <= 1e-6 * scale, i


def lorentzian_dips_jacobian(grid, p, n):
    """Closed-form Jacobian of 1 - sum_k d_k L(f; c_k, w_k) over
    p = (c_1..n, d_1..n, w_1..n), with L = g / (u^2 + g), u = f - c_k,
    g = (w_k / 2)^2."""
    jac = np.empty((grid.size, 3 * n))
    for k in range(n):
        u = grid - p[k]
        g = (p[2 * n + k] / 2.0) ** 2
        lor = g / (u * u + g)
        # d/df0 = depth * 2 g u / (u^2+g)^2 enters with the minus sign of the dip
        jac[:, k] = -p[n + k] * (2.0 * g * u) / (u * u + g) ** 2
        jac[:, n + k] = -lor
        dg = p[2 * n + k] / 2.0
        jac[:, 2 * n + k] = -p[n + k] * (u * u / (u * u + g) ** 2) * dg
    return jac


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
                out -= p[3 + k] * lorentzian(grid - p[k], p[6 + k])
            return out

        p = np.concatenate([centers, depths, widths])
        jac = _forward_jacobian(
            residual, p, residual(p), np.full(9, -np.inf), np.full(9, np.inf)
        )
        analytic = lorentzian_dips_jacobian(grid, p, 3)
        scale = np.abs(analytic).max()
        assert np.abs(jac - analytic).max() <= 1e-5 * scale


# --- core minimizer ------------------------------------------------------------

def test_lm_linear_model_exact_recovery():
    x = np.linspace(0.0, 10.0, 50)
    y = 3.7 * x

    res = lm_minimize(lambda p: (p[0] * x - y, lambda: x[:, None]), [1.0], *unbounded(1, ("a",)))
    assert res.converged
    assert res.values["a"] == pytest.approx(3.7, abs=1e-10)
    assert res.residual_norm < 1e-10


def test_lm_requires_a_jacobian():
    # a problem returning bare residuals, even two of them, is refused
    for size in (1, 2):
        with pytest.raises(TypeError, match=r"\(residuals, jacobian\) pair"):
            lm_minimize(lambda p: p - 1.0, [0.0] * size, *unbounded(size))


def test_lm_single_lorentzian_round_trip():
    truth = (2310.0, 0.08, 45.0)
    grid = default_grid(2310.0)
    y = 1.0 - truth[1] * lorentzian(grid - truth[0], truth[2])

    def residual(p):
        return (1.0 - p[1] * lorentzian(grid - p[0], p[2])) - y

    res = lm_minimize(
        paired(residual, lambda p: lorentzian_dips_jacobian(grid, p, 1)),
        [2300.0, 0.05, 30.0],
        *unbounded(3, ("f0", "c", "w")),
    )
    assert res.converged
    for name, true_val in zip(("f0", "c", "w"), truth):
        assert res.values[name] == pytest.approx(true_val, rel=1e-8)


def test_lm_quadratic_bowl_fast_convergence():
    target = np.array([1.0, -2.0, 0.5])
    res = lm_minimize(lambda p: (p - target, lambda: np.eye(3)), [10.0, 10.0, 10.0], *unbounded(3))
    assert res.converged
    assert res.iterations < 20
    assert res.values["p0"] == pytest.approx(1.0, abs=1e-10)


def test_lm_respects_bounds():
    identity = lambda p: np.eye(1)
    res = lm_minimize(
        paired(lambda p: p - np.array([-5.0]), identity), [1.0], ([0.0], [np.inf]), ("p0",)
    )
    assert res.values["p0"] == 0.0
    with pytest.raises(ValueError):
        lm_minimize(paired(lambda p: p, identity), [-1.0], ([0.0], [1.0]), ("p0",))


def test_lm_converges_to_constrained_optimum_on_a_bound():
    # the unconstrained least-squares optimum has p0 < 0; coupled columns made
    # the unprojected step crawl along p0 = 0 to the iteration cap
    a = np.array([[1.0, 1.0], [1.0, 1.2], [1.0, 0.9]])
    b = np.array([1.0, 2.0, 0.0])
    bounds = ([0.0, -np.inf], [np.inf, np.inf])
    res = lm_minimize(lambda p: (a @ p - b, lambda: a), [1.0, 0.0], bounds, ("p0", "p1"))
    assert res.converged
    assert res.iterations < 50
    assert res.values["p0"] == 0.0
    # minimize |a[:, 1] p1 - b|^2 alone: p1 = a1.b / a1.a1
    assert res.values["p1"] == pytest.approx(3.4 / 3.25, abs=1e-8)
    assert "held at bound: p0 = 0 (gradient points outward)" in res.diagnostics


class ThunkLog:
    """Wraps a problem; logs the cost of every evaluation and which
    evaluations had their Jacobian thunk called."""

    def __init__(self, problem):
        self.problem = problem
        self.costs, self.thunk_calls = [], []

    def __call__(self, p):
        r, jacobian = self.problem(p)
        evaluation = len(self.costs)
        self.costs.append(float(r @ r))

        def logged():
            self.thunk_calls.append(evaluation)
            return jacobian()

        return r, logged

    def accepted(self):
        """The evaluations the LM accepts: those that lower the cost of the
        current point, which starts at the initial one."""
        steps, current = [], self.costs[0]
        for evaluation, cost in enumerate(self.costs[1:], start=1):
            if cost < current:
                steps.append(evaluation)
                current = cost
        return steps


def test_lm_never_probes_outside_the_box():
    def residual(p):
        if not (2.0 <= p[0] <= 2.0 and 0.0 <= p[2] <= 1e-9):
            raise ValueError(f"residual evaluated outside the box at {p}")
        return np.array([p[1] - 1.0, p[0] * p[1] - 2.0, p[1] + 0.5, p[2] - 1.0])

    def jacobian(p):
        return np.array(
            [[0.0, 1.0, 0.0], [p[1], p[0], 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        )

    # p0 sits in a zero-width box, p2 in one of width 1e-9
    log = ThunkLog(paired(residual, jacobian))
    res = lm_minimize(
        log,
        [2.0, 0.0, 0.0],
        ([2.0, -np.inf, 0.0], [2.0, np.inf, 1e-9]),
        ("p0", "p1", "p2"),
    )
    assert res.converged
    assert res.values["p0"] == 2.0
    assert res.values["p1"] == pytest.approx(0.75, abs=1e-8)
    assert res.values["p2"] == 1e-9
    # one thunk call at the start and one per accepted step, none of a
    # rejected trial
    assert log.thunk_calls == [0] + log.accepted()


def test_lm_iteration_cap_reports_nonconvergence():
    x = np.linspace(0.0, 1.0, 20)

    def residual(p):
        return np.exp(p[0] * x) - 2.0

    res = lm_minimize(
        paired(residual, lambda p: (x * np.exp(p[0] * x))[:, None]),
        [0.0],
        *unbounded(1),
        max_iter=2,
    )
    assert not res.converged
    assert res.iterations == 2


def test_lm_stall_is_not_convergence():
    # a Jacobian of the wrong sign: every damped step climbs, up to the
    # maximum damping
    target = np.array([1.0, -2.0, 0.5])
    log = ThunkLog(lambda p: (p - target, lambda: -np.eye(3)))
    res = lm_minimize(log, [10.0, 10.0, 10.0], *unbounded(3))
    # every trial is rejected: only the start's Jacobian thunk is called
    assert len(log.costs) > 10 and log.thunk_calls == [0] == [0] + log.accepted()
    assert not res.converged
    assert res.iterations == 1
    assert [res.values[n] for n in ("p0", "p1", "p2")] == [10.0, 10.0, 10.0]
    assert "stalled: no step reduced the cost at maximum damping" in res.diagnostics


class StepLog:
    """Wraps a problem whose J^T J is the identity times c at every point;
    from each trial step h = -g / (c (1 + lambda)) it reads back the damping
    lambda the LM used, the full Gauss-Newton step being -g / c."""

    def __init__(self, problem, c):
        self.problem, self.c = problem, c
        self.point, self.gradient = None, None
        self.damping = []  # the lambda of every trial, in order

    def __call__(self, p):
        r, jacobian = self.problem(p)
        if self.point is not None:
            step = p - self.point
            self.damping.append(float(-self.gradient[0] / (self.c * step[0]) - 1.0))

        def logged():
            jac = jacobian()
            self.point, self.gradient = p.copy(), jac.T @ r
            return jac

        return r, logged


def test_lm_gain_ratio_shrinks_damping_tenfold_on_a_linear_problem():
    # the linear model is exact: every step gains as predicted (rho = 1), so
    # each accepted step shrinks lambda by the floor factor 1/10
    a = np.array([[2.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    b = np.array([3.0, -5.0, 1.0])
    log = StepLog(lambda p: (a @ p - b, lambda: a), 4.0)
    res = lm_minimize(log, [0.0, 0.0], *unbounded(2))
    assert res.converged
    assert res.values["p0"] == pytest.approx(1.5) and res.values["p1"] == pytest.approx(-2.5)
    assert len(log.damping) >= 3
    # read back from steps down to ~1e-7, to a few 1e-5
    expected = [1e-3 * 0.1**i for i in range(len(log.damping))]
    assert log.damping == pytest.approx(expected, rel=1e-3)


def wrong_sign():
    """A Jacobian of the wrong sign: every damped step climbs, and the LM
    stays at its start, the origin (so a trial point is its step, exactly)."""
    target = np.array([10.0, -20.0, 5.0])
    return lambda p: (p - target, lambda: -np.eye(3))


def test_lm_rejections_grow_damping_by_doubling_factors():
    # rejected trials multiply lambda by nu = 2, 4, 8, ...: nu doubles each time
    log = StepLog(wrong_sign(), 1.0)
    lm_minimize(log, [0.0, 0.0, 0.0], *unbounded(3))
    growth = np.array(log.damping[1:]) / np.array(log.damping[:-1])
    assert growth == pytest.approx(2.0 ** np.arange(1, len(growth) + 1), rel=1e-6)


def test_lm_stall_comes_after_the_escalation_to_maximum_damping():
    # from lambda = 1e-3, the n-th rejection (n = 0, 1, ...) leaves
    # lambda = 1e-3 * 2^((n + 1)(n + 2) / 2); the trials stop once lambda
    # reaches 1e14, after the start and one trial per lambda below it
    log = ThunkLog(wrong_sign())
    res = lm_minimize(log, [0.0, 0.0, 0.0], *unbounded(3))
    trials = sum(1e-3 * 2.0 ** (n * (n + 1) // 2) < 1e14 for n in range(30))
    assert trials == 11
    assert len(log.costs) == 1 + trials
    assert not res.converged
    assert "stalled: no step reduced the cost at maximum damping" in res.diagnostics


def test_lm_nan_gradient_is_not_convergence():
    # J^T r = (1e-13, NaN) at the start: one entry below LM_GRAD_ATOL, one no
    # number, so the gradient test fails (a max() that drops the NaN would
    # converge here, then raise in the covariance of the NaN J^T J). The
    # NaN trial point reads as the origin and is accepted; every later
    # Jacobian is finite, and the run stalls at that point.
    target = np.array([-1.0, -1.0])

    def problem(p):
        start = p.tolist() == [1.0, 1.0]
        jac = np.array([[0.5e-13, 0.0], [0.0, np.nan]]) if start else np.eye(2)
        return np.nan_to_num(p) - target, lambda: jac

    log = ThunkLog(problem)
    res = lm_minimize(log, [1.0, 1.0], *unbounded(2))
    assert not res.converged and res.iterations == 2
    assert len(log.costs) == 13 and log.thunk_calls == [0, 1]
    assert "stalled: no step reduced the cost at maximum damping" in res.diagnostics


def fixed_and_free_spectra(seed):
    """One fixed-p15 and one free-p15 spectrum of a seeded random model."""
    rng = np.random.default_rng(seed)
    spectra = []
    for p15, mode in (((0.0, 1.0, 0.6)[seed % 3], "fixed"), (0.6, "free")):
        truth = SpectrumModel(
            f_center=rng.uniform(2280.0, 2340.0),
            contrast=rng.uniform(0.05, 0.12),
            linewidth=rng.uniform(45.0, 55.0),
            a14=rng.uniform(42.0, 46.0),
            a15=rng.uniform(62.0, 66.0),
            p15=p15,
        )
        grid = default_grid(truth.f_center)
        y = mixture_spectrum(truth, grid).values + rng.normal(0.0, 0.002, grid.size)
        spectra.append((grid, y, ("fixed", p15) if mode == "fixed" else mode))
    return spectra


@pytest.mark.parametrize("seed", range(10))
def test_physical_fit_path_does_not_swing_on_one_ulp_of_the_data(seed):
    # the damping follows the cost drop, not its last bits: moving every
    # sample up by one ulp leaves the number of LM iterations unchanged
    for grid, y, p15_mode in fixed_and_free_spectra(seed):
        fits = [
            fit_physical(MeasuredSpectrum(grid, data), p15_mode=p15_mode)
            for data in (y, np.nextafter(y, np.inf))
        ]
        assert fits[0].iterations == fits[1].iterations, p15_mode


def test_lm_degenerate_parameter_diagnostic():
    x = np.linspace(0.0, 1.0, 30)
    y = 2.0 * x

    # p[0] and p[1] enter only through their sum: J^T J is singular
    res = lm_minimize(
        lambda p: ((p[0] + p[1]) * x - y, lambda: np.column_stack([x, x])),
        [0.5, 0.5],
        *unbounded(2),
    )
    assert any("degenerate" in d for d in res.diagnostics)


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
    # a pure 14N noise draw whose best free-p15 fit lies on p15 = 0; there
    # the a15 column vanishes, and an unprojected step crawled along the
    # bound to the cap
    truth, meas = synthetic(
        dict(f_center=2310.0, contrast=0.08, linewidth=50.0, a14=44.0, a15=64.0, p15=0.0),
        seed=7,
    )
    res = fit_physical(meas, p15_mode="free")
    assert res.converged
    assert res.iterations <= 50
    assert res.values["p15"] == 0.0
    assert any(d.startswith("held at bound: p15 = 0") for d in res.diagnostics)
    # the bound is the best fit: p15 fixed just inside it, from the bound
    # fit's values, fits worse
    at_bound = dataclasses.replace(truth, **{n: res.values[n] for n in BASE + ("a14",)})
    for p15 in (0.02, 0.05, 0.1):
        inside = fit_physical(
            meas, init=dataclasses.replace(at_bound, p15=p15), p15_mode=("fixed", p15)
        )
        assert inside.residual_norm > res.residual_norm, p15


BASE = ("f_center", "contrast", "linewidth")


@pytest.mark.parametrize(
    "p15_mode, names",
    [
        (("fixed", 0.0), BASE + ("a14",)),
        (("fixed", -0.0), BASE + ("a14",)),
        (("fixed", 1.0), BASE + ("a15",)),
        (("fixed", 0.6), BASE + ("a14", "a15")),
        (["fixed", 0.6], BASE + ("a14", "a15")),
        ("free", BASE + ("a14", "a15", "p15")),
    ],
    ids=["fixed_0", "fixed_minus_0", "fixed_1", "fixed_0.6", "fixed_0.6_list", "free"],
)
def test_physical_fit_names_its_parameters_by_p15_mode(p15_mode, names):
    # a coupling is fitted where its species has lines, p15 when it is free,
    # in the order of PHYSICAL_BOUNDS
    _, meas = synthetic(
        dict(f_center=2310.0, contrast=0.08, linewidth=50.0, a14=44.0, a15=64.0, p15=0.6),
        seed=12,
    )
    assert fit_physical(meas, p15_mode=p15_mode).names == names


@pytest.mark.parametrize(
    "p15_mode",
    [0.6, ("fixed",), ("fixed", 0.6, 1.0), ("free", 0.6), "fixed"],
    ids=["float", "one_item", "three_items", "free_with_value", "fixed_without_value"],
)
def test_physical_fit_refuses_every_other_p15_mode(p15_mode):
    _, meas = synthetic(
        dict(f_center=2310.0, contrast=0.08, linewidth=50.0, a14=44.0, a15=64.0, p15=0.6)
    )
    with pytest.raises(ValueError) as exc:
        fit_physical(meas, p15_mode=p15_mode)
    assert str(exc.value) == "p15_mode must be ('fixed', value) or 'free'"


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
    problem = _physical_problem(meas, truth, active)
    p = np.array([getattr(truth, name) for name in active])
    lower = np.array([0.0 if name == "p15" else -np.inf for name in active])
    upper = np.array([1.0 if name == "p15" else np.inf for name in active])
    assert_jacobian_matches_oracle(problem, p, lower, upper)


def mixed_problem(active, sigmas=False):
    """A physical problem on a 25-line p15 = 0.6 spectrum of 801 samples, and
    the true parameters of its ``active`` ones."""
    truth = SpectrumModel(2310.0, 0.09, 48.0, 44.0, 64.0, 0.6)
    grid = default_grid(2312.0)
    rng = np.random.default_rng(7)
    y = mixture_spectrum(truth, grid).values + rng.normal(0.0, 0.002, grid.size)
    meas = MeasuredSpectrum(grid, y, rng.uniform(0.001, 0.004, grid.size) if sigmas else None)
    return _physical_problem(meas, truth, active), np.array([getattr(truth, n) for n in active])


@pytest.mark.parametrize("sigmas", [False, True])
@pytest.mark.parametrize("active", [BASE + ("a14", "a15"), BASE + ("a14", "a15", "p15")],
                         ids=["fixed_p15", "free_p15"])
def test_physical_jacobian_keeps_its_own_point(monkeypatch, active, sigmas):
    # one offset and one profile buffer: the thunk of the latest point gives
    # that point's Jacobian and leaves the point's offsets and profiles as
    # they were, and the thunk of an earlier point, whose offsets and
    # profiles a later point overwrote, raises
    passes = []

    def recording(*args, **kwargs):
        passes.append(_line_pass(*args, **kwargs))
        return passes[-1]

    monkeypatch.setattr(fit, "_line_pass", recording)
    problem, p = mixed_problem(active, sigmas)
    q = p * 0.999
    if "p15" in active:
        q[-1] = 0.0  # 17 lines in the 25-line buffer, then 25 again
    earlier = []
    for point in (p, p * 1.001, q, p * 1.002):
        res, jacobian = problem(point)
        offsets, profiles = passes[-1][3:]
        shared = offsets.copy(), profiles.copy()
        kept = res.copy()
        for thunk in earlier:
            with pytest.raises(RuntimeError):
                thunk()
        fresh_res, fresh = mixed_problem(active, sigmas)[0](point)
        assert np.array_equal(jacobian(), fresh())
        assert np.array_equal(jacobian(), fresh())  # a thunk may be called again
        assert np.array_equal(res, kept) and np.array_equal(res, fresh_res)
        assert np.array_equal(offsets, shared[0]) and np.array_equal(profiles, shared[1])
        earlier.append(jacobian)


@pytest.mark.parametrize("active", [BASE + ("a14", "a15"), BASE + ("a14", "a15", "p15")],
                         ids=["fixed_p15", "free_p15"])
def test_physical_lm_point_allocates_less_than_one_profile_array(active):
    # a warm LM point, problem(p) and its thunk, writes its (lines x grid)
    # arrays into the problem's buffers: its peak of new memory stays below
    # one such array, (25 x 801) float64 = 160 200 B
    problem, p = mixed_problem(active, sigmas=True)
    for q in (p, p * 1.001):  # both buffers written once
        problem(q)[1]()
    tracemalloc.start()
    try:
        problem(p * 0.999)[1]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(spectrum._line_groups()[0]) == 25
    assert peak < 25 * 801 * 8


def stacked_jacobian(model, lines):
    """The closed-form Jacobian of ``spectrum._model_jacobian`` from its
    coefficient rows stacked afresh, one ``np.stack`` per call."""
    keys, w, dw, u, profiles = lines
    b, c, fwhm = model.branch, model.contrast, model.linewidth
    coef = np.stack([-w, dw * -c, w, b * keys[:, 0] * w, b * keys[:, 1] * w])
    half = 0.5 * fwhm
    g = half * half
    sq = profiles * profiles
    jac = np.empty((6, u.shape[1]))
    jac[0:2] = coef[:2] @ profiles
    jac[5] = ((2.0 * c / fwhm) * w) @ sq
    jac[5] += (2.0 / fwhm) * c * jac[0]
    jac[2:5] = ((-2.0 * c / g) * coef[2:]) @ (sq * u)
    return jac


@pytest.mark.parametrize("branch", [-1, 1])
@pytest.mark.parametrize("p15", [0.0, 1e-300, 1e-12, 0.6, 1.0 - 1e-12, 1.0])
def test_free_p15_point_is_the_forward_model_and_the_stacked_jacobian(monkeypatch, p15, branch):
    # a free-p15 point, bit for bit: its residual is mixture_spectrum - y and
    # its Jacobian the closed form from stacked coefficient rows. The lines
    # of the curve (w != 0) come first, then those only p15 moves (w = 0,
    # dw != 0), in key order: inside the box all 25 are on the curve, unless
    # a population underflows (P3 = p15^3 = 0 at p15 = 1e-300)
    passes = []

    def recording(*args, **kwargs):
        passes.append(_line_pass(*args, **kwargs))
        return passes[-1]

    monkeypatch.setattr(fit, "_line_pass", recording)
    model = SpectrumModel(2310.0, 0.09, 48.0, 44.0, 64.0, p15, branch)
    grid = default_grid(2312.0)
    y = mixture_spectrum(dataclasses.replace(model, p15=0.6), grid).values
    meas = MeasuredSpectrum(grid, y + np.random.default_rng(3).normal(0.0, 0.002, grid.size))
    active = BASE + ("a14", "a15", "p15")
    problem = _physical_problem(meas, model, active)
    for _ in range(2):  # the second point reuses the fit's buffers
        res, jacobian = problem(np.array([getattr(model, name) for name in active]))
        expected = mixture_spectrum(model, grid).values - meas.ratios
        assert res.tobytes() == expected.tobytes()
        full_w, full_dw = (_line_table(None) @ np.array(v) for v in spectrum._binomial(p15))
        order = np.concatenate([np.flatnonzero(full_w), np.flatnonzero((full_w == 0) & (full_dw != 0))])
        keys, w = passes[-1][:2]
        assert keys.tobytes() == spectrum._line_groups()[0][order].tobytes()
        assert (len(keys) == 25 and w.all()) == (p15 in (1e-12, 0.6, 1.0 - 1e-12))
        rows = [spectrum._JACOBIAN_PARAMS.index(name) for name in active]
        assert jacobian().tobytes() == stacked_jacobian(model, passes[-1])[rows].T.tobytes()


@pytest.mark.parametrize("p15_mode", [("fixed", 1.0), "free"], ids=["fixed", "free"])
def test_one_lorentzian_call_per_residual_evaluation(monkeypatch, p15_mode):
    # the rule the benchmark's traced run checks: each residual evaluation
    # is one forward-model pass, and the Jacobian at that point reuses it
    _, meas = synthetic(
        dict(f_center=2308.0, contrast=0.11, linewidth=51.0, a14=43.0, a15=64.0, p15=0.6),
        seed=103,
    )
    # the start's own passes come before the LM and are not counted
    calls = {"lorentzian": 0, "residual": 0}
    in_lm = False

    def counted_lorentzian(*args, **kwargs):
        calls["lorentzian"] += in_lm
        return lorentzian(*args, **kwargs)

    def counted_lm_minimize(problem, *args, **kwargs):
        nonlocal in_lm

        def counted(p):
            calls["residual"] += 1
            return problem(p)

        in_lm = True
        try:
            return lm_minimize(counted, *args, **kwargs)
        finally:
            in_lm = False

    monkeypatch.setattr(spectrum, "lorentzian", counted_lorentzian)
    monkeypatch.setattr(fit, "lorentzian", counted_lorentzian)
    monkeypatch.setattr(fit, "lm_minimize", counted_lm_minimize)
    res = fit_physical(meas, p15_mode=p15_mode)
    assert calls["residual"] >= res.iterations > 1
    assert calls["lorentzian"] == calls["residual"]


@pytest.mark.parametrize("p15_mode", [("fixed", 0.6), "free"], ids=["fixed", "free"])
def test_one_offsets_computation_per_lm_point_and_none_per_jacobian(monkeypatch, p15_mode):
    # each point computes its line offsets once (``spectrum._offsets``), and
    # its Jacobian thunk reads them: the start's own offsets come before the
    # LM and are not counted
    calls = {"offsets": 0, "points": 0, "in_jacobian": 0}
    in_lm = False

    def counted_offsets(*args, **kwargs):
        calls["offsets"] += in_lm
        return _offsets(*args, **kwargs)

    def counted_lm_minimize(problem, *args, **kwargs):
        nonlocal in_lm

        def counted(p):
            calls["points"] += 1
            res, jacobian = problem(p)

            def counted_jacobian():
                before = calls["offsets"]
                jac = jacobian()
                calls["in_jacobian"] += calls["offsets"] - before
                return jac

            return res, counted_jacobian

        in_lm = True
        try:
            return lm_minimize(counted, *args, **kwargs)
        finally:
            in_lm = False

    monkeypatch.setattr(spectrum, "_offsets", counted_offsets)
    monkeypatch.setattr(fit, "_offsets", counted_offsets)
    monkeypatch.setattr(fit, "lm_minimize", counted_lm_minimize)
    _, meas = synthetic(
        dict(f_center=2308.0, contrast=0.11, linewidth=51.0, a14=43.0, a15=64.0, p15=0.6),
        seed=103,
    )
    res = fit_physical(meas, p15_mode=p15_mode)
    assert calls["points"] >= res.iterations > 1
    assert calls["offsets"] == calls["points"] and calls["in_jacobian"] == 0


@pytest.mark.parametrize(
    "p15_mode, a14_start",
    [(("fixed", 0.6), None), ("free", None), (("fixed", 0.6), 0.0)],
    ids=["fixed", "free", "coupling_restart"],
)
def test_line_table_is_built_once_per_fit(monkeypatch, p15_mode, a14_start):
    # the weights W of the merged lines depend on the populations only: one
    # build per residual/Jacobian pair, shared by the restart, none per point
    _, meas = synthetic(
        dict(f_center=2308.0, contrast=0.11, linewidth=51.0, a14=43.0, a15=64.0, p15=0.6),
        seed=103,
    )
    # the start reads the unpolarized table too, before the fit: built first
    init = initial_physical_guess(meas, 0.6)
    if a14_start is not None:
        init = dataclasses.replace(init, a14=a14_start)  # starts on the plane a14 = 0
    calls = {"table": 0, "problem": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)

        return wrapper

    monkeypatch.setattr(fit, "_line_table", counted("table", _line_table))
    monkeypatch.setattr(fit, "_physical_problem", counted("problem", _physical_problem))
    res = fit_physical(meas, init=init, p15_mode=p15_mode)
    assert res.iterations > 1
    assert any(d.startswith("coupling restart") for d in res.diagnostics) == (a14_start == 0.0)
    assert calls == {"table": 1, "problem": 1}


@pytest.mark.parametrize(
    "p15_mode, a14_start",
    [(("fixed", 0.6), None), ("free", None), (("fixed", 0.6), 0.0)],
    ids=["fixed", "free", "coupling_restart"],
)
def test_grid_constants_are_built_once_per_fit_and_never_in_the_lm(
    monkeypatch, p15_mode, a14_start
):
    # [f; 1], the zero samples and the ones column of the offsets' factors
    # depend on the grid only: one build per physical fit, shared by the
    # restart, and none at an LM point or in a Jacobian
    _, meas = synthetic(
        dict(f_center=2308.0, contrast=0.11, linewidth=51.0, a14=43.0, a15=64.0, p15=0.6),
        seed=103,
    )
    init = initial_physical_guess(meas, 0.6)  # the start builds its own, before the fit
    if a14_start is not None:
        init = dataclasses.replace(init, a14=a14_start)
    calls = {"built": 0, "in_lm": 0, "runs": 0}
    in_lm = False

    def counted_constants(*args):
        calls["built"] += 1
        calls["in_lm"] += in_lm
        return spectrum._grid_constants(*args)

    def counted_lm_minimize(problem, *args, **kwargs):
        def flagged(p):
            nonlocal in_lm
            in_lm = True
            try:
                res, jacobian = problem(p)
                return res, lambda: flagged_jacobian(jacobian)
            finally:
                in_lm = False

        def flagged_jacobian(jacobian):
            nonlocal in_lm
            in_lm = True
            try:
                return jacobian()
            finally:
                in_lm = False

        calls["runs"] += 1
        return lm_minimize(flagged, *args, **kwargs)

    monkeypatch.setattr(fit, "_grid_constants", counted_constants)
    monkeypatch.setattr(fit, "lm_minimize", counted_lm_minimize)
    res = fit_physical(meas, init=init, p15_mode=p15_mode)
    assert res.iterations > 1
    restarted = any(d.startswith("coupling restart") for d in res.diagnostics)
    assert restarted == (a14_start == 0.0)
    assert calls == {"built": 1, "in_lm": 0, "runs": 1 + restarted}


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
    p0 = [getattr(mirrored, name) for name in active]
    bounds = tuple(zip(*(PHYSICAL_BOUNDS[name] for name in active)))
    signed = lm_minimize(_physical_problem(meas, mirrored, active), p0, bounds, active)
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
    # noise-free, so the least-squares minimum, a zero residual, lies on the
    # bound. With these resolved lines the last LM step is clipped onto it; a
    # fit that nears the bound from inside stops a rounding error short and
    # reports no diagnostic (at 50 MHz FWHM, p15 = 1 ends at 1 - 8e-14)
    truth, meas = synthetic(
        dict(f_center=2310.0, contrast=0.1, linewidth=10.0, a14=44.0, a15=64.0, p15=p15)
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


@pytest.mark.parametrize("p15", [0.0, 1.0])
def test_free_p15_on_a_noisy_pure_sample_ends_no_higher_than_the_bound(p15):
    # noise lets an admixture of the absent species fit it: on this spectrum
    # at p15 = 1 the free fit ends at p15 = 0.9915 (a14 = 84 MHz, rms
    # 0.0020078), below the fit held at the bound (rms 0.0020098); at p15 = 0
    # it ends on the bound itself
    truth, meas = synthetic(
        dict(f_center=2310.0, contrast=0.1, linewidth=50.0, a14=44.0, a15=64.0, p15=p15),
        seed=2,
    )
    free = fit_physical(meas, p15_mode="free")
    bound = fit_physical(meas, p15_mode=("fixed", p15))
    assert free.converged and bound.converged
    assert free.residual_norm <= bound.residual_norm * (1.0 + 1e-9)
    assert (free.values["p15"] == p15) == (p15 == 0.0)


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


def corpus_like(rng, p15):
    """A noisy 801-point spectrum drawn like the benchmark corpus."""
    params = dict(
        f_center=rng.uniform(2280.0, 2340.0),
        contrast=rng.uniform(0.05, 0.12),
        linewidth=rng.uniform(45.0, 55.0),
        a14=rng.uniform(42.0, 46.0),
        a15=rng.uniform(62.0, 66.0),
        p15=p15,
    )
    return synthetic(params, seed=int(rng.integers(2**31)))


def half_depth_width(f, depth):
    """Extent of the samples deeper than half the deepest one."""
    deep = f[depth > 0.5 * depth.max()]
    return deep[-1] - deep[0]


@pytest.mark.parametrize("p15", [0.0, 1.0, 0.6])
def test_initial_guess_matches_the_data_half_depth_width(p15):
    rng = np.random.default_rng(2900)
    for _ in range(5):
        truth, meas = corpus_like(rng, p15)
        f, y = meas.frequencies, meas.ratios
        init = initial_physical_guess(meas, p15)
        assert (init.a14, init.a15, init.p15, init.populations) == (43.0, 64.0, p15, None)
        # the start model's unit-contrast dip, read back from its curve
        dip = (1.0 - mixture_spectrum(init, f).values) / init.contrast
        step = np.diff(f).min()
        target = half_depth_width(f, np.clip(1.0 - y, 0.0, None))
        assert abs(half_depth_width(f, dip) - target) <= step
        assert init.contrast == pytest.approx(dip @ (1.0 - y) / (dip @ dip), rel=1e-12)
        # closer to the true linewidth than the envelope's own width
        assert abs(init.linewidth - truth.linewidth) < abs(target - truth.linewidth)


def narrow_dip(grid):
    return 1.0 - 0.1 * lorentzian(grid - 2310.0, 4.0)


@pytest.mark.parametrize(
    "grid, values",
    [
        (default_grid(2310.0), np.ones(801)),
        (default_grid(2310.0), with_entry(np.ones(801), 400, 0.9)),
        (default_grid(2310.0), narrow_dip(default_grid(2310.0))),
        (2310.0 + 250.0 * np.linspace(-1.0, 1.0, 301) ** 3, None),
        # a deep sample at 1e308 MHz: no Lorentzian of that width is finite
        (
            np.append(default_grid(2310.0, 101), 1e308),
            np.append(1.0 - 0.6 * lorentzian(default_grid(2310.0, 101) - 2310.0, 40.0), 0.5),
        ),
    ],
    ids=["flat", "one_sample_spike", "narrower_than_the_comb", "non_uniform_grid", "huge_frequency"],
)
def test_initial_guess_of_an_edge_input_is_a_valid_model(grid, values):
    if values is None:
        values = mixture_spectrum(
            SpectrumModel(f_center=2310.0, contrast=0.1, linewidth=50.0, a14=44.0, a15=64.0,
                          p15=0.6), grid,
        ).values
    meas = MeasuredSpectrum(grid, values)
    for p15 in (0.0, 0.6, 1.0):
        with np.errstate(all="ignore"):  # as the CLI runs a verb
            init = initial_physical_guess(meas, p15)
        assert isinstance(init, SpectrumModel)
        assert 1e-3 <= init.contrast <= 0.999
        assert np.isfinite(init.f_center) and np.isfinite(init.linewidth)
        assert init.linewidth >= np.diff(meas.frequencies).min()


def test_pure_fits_take_few_lm_iterations():
    # from the start at the data's own width these fits take a median of 5
    # iterations (4-8); from the envelope's width they took 8 (7-13)
    rng = np.random.default_rng(2901)
    iterations = [
        fit_physical(meas, p15_mode=("fixed", p15)).iterations
        for p15 in (0.0, 1.0) * 10
        for _, meas in [corpus_like(rng, p15)]
    ]
    assert np.median(iterations) <= 7


# --- free equally spaced Lorentzians ---------------------------------------------

def quartet_signal(depths, widths, f_first=2212.0, spacing=64.0, grid=None):
    grid = default_grid(2308.0) if grid is None else grid
    values = np.ones_like(grid)
    for k, (c, w) in enumerate(zip(depths, widths)):
        values -= c * lorentzian(grid - (f_first + k * spacing), w)
    return grid, values


def assert_valid_line_set(res, n_lines):
    """A free-Lorentzian result describes n lines in center order, none of
    negative depth or zero width: spacing > 0, depths >= 0, widths > 0."""
    assert res.values["spacing"] > 0
    assert all(res.values[f"depth_{k}"] >= 0 for k in range(1, n_lines + 1))
    assert all(res.values[f"width_{k}"] > 0 for k in range(1, n_lines + 1))


def test_free_quartet_depth_ratio_recovery():
    depths = 0.03 * np.array([1.0, 3.0, 3.0, 1.0])
    grid, values = quartet_signal(depths, [40.0] * 4)
    rng = np.random.default_rng(5)
    meas = MeasuredSpectrum(grid, values + rng.normal(0.0, 0.001, values.size))
    res = fit_free_lorentzians(meas, 4)
    assert_valid_line_set(res, 4)
    fitted = np.array([res.values[f"depth_{k}"] for k in range(1, 5)])
    ratios = fitted / fitted.min()
    assert np.allclose(ratios, [1.0, 3.0, 3.0, 1.0], rtol=0.05)
    assert res.values["spacing"] == pytest.approx(64.0, abs=1.0)


def test_free_single_line_equals_single_fit():
    grid, values = quartet_signal([0.05], [30.0], f_first=2300.0)
    meas = MeasuredSpectrum(grid, values)
    res = fit_free_lorentzians(meas, 1)
    assert res.values["f_first"] == pytest.approx(2300.0, abs=1e-6)
    assert res.values["depth_1"] == pytest.approx(0.05, rel=1e-6)
    assert res.values["width_1"] == pytest.approx(30.0, rel=1e-6)


def test_free_fit_canonical_order_from_shuffled_inits(monkeypatch):
    depths = 0.02 * np.array([2.0, 1.0, 3.0, 1.5])
    grid, values = quartet_signal(depths, [35.0] * 4)
    meas = MeasuredSpectrum(grid, values)
    centers = []
    for init in [(2200.0, 60.0, 30.0), (2230.0, 55.0, 45.0)]:
        monkeypatch.setattr(fit, "initial_free_guess", lambda meas, n_lines: init)
        res = fit_free_lorentzians(meas, 4)
        assert_valid_line_set(res, 4)
        fitted = res.values["f_first"] + np.arange(4) * res.values["spacing"]
        assert list(fitted) == sorted(fitted)
        centers.append(fitted)
    assert np.allclose(centers[0], centers[1], atol=1e-3)


def test_free_fit_needs_as_many_samples_as_parameters():
    grid, values = quartet_signal([0.03] * 4, [40.0] * 4, grid=default_grid(2308.0, points=10))
    meas = MeasuredSpectrum(grid[:9], values[:9])
    with pytest.raises(ValueError, match="6 free Lorentzians have 14 parameters, more than the 9"):
        fit_free_lorentzians(meas, 6)
    with pytest.raises(ValueError, match="4 free Lorentzians have 10 parameters"):
        fit_free_lorentzians(meas, 4)
    # ten samples for ten parameters is enough
    res = fit_free_lorentzians(MeasuredSpectrum(grid, values), 4)
    assert res.names[-1] == "width_4"


UNPOLARIZED = 0.03 * np.array([1.0, 3.0, 3.0, 1.0])


def test_free_fit_on_pure_noise_finds_no_lines():
    # a run that beats the flat line y = 1 by a chi^2 that noise alone gives
    # is not a converged quartet
    grid = default_grid(2308.0)
    for seed in range(40):
        noise = 1.0 + np.random.default_rng(seed).normal(0.0, 0.002, grid.size)
        res = fit_free_lorentzians(MeasuredSpectrum(grid, noise), 4)
        assert not res.converged, seed
        notes = [d for d in res.diagnostics if d.startswith("no lines:")]
        assert len(notes) == 1, seed


def test_free_fit_on_pure_noise_runs_no_lm_iteration():
    # the no-line test comes before any LM run: noise is returned at its start
    grid = default_grid(2308.0)
    for seed in range(40):
        noise = 1.0 + np.random.default_rng(seed).normal(0.0, 0.002, grid.size)
        assert fit_free_lorentzians(MeasuredSpectrum(grid, noise), 4).iterations == 0, seed


def test_free_fit_fallback_keeps_a_run_with_wide_lines_converged():
    # a clean quartet with widths of 30-60 MHz converges with no line
    # narrower than the grid spacing
    rng = np.random.default_rng(27)
    depths = UNPOLARIZED * rng.uniform(0.5, 1.5, 4)
    grid, values = quartet_signal(depths, rng.uniform(30.0, 60.0, 4))
    meas = MeasuredSpectrum(grid, values + rng.normal(0.0, 0.002, grid.size))
    res = fit_free_lorentzians(meas, 4)
    assert res.converged
    assert min(res.values[f"width_{k}"] for k in range(1, 5)) > np.diff(grid).min()


def test_free_fit_keeps_a_weak_first_line_narrower_than_the_grid_span():
    # a first line of depth 0.003 in 0.002 noise, as in the weakest corpus
    # quartets: unbounded, its width runs off to ~1e11 MHz, its area swamps
    # the others and P = -1
    depths, widths = np.array([0.003, 0.032, 0.054, 0.025]), [45.0] * 4
    grid, values = quartet_signal(depths, widths, f_first=2188.0, spacing=65.8)
    noise = np.random.default_rng(1).normal(0.0, 0.002, grid.size)
    res = fit_free_lorentzians(MeasuredSpectrum(grid, values + noise), 4)
    assert res.converged
    assert max(res.values[f"width_{k}"] for k in range(1, 5)) <= grid[-1] - grid[0]
    areas = dict(zip(QUARTET_M_ASSIGNMENT, depths * widths))
    truth = polarization_from_areas(areas, m_max=1.5).polarization
    assert polarization_from_quartet_fit(res).polarization == pytest.approx(truth, abs=0.02)


@pytest.mark.parametrize("seed", [106, 157])
def test_free_fit_restarts_a_line_the_projected_run_collapsed(seed, monkeypatch):
    # a weak quartet (contrast 0.05, P = 0.2) on which the projected run
    # shrinks a width below the sample spacing: a spike on one noise sample,
    # with a depth of ~1e8 and P near -1 if it were kept. The line enters
    # the polish at depth 0 and its start width, and is found again.
    runs = []

    def recorded(*args, **kwargs):
        runs.append(lm_minimize(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(fit, "lm_minimize", recorded)
    model = SpectrumModel(
        f_center=2310.0,
        contrast=0.05,
        linewidth=48.0,
        a14=44.0,
        a15=-64.0,
        p15=1.0,
        populations={3: Populations.with_polarization(enumerate_ladder(3), 0.2)},
    )
    grid = default_grid(model.f_center)
    noise = np.random.default_rng(seed).normal(0.0, 0.002, grid.size)
    noisy = mixture_spectrum(model, grid).values + noise
    res = fit_free_lorentzians(MeasuredSpectrum(grid, noisy), 4)
    spacing = np.diff(grid).min()
    assert min(v for n, v in runs[0].values.items() if n.startswith("width_")) < spacing
    assert res.converged
    assert min(res.values[f"width_{k}"] for k in range(1, 5)) > spacing
    assert polarization_from_quartet_fit(res).polarization == pytest.approx(0.2, abs=0.03)


def test_free_fit_above_the_flat_line_finds_no_lines():
    # a baseline above 1 is fitted best by negative depths; with depths >= 0
    # there are no lines
    grid = default_grid(2308.0)
    meas = MeasuredSpectrum(grid, 1.01 + np.random.default_rng(0).normal(0.0, 0.002, grid.size))
    res = fit_free_lorentzians(meas, 4)
    assert not res.converged
    assert len([d for d in res.diagnostics if d.startswith("no lines:")]) == 1
    assert not any(res.values[f"depth_{k}"] for k in range(1, 5))
    assert res.iterations == 0


def test_free_fit_from_a_start_off_the_lines_finds_no_lines(monkeypatch):
    # the no-line test runs on the start, whatever it is: lines of 2 MHz set
    # 12 MHz below a clear quartet's beat the flat line by too little, so the
    # fit is returned at its start
    depths = 0.02 * np.array([2.0, 1.0, 3.0, 1.5])
    grid, values = quartet_signal(depths, [35.0] * 4)
    meas = MeasuredSpectrum(grid, values + np.random.default_rng(0).normal(0.0, 0.002, grid.size))
    monkeypatch.setattr(fit, "initial_free_guess", lambda meas, n_lines: (2200.0, 64.0, 2.0))
    gated = fit_free_lorentzians(meas, 4)
    assert not gated.converged
    assert gated.iterations == 0
    assert_valid_line_set(gated, 4)
    assert [d for d in gated.diagnostics if d.startswith("no lines:")]


def test_free_fit_with_a_line_narrower_than_the_sample_spacing_is_not_converged():
    # the fit_batch corpus' quartet of entry 2 at 0.05 of its contrast: the
    # polish ends with a line of width 0.0014 MHz on one noise sample (the
    # grid spacing is 0.625 MHz) and P 0.84 off the target
    target = 0.26106711284557266
    model = SpectrumModel(
        f_center=2284.8505277224067,
        contrast=0.05 * 0.08353659092401643,
        linewidth=46.09782906513345,
        a14=45.67981377761256,
        a15=-63.92248322015815,
        p15=1.0,
        populations={3: Populations.with_polarization(enumerate_ladder(3), target)},
    )
    grid = default_grid(model.f_center)
    noisy = mixture_spectrum(model, grid).values
    noisy = noisy + np.random.default_rng(104).normal(0.0, 0.002, grid.size)
    res = fit_free_lorentzians(MeasuredSpectrum(grid, noisy), 4)
    assert not res.converged
    (note,) = [d for d in res.diagnostics if d.startswith("line narrower than the sample spacing:")]
    assert "width_1 = 0.00138 MHz" in note
    assert res.values["width_1"] < np.diff(grid).min()
    assert abs(polarization_from_quartet_fit(res).polarization - target) > 0.8


def random_free_params(rng, n_lines):
    """(f_first, spacing, depths, widths) of a seeded random line set."""
    return np.concatenate(
        [
            [2212.0 + rng.normal(0.0, 10.0), 64.0 * np.exp(rng.normal(0.0, 0.2))],
            rng.uniform(0.005, 0.05, n_lines),
            rng.uniform(20.0, 60.0, n_lines),
        ]
    )


@pytest.mark.parametrize("sigmas", [False, True])
@pytest.mark.parametrize(
    "n_lines, zero_depth", [(n, False) for n in range(1, 7)] + [(4, True)]
)
def test_free_jacobian_matches_central_differences(n_lines, zero_depth, sigmas):
    rng = np.random.default_rng(10 * n_lines + zero_depth)
    grid, values = quartet_signal([0.03, 0.09, 0.09, 0.03], [45.0] * 4)
    noisy = values + rng.normal(0.0, 0.002, grid.size)
    meas = MeasuredSpectrum(grid, noisy, rng.uniform(0.001, 0.004, grid.size) if sigmas else None)
    problem = _free_problem(meas, n_lines)
    residual = lambda q: problem(q)[0]
    p = random_free_params(rng, n_lines)
    if zero_depth:
        p[3] = 0.0  # depth_2 on its bound: its width column vanishes
    _, jacobian = problem(p)
    jac = jacobian()
    assert np.array_equal(jacobian(), jac)
    problem(p + 1.0)  # the thunk keeps its own point
    assert np.array_equal(jacobian(), jac)
    assert jac.shape == (grid.size, 2 + 2 * n_lines)
    for i in range(p.size):
        h = 1e-6 * max(abs(p[i]), 1.0)
        up, down = p.copy(), p.copy()
        up[i] += h
        down[i] -= h
        central = (residual(up) - residual(down)) / (2.0 * h)
        scale = np.abs(central).max()
        assert np.abs(jac[:, i] - central).max() <= 1e-6 * scale, i
    if zero_depth:
        assert not jac[:, 2 + n_lines + 1].any()


@pytest.mark.parametrize("sigmas", [False, True])
@pytest.mark.parametrize("n_lines", range(1, 7))
def test_projected_jacobian_matches_central_differences_at_an_exact_fit(n_lines, sigmas):
    # at a noise-free truth the projected residual is 0, so the term that
    # Kaufman's Jacobian drops from the Golub-Pereyra one vanishes
    rng = np.random.default_rng(n_lines)
    p = random_free_params(rng, n_lines)
    grid, values = quartet_signal(p[2 : 2 + n_lines], p[2 + n_lines :], f_first=p[0], spacing=p[1])
    meas = MeasuredSpectrum(grid, values, rng.uniform(0.001, 0.004, grid.size) if sigmas else None)
    problem, point = _projected_problem(meas, n_lines)
    q = np.concatenate([p[:2], p[2 + n_lines :]])
    depths, res, jacobian = point(q)
    assert np.allclose(depths, p[2 : 2 + n_lines], rtol=1e-9, atol=0.0)
    assert np.abs(res).max() <= 1e-12
    jac = jacobian()
    problem(q + 1.0)  # the thunk keeps its own point
    assert np.array_equal(jacobian(), jac)
    assert jac.shape == (grid.size, 2 + n_lines)
    for i in range(q.size):
        h = 1e-6 * max(abs(q[i]), 1.0)
        up, down = q.copy(), q.copy()
        up[i] += h
        down[i] -= h
        central = (problem(up)[0] - problem(down)[0]) / (2.0 * h)
        assert np.abs(jac[:, i] - central).max() <= 1e-6 * np.abs(central).max(), i
