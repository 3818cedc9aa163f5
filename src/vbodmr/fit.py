"""Nonlinear least-squares estimation of spectrum parameters.

Two fit families are provided on top of a small Levenberg-Marquardt core:

* ``fit_physical`` - the binomial mixture of the four configurations,
  couplings fitted signed and reported as magnitudes; its residual and
  closed-form Jacobian share one line pass (the lines' offsets, computed
  once per point, and their profiles) in buffers made once per fit,
* ``fit_free_lorentzians`` - n equally spaced Lorentzians with independent
  depths and widths, used for line-area and polarization analysis: one
  start, a run with the depths solved in closed form at every point
  (variable projection, Kaufman's Jacobian), then a polish of the full
  problem with its closed-form Jacobian; a start no better than the flat
  line by a chi^2 of 100 is returned unfitted as having no lines, and a
  fit with a line narrower than the sample spacing is not converged.

The LM core sets its damping by the gain ratio of each step (Madsen,
Nielsen & Tingleff 2004) and respects box bounds with a projected step: a
parameter on a bound whose gradient points out of the box is held for that
iteration, left out of the step and of the gradient convergence test. A fit
that ends with a parameter held says so in its diagnostics ("held at bound:
...").
Every fit hands the core one problem callable, p -> (residuals, jacobian),
whose ``jacobian()`` is the closed-form Jacobian at that same p, with the
box and the names of the parameters, both required.

Uncertainties are 1-sigma values from the scaled covariance
sigma^2 (J^T J)^-1 with sigma^2 = SSR / (N - k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .spectrum import (
    _JACOBIAN_PARAMS,
    SpectrumModel,
    _grid_constants,
    _jacobian_rows,
    _line_pass,
    _line_plan,
    _line_table,
    _model_jacobian,
    _offsets,
    _positions,
    lorentzian,
)
from .constants import A14_DEFAULT_MHZ, A15_DEFAULT_MHZ, _read_only

LM_COST_RTOL = 1e-10
LM_GRAD_ATOL = 1e-10
LM_MAX_ITER = 500
# The gain-ratio damping shrinks lambda by at most this factor per accepted
# step: the shrink of a step whose cost drop the linear model predicts exactly.
_LAM_SHRINK = 0.1
# Condition threshold of J^T J beyond which parameters count as degenerate.
DEGENERATE_COND = 1e12
# A fitted coupling below this magnitude sits on the symmetry plane a = 0;
# fit_physical then refits once from the default couplings.
_COUPLING_RESTART_MHZ = 1e-3
_COUPLING_DEFAULTS = {"a14": A14_DEFAULT_MHZ, "a15": abs(A15_DEFAULT_MHZ)}
# Lorentzian passes the physical start spends at most on its linewidth.
_START_STEPS = 8
# Samples closer than this in frequency count as one frequency given twice.
DUPLICATE_FREQ_TOL_MHZ = 1e-9
# The physical model's fitted parameters, in LM order, and the box of each.
PHYSICAL_BOUNDS = {
    "f_center": (-np.inf, np.inf),
    "contrast": (1e-6, 0.999999),
    "linewidth": (1e-6, np.inf),
    "a14": (-np.inf, np.inf),
    "a15": (-np.inf, np.inf),
    "p15": (0.0, 1.0),
}


@dataclass(frozen=True)
class MeasuredSpectrum:
    """Ingested ODMR samples: (frequency MHz, PL ratio, optional sigma),
    sorted by frequency. Every sample rule is checked here: at least 8
    samples, all finite, positive sigmas, frequencies more than
    ``DUPLICATE_FREQ_TOL_MHZ`` apart, and a finite chi^2 of the flat line
    y = 1, sum(((1 - r) / sigma)^2): every fit starts from it, and a
    residual that overflows when squared leaves no cost to minimize."""

    frequencies: np.ndarray
    ratios: np.ndarray
    sigmas: np.ndarray | None = None

    def __post_init__(self) -> None:
        f = np.array(self.frequencies, dtype=float)
        r = np.array(self.ratios, dtype=float)
        if f.ndim != 1 or f.shape != r.shape:
            raise ValueError("frequencies and ratios must be 1-d arrays of equal length")
        if f.size < 8:
            raise ValueError(f"insufficient samples: need >= 8, got {f.size}")
        if not (np.isfinite(f).all() and np.isfinite(r).all()):
            raise ValueError("frequencies and ratios must be finite")
        order = np.argsort(f, kind="stable")
        f = f[order]
        r = r[order]
        if np.any(np.diff(f) <= DUPLICATE_FREQ_TOL_MHZ):
            raise ValueError(f"duplicate frequencies within {DUPLICATE_FREQ_TOL_MHZ} MHz")
        s = self.sigmas
        if s is not None:
            s = np.array(s, dtype=float)
            if s.shape != f.shape:
                raise ValueError("sigmas must have one value per sample")
            if np.any(s <= 0):
                raise ValueError("sigma values must be positive")
            if not np.isfinite(s).all():
                raise ValueError("sigma values must be finite")
            s = _read_only(s[order])
        with np.errstate(over="ignore"):
            flat = 1.0 - r if s is None else (1.0 - r) / s
            if not math.isfinite(flat @ flat):
                raise ValueError("the flat line's chi^2 is not finite: a ratio is too far from 1")
        object.__setattr__(self, "frequencies", _read_only(f))
        object.__setattr__(self, "ratios", _read_only(r))
        object.__setattr__(self, "sigmas", s)

    @property
    def n_samples(self) -> int:
        return int(self.frequencies.size)


def _free_profiles(
    constants: tuple, f_first: float, spacing: float, widths
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n equally spaced lines, centers c_k = f_first + k * spacing, as
    one (lines x grid) pass on the grid of ``constants``
    (``spectrum._grid_constants``): offsets u = f - c_k
    (``spectrum._offsets``), squared half widths g_k = (w_k / 2)^2 as a
    (lines, 1) column and unit-peak Lorentzians L = g / (u^2 + g)."""
    widths = np.asarray(widths, dtype=float)
    u = _offsets(constants, f_first + np.arange(widths.size) * spacing)
    g = (0.5 * widths[:, None]) ** 2
    profiles = u * u
    profiles += g
    return u, g, np.divide(g, profiles, out=profiles)


@dataclass
class FitResult:
    """Recovered parameters with 1-sigma uncertainties and diagnostics."""

    names: tuple[str, ...]
    values: dict[str, float]
    sigmas: dict[str, float]
    covariance: np.ndarray
    residual_norm: float          # root-mean-square residual
    iterations: int
    converged: bool
    diagnostics: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        """JSON-ready report; a non-finite sigma (an undetermined parameter)
        is written as None, so the report stays valid JSON."""
        return {
            "params": {
                n: {
                    "value": self.values[n],
                    "sigma": self.sigmas[n] if math.isfinite(self.sigmas[n]) else None,
                }
                for n in self.names
            },
            "residual_rms": self.residual_norm,
            "iterations": self.iterations,
            "converged": self.converged,
            "diagnostics": list(self.diagnostics),
        }


# p -> (residuals, jacobian), see lm_minimize
Problem = Callable[[np.ndarray], tuple[np.ndarray, Callable[[], np.ndarray]]]


def lm_minimize(
    problem: Problem,
    init_params: Sequence[float],
    bounds: tuple[Sequence[float], Sequence[float]],
    names: Sequence[str],
    max_iter: int = LM_MAX_ITER,
) -> FitResult:
    """Levenberg-Marquardt minimization of sum(residual^2).

    ``problem(p)`` returns the residuals at p and a thunk ``jacobian()``
    giving the closed-form (n_residuals, k) Jacobian at that same p. The
    thunk is called only at the initial point and at accepted trial points,
    before the next evaluation; ``problem`` is never evaluated outside the
    box ``bounds``, (lower, upper) with inf where a parameter has no bound.
    ``names`` names the parameters of p; both are required.

    The damping lambda scales the diagonal of J^T J and follows the gain
    ratio rho of each accepted step h (clipped to the box): the cost drop
    over the drop its linear model predicts, |r|^2 - |r + J h|^2 =
    -2 h^T g - h^T J^T J h with g = J^T r. An accepted step multiplies
    lambda by max(1/10, 1 - (2 rho - 1)^3), floored at 1e-12, so a step the
    model predicts exactly shrinks it tenfold and a poor one grows it; each
    rejected (or singular) trial multiplies it by nu, which starts at 2 and
    doubles, so rejections in a row grow it by 2, 4, 8, ... (Madsen, Nielsen
    & Tingleff, Methods for Non-Linear Least Squares Problems, IMM DTU 2004;
    Nielsen, IMM-REP-1999-05). The trials of one iteration stop at
    lambda >= 1e14: from 1e-3, after 11 rejections in a row.

    The step is projected onto the bounds. Each iteration, a parameter is
    *held* when it sits on its lower bound with gradient (J^T r)_i > 0, or
    on its upper bound with (J^T r)_i < 0, so that descent would leave the
    box. Held parameters keep a zero step; the damped system is solved on
    the sub-block of the free ones. With nothing held this is the plain LM
    step. Convergence is declared when the relative cost change of an
    accepted step falls below LM_COST_RTOL or the infinity norm of the
    free parameters' gradient (the projected gradient) falls below
    LM_GRAD_ATOL, so a minimum on a bound converges. Trial points are
    clipped to the bounds. A parameter still held at the final iterate is
    named in a ``held at bound`` diagnostic: there ``converged`` means a
    minimum constrained by that bound. When no damped step lowers the cost
    up to the maximum damping, the fit stops with ``converged`` False and a
    ``stalled`` diagnostic: a stall is not convergence. After ``max_iter``
    iterations the partial result is returned with ``converged`` False.

    Arrays hold only the work whose result reaches a reported number: J^T r,
    J^T J, the damped solve, the trial point, the costs, the gain ratio and
    the covariance. The held set, the gradient test and the zero-diagonal
    floor compare Python floats: a NumPy call costs more than k <= 10 of them.
    """
    p = np.array(init_params, dtype=float)
    k = p.size
    names = tuple(names)
    lower, upper = (np.array(bound, dtype=float) for bound in bounds)
    if np.any(p < lower) or np.any(p > upper):
        raise ValueError("initial parameters violate the bounds")
    box = (lower.tolist(), upper.tolist())

    evaluated = problem(p)
    if not (isinstance(evaluated, tuple) and len(evaluated) == 2 and callable(evaluated[1])):
        raise TypeError("problem(p) must return a (residuals, jacobian) pair, jacobian callable")
    r, jacobian = evaluated
    r = np.asarray(r, dtype=float)
    with np.errstate(over="ignore"):
        cost = float(r @ r)
    if not math.isfinite(cost):
        raise ValueError("residual function is not finite at the initial point")

    lam = 1e-3
    converged = False
    iterations = 0
    diagnostics: list[str] = []
    jac = jacobian()
    while True:
        grad = jac.T @ r
        g = grad.tolist()
        held = [i for i, (x, lo, hi) in enumerate(zip(p.tolist(), *box))
                if (x <= lo and g[i] > 0.0) or (x >= hi and g[i] < 0.0)]
        if converged or iterations >= max_iter:
            break
        iterations += 1
        free = [i for i in range(k) if i not in held]
        # not max(), which drops a NaN that is not first: a NaN gradient has not converged
        if all(abs(g[i]) < LM_GRAD_ATOL for i in free):
            converged = True
            break
        jtj = jac.T @ jac
        # J^T J of the free parameters, its diagonal rewritten per trial
        damped, descent = (jtj[np.ix_(free, free)], -grad[free]) if held else (jtj.copy(), -grad)
        damped_diag = damped.reshape(-1)[:: damped.shape[0] + 1]
        undamped = scale = damped_diag.copy()
        if any(d <= 0.0 for d in scale.tolist()):  # floor the scale of a zero entry
            scale = np.where(scale <= 0.0, max(np.diag(jtj).max(initial=0.0), 1.0) * 1e-12, scale)
        nu = 2.0
        while lam < 1e14:
            np.multiply(scale, lam, out=damped_diag)
            damped_diag += undamped
            try:
                step = np.linalg.solve(damped, descent)
            except np.linalg.LinAlgError:
                lam *= nu
                nu *= 2.0
                continue
            if held:  # held parameters keep a zero step
                solved, step = step, np.zeros(k)
                step[free] = solved
            trial = np.minimum(np.maximum(p + step, lower), upper)
            r_trial, jacobian = problem(trial)
            r_trial = np.asarray(r_trial, dtype=float)
            cost_trial = float(r_trial @ r_trial)
            # a residual with a NaN or an inf has a NaN or inf cost, never below cost
            if cost_trial < cost:
                h = trial - p
                predicted = -2.0 * float(h @ grad) - float(h @ jtj @ h)
                # a clipped step can leave the linear model predicting no
                # drop where the cost fell: that step counts as exact
                gain = (cost - cost_trial) / predicted if predicted > 0.0 else 1.0
                rel_drop = (cost - cost_trial) / max(cost, 1e-300)
                p, r, cost = trial, r_trial, cost_trial
                lam = max(lam * max(_LAM_SHRINK, 1.0 - (2.0 * gain - 1.0) ** 3), 1e-12)
                if rel_drop < LM_COST_RTOL or cost == 0.0:
                    converged = True
                break
            lam *= nu
            nu *= 2.0
        else:  # no trial accepted up to the maximum damping
            diagnostics.append("stalled: no step reduced the cost at maximum damping")
            break
        jac = jacobian()  # the thunk of the accepted trial

    if held:
        pinned = ", ".join(f"{names[i]} = {p[i]:g}" for i in held)
        diagnostics.append(f"held at bound: {pinned} (gradient points outward)")
    jtj = jac.T @ jac
    svals = np.linalg.svd(jtj, compute_uv=False)
    smax = svals.max(initial=0.0)
    if smax == 0.0 or svals.min() < smax / DEGENERATE_COND:
        _, _, vt = np.linalg.svd(jtj)
        weak = vt[-1]
        culprits = [names[i] for i in np.where(np.abs(weak) > 0.3)[0]]
        diagnostics.append(
            "degenerate parameters: J^T J is singular or near-singular"
            + (f" (weak direction involves {', '.join(culprits)})" if culprits else "")
        )
        cov_unscaled = np.linalg.pinv(jtj)
    else:
        cov_unscaled = np.linalg.inv(jtj)
    covariance = cost / max(r.size - k, 1) * cov_unscaled  # sigma^2 (J^T J)^-1
    covariance = (covariance + covariance.T) / 2.0
    sigmas = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
    np.fill_diagonal(covariance, sigmas**2)

    return FitResult(
        names=names,
        values={n: float(v) for n, v in zip(names, p)},
        sigmas={n: float(s) for n, s in zip(names, sigmas)},
        covariance=covariance,
        residual_norm=math.sqrt(cost / r.size),
        iterations=iterations,
        converged=converged,
        diagnostics=tuple(diagnostics),
    )


# --- physical model fit ------------------------------------------------------


def initial_physical_guess(meas: MeasuredSpectrum, p15: float, branch: int = -1) -> SpectrumModel:
    """Start at the model's own dip. The center is the depression centroid
    and the couplings sit at their default magnitudes; D = W @ L is the
    unit-contrast dip of their lines (``p15``, ``branch``, unpolarized) on
    the measured grid. The linewidth is the FWHM, at least one sample
    spacing, at which D is as wide at half depth as the data (the extent of
    the samples below half the deepest one): secant steps on that width,
    the first of unit slope, until it is within the smallest sample spacing,
    else the closest of ``_START_STEPS`` passes. The contrast is the
    least-squares scale of D to 1 - y, clipped to [1e-3, 0.999]. With fewer
    than two samples below half depth, the contrast is the deepest sample's
    depth and the linewidth a tenth of the grid's span. A caller that knows
    better overrides fields with ``dataclasses.replace``."""
    f, r = meas.frequencies, meas.ratios
    depth = np.clip(1.0 - r, 0.0, None)
    contrast = float(min(max(depth.max(), 1e-3), 0.999))
    if depth.sum() > 0:
        f_center = float((f * depth).sum() / depth.sum())
    else:
        f_center = float(f[np.argmin(r)])
    below = f[r < 1.0 - contrast / 2.0]
    width = float((f[-1] - f[0]) / 10.0)
    start = SpectrumModel(f_center, contrast, width, **_COUPLING_DEFAULTS, p15=p15, branch=branch)
    if below.size < 2:
        return start
    keys, w, _ = _line_plan(start, _line_table(None))  # the lines stay put, only their width moves
    u = _offsets(_grid_constants(f, len(keys)), _positions(start, keys))
    profiles = np.empty_like(u)
    step = float(np.diff(f).min())
    target = float(below[-1] - below[0])
    fwhm, last, tried = max(target, step), None, []
    for _ in range(_START_STEPS):
        dip = w @ lorentzian(u, fwhm, out=profiles)
        above = f[dip > 0.5 * dip.max()]
        if above.size == 0:  # the dip underflows or is not finite on this grid
            return start
        miss = float(above[-1] - above[0]) - target
        tried.append((abs(miss), fwhm, dip))
        if abs(miss) <= step:
            break
        slope = 1.0 if last is None or fwhm == last[0] else (miss - last[1]) / (fwhm - last[0])
        last = (fwhm, miss)
        fwhm = max(fwhm - miss / (slope if slope > 0.0 else 1.0), step)
    _, fwhm, dip = min(tried, key=lambda t: t[0])
    contrast = float(np.clip(dip @ (1.0 - r) / (dip @ dip), 1e-3, 0.999))
    return replace(start, contrast=contrast, linewidth=fwhm)


# An LM point of ``_physical_problem``: the ``SpectrumModel`` numbers a line
# pass reads, unchecked, for the fit's box keeps it in the model's domain.
_Point = NamedTuple("_Point", [*((name, float) for name in PHYSICAL_BOUNDS), ("branch", int)])


def _physical_problem(
    meas: MeasuredSpectrum,
    init: SpectrumModel,
    active: Sequence[str],
) -> Problem:
    """The physical model over the ``active`` parameters as an
    ``lm_minimize`` problem; the others keep their ``init`` values. Residual
    and closed-form Jacobian are weighted by 1/sigma when the spectrum
    carries sigmas. The residual is ``mixture_spectrum`` minus the data, bit
    for bit, from one line pass (``spectrum._line_pass``) that the Jacobian
    thunk reuses; a point reaches it as a ``_Point``. The grid constants of
    the offsets and the buffers are made once, and at fixed p15 the line
    plan and the Jacobian's coefficients too. Every point writes its line
    offsets u = f - f_line (``spectrum._offsets``, an exact matrix product,
    computed once per point) and its profiles into the fit's offset and
    profile buffers, beside the Jacobian's scratch for L^2 and u L^2; the
    Jacobian reads u and L and writes neither. ``lm_minimize`` calls a
    point's thunk before it evaluates the next point, and a thunk whose
    offsets and profiles a later point overwrote raises RuntimeError."""
    y = meas.ratios
    weights = 1.0 / meas.sigmas if meas.sigmas is not None else None
    grid = meas.frequencies
    rows = [_JACOBIAN_PARAMS.index(name) for name in active]
    start = [getattr(init, name) for name in _Point._fields]
    slots = [_Point._fields.index(name) for name in active]
    table = _line_table(init.populations)  # W depends on no fitted parameter
    fixed = None if "p15" in active else _line_plan(init, table)
    # the Jacobian's coefficient rows, once at fixed p15, else each point's in one buffer
    coef = _jacobian_rows(init.branch, *fixed[:2]) if fixed else np.empty((5, len(table)))
    # the offset and profile buffers, then the Jacobian's scratch
    buffers = np.empty((3, coef.shape[1], grid.size))
    constants = _grid_constants(grid, coef.shape[1])
    latest = None  # the line pass whose offsets and profiles the buffers hold

    def problem(p: np.ndarray):
        nonlocal latest
        values = start.copy()
        for slot, value in zip(slots, p.tolist()):
            values[slot] = value
        point = _Point(*values)
        plan = fixed or _line_plan(point, table, True)
        n = len(plan[0])
        lines = latest = _line_pass(point, constants, plan, out=buffers[:2, :n])
        w, profiles = lines[1], lines[4]
        curve = n if fixed else np.count_nonzero(w)  # w != 0 first; a fixed plan has no w = 0
        res = w[:curve] @ profiles[:curve]  # 1 - C (w @ L) - y, in the product's array
        np.subtract(1.0, np.multiply(res, point.contrast, out=res), out=res)
        res -= y

        def jacobian() -> np.ndarray:
            if latest is not lines:
                raise RuntimeError("jacobian() of a point whose line pass a later point overwrote")
            point_coef = coef if fixed else _jacobian_rows(point.branch, *plan[:2], out=coef)
            jac = _model_jacobian(point, lines, point_coef, buffers[2, :n])[rows].T
            return jac * weights[:, None] if weights is not None else jac

        return (res * weights if weights is not None else res), jacobian

    return problem


def _as_magnitudes(result: FitResult) -> FitResult:
    """Report fitted couplings as magnitudes, with the sign of their
    covariance rows and columns flipped to match. When a free p15 ends at 0
    (or 1), the 15N (or 14N) coupling has no lines to act on: its sigma
    becomes inf and a diagnostic says so."""
    values = dict(result.values)
    sigmas = dict(result.sigmas)
    covariance = result.covariance.copy()
    diagnostics = list(result.diagnostics)
    for i, name in enumerate(result.names):
        if name in ("a14", "a15") and values[name] < 0.0:
            values[name] = -values[name]
            covariance[i, :] *= -1.0
            covariance[:, i] *= -1.0
    absent = {0.0: ("a15", "15N"), 1.0: ("a14", "14N")}.get(values.get("p15"))
    if absent is not None and absent[0] in values:
        name, species = absent
        i = result.names.index(name)
        sigmas[name] = math.inf
        covariance[i, :] = covariance[:, i] = math.nan
        covariance[i, i] = math.inf
        diagnostics.append(f"{name} undetermined: no {species} lines at p15 = {values['p15']:g}")
    return replace(
        result,
        values=values,
        sigmas=sigmas,
        covariance=covariance,
        diagnostics=tuple(diagnostics),
    )


# A fit, or a free-Lorentzian start with negative depths set to 0, that
# lowers the chi^2 of the flat line y = 1 by less than this found no lines
# (at the start, 40 noise draws: <= 14; corpus quartets: >= 2550).
_NO_LINE_DCHI2 = 100.0


def _no_lines(meas: MeasuredSpectrum, ssr: float, k: int) -> tuple[str, ...]:
    """The no-line note of a k-parameter point of weighted SSR ``ssr``, if it
    has one: its chi^2 is less than ``_NO_LINE_DCHI2`` below the flat line's
    (sigma^2 = SSR / (N - k))."""
    flat = (1.0 - meas.ratios) / (1.0 if meas.sigmas is None else meas.sigmas)
    # the chi^2 drop times ssr / dof, so an exact fit (ssr = 0) divides by nothing
    drop = (float(flat @ flat) - ssr) * max(meas.n_samples - k, 1)
    if drop > _NO_LINE_DCHI2 * ssr:
        return ()
    ratio = drop / max(ssr, 1e-300)
    return (f"no lines: chi^2 only {ratio:.3g} below the flat line (< {_NO_LINE_DCHI2:g})",)


def fit_physical(
    meas: MeasuredSpectrum,
    init: SpectrumModel | None = None,
    p15_mode: tuple[str, float] | str = ("fixed", 0.0),
) -> FitResult:
    """Fit the constrained physical model to a measured spectrum.

    ``p15_mode`` is "free" or ("fixed", value), a tuple or a list. The fit
    runs over the ``PHYSICAL_BOUNDS`` parameters in their order and box: a
    coupling where its species has lines (a14 at p15 < 1, a15 at p15 > 0)
    and p15 when it is free.

    The hyperfine couplings start from the magnitudes of ``init.a14`` and
    ``init.a15`` and are fitted on the whole real line: the unpolarized
    model is even in each of them, so a bound at 0 would hold a coupling on
    the saddle a = 0, where its gradient vanishes. They are reported as
    magnitudes (the sign cannot be determined from an unpolarized
    spectrum), with their covariance rows and columns flipped to match. The
    Jacobian is closed-form (``spectrum._model_jacobian``). When an active
    coupling starts or ends below 1e-3 MHz in magnitude (the symmetry plane,
    where its gradient vanishes), the fit is run once more from the same
    start with the active couplings at their default magnitudes; the
    lower cost is kept and a "coupling restart" diagnostic says which fit
    that was. When a free p15 ends at 0 or 1, the coupling of the absent
    species is reported with sigma inf and an "undetermined" diagnostic. A
    kept fit that lowers the chi^2 of the flat line y = 1 by less than
    ``_NO_LINE_DCHI2`` found no lines: it has ``converged`` False and a
    ``no lines`` diagnostic.
    """
    free = p15_mode == "free"
    fixed = isinstance(p15_mode, (tuple, list)) and len(p15_mode) == 2 and p15_mode[0] == "fixed"
    if not (free or fixed):
        raise ValueError("p15_mode must be ('fixed', value) or 'free'")
    p15 = None if free else float(p15_mode[1])
    if init is None:
        init = initial_physical_guess(meas, 0.5 if free else p15)
    init = replace(init, a14=abs(init.a14), a15=abs(init.a15), p15=init.p15 if free else p15)
    fitted = {"a14": free or p15 < 1.0, "a15": free or p15 > 0.0, "p15": free}
    active = [n for n in PHYSICAL_BOUNDS if fitted.get(n, True)]
    problem = _physical_problem(meas, init, active)
    bounds = tuple(zip(*(PHYSICAL_BOUNDS[n] for n in active)))
    p0 = [getattr(init, n) for n in active]
    result = lm_minimize(problem, p0, bounds, active)

    lowest = {
        n: min(getattr(init, n), abs(result.values[n])) for n in ("a14", "a15") if n in active
    }
    stuck = [n for n, a in lowest.items() if a < _COUPLING_RESTART_MHZ]
    p1 = [_COUPLING_DEFAULTS.get(n, v) for n, v in zip(active, p0)]
    if stuck and p1 != p0:
        retry = lm_minimize(problem, p1, bounds, active)
        kept = "restart" if retry.residual_norm < result.residual_norm else "first fit"
        note = (
            f"coupling restart: {', '.join(stuck)} near 0 (< {_COUPLING_RESTART_MHZ:g} MHz);"
            f" refitted from the default couplings, kept the {kept}"
            f" (rms {result.residual_norm:.4g} -> {retry.residual_norm:.4g})"
        )
        result = retry if kept == "restart" else result
        result = replace(result, diagnostics=result.diagnostics + (note,))
    note = _no_lines(meas, result.residual_norm**2 * meas.n_samples, len(active))
    result = replace(result, converged=result.converged and not note)
    return _as_magnitudes(replace(result, diagnostics=result.diagnostics + note))


# --- free equally spaced Lorentzians ----------------------------------------


def initial_free_guess(meas: MeasuredSpectrum, n_lines: int) -> tuple[float, float, float]:
    """Spread the lines over the observed depression: the start
    (f_first, spacing, width) of every line."""
    f = meas.frequencies
    depth = np.clip(1.0 - meas.ratios, 0.0, None)
    if depth.sum() > 0:
        center = float((f * depth).sum() / depth.sum())
    else:
        center = float(0.5 * (f[0] + f[-1]))
    span = float(f[-1] - f[0])
    spacing = span / max(2 * n_lines, 4)
    f_first = center - 0.5 * (n_lines - 1) * spacing
    return f_first, spacing, max(spacing / 2.0, span / 50.0)


def _dip_rows(u: np.ndarray, g: np.ndarray, profiles: np.ndarray, depths, widths) -> np.ndarray:
    """The derivatives of the dip sum_k d_k L_k over (f_first, spacing,
    width_1..n) as (2 + n, grid) rows, from the ``_free_profiles`` pass of
    the point: d/dc_k = d_k 2 u L_k^2 / g_k (summed over k for f_first,
    k-weighted for spacing) and d/dw_k = d_k 2 (L_k - L_k^2) / w_k."""
    n_lines = profiles.shape[0]
    depths = np.asarray(depths)[:, None]
    square = profiles * profiles
    center = u * square
    center *= 2.0 * depths / g
    rows = np.empty((2 + n_lines, profiles.shape[1]))
    rows[0] = center.sum(axis=0)
    rows[1] = np.arange(n_lines) @ center
    np.subtract(profiles, square, out=rows[2:])
    rows[2:] *= 2.0 * depths / np.asarray(widths)[:, None]
    return rows


def _free_problem(meas: MeasuredSpectrum, n_lines: int) -> Problem:
    """n equally spaced Lorentzians over p = (f_first, spacing, depth_1..n,
    width_1..n) as an ``lm_minimize`` problem, residual and closed-form
    Jacobian weighted by 1/sigma when the spectrum carries sigmas. With
    r = 1 - sum_k d_k L_k - y: dr/dd_k = -L_k, and the f_first, spacing and
    width columns are minus ``_dip_rows``."""
    y = meas.ratios
    weights = 1.0 / meas.sigmas if meas.sigmas is not None else None
    constants = _grid_constants(meas.frequencies, n_lines)

    def problem(p: np.ndarray):
        u, g, profiles = _free_profiles(constants, p[0], p[1], p[2 + n_lines :])
        res = 1.0 - p[2 : 2 + n_lines] @ profiles - y

        def jacobian() -> np.ndarray:
            rows = _dip_rows(u, g, profiles, p[2 : 2 + n_lines], p[2 + n_lines :])
            jac = np.concatenate([rows[:2], profiles, rows[2:]])
            jac *= -1.0 if weights is None else -weights
            return jac.T

        return (res * weights if weights is not None else res), jacobian

    return problem


def _projected_problem(meas: MeasuredSpectrum, n_lines: int):
    """The free Lorentzians by variable projection (Golub & Pereyra, SIAM J.
    Numer. Anal. 10, 1973) over q = (f_first, spacing, width_1..n). At each
    point the depths are the least-squares solution, by one QR of the
    weighted profiles, against the weighted 1 - y, and the residual is the
    part of it off the profiles' span. The Jacobian is Kaufman's (BIT 15,
    1975): the full problem's f_first, spacing and width columns at those
    depths, projected off that span. Returns the ``lm_minimize`` problem and
    point(q) -> (depths, residual, Jacobian thunk)."""
    constants = _grid_constants(meas.frequencies, n_lines)
    weights = 1.0 / meas.sigmas if meas.sigmas is not None else None
    target = 1.0 - meas.ratios if weights is None else (1.0 - meas.ratios) * weights

    def point(q: np.ndarray):
        u, g, profiles = _free_profiles(constants, q[0], q[1], q[2:])
        basis, tri = np.linalg.qr((profiles if weights is None else profiles * weights).T)
        coef = basis.T @ target
        depths = np.linalg.solve(tri, coef)

        def jacobian() -> np.ndarray:
            jac = _dip_rows(u, g, profiles, depths, q[2:]).T
            jac *= -1.0 if weights is None else -weights[:, None]
            jac -= basis @ (basis.T @ jac)
            return jac

        return depths, target - basis @ coef, jacobian

    return (lambda q: point(q)[1:]), point


def fit_free_lorentzians(meas: MeasuredSpectrum, n_lines: int) -> FitResult:
    """Fit n equally spaced Lorentzians with free depths and widths.

    One start, the (f_first, spacing, width) of ``initial_free_guess`` with
    every line at that width, and two LM runs. The first runs over the
    centers and widths, the depths solved in closed form at every point
    (``_projected_problem``). The polish runs the full problem
    (``_free_problem``) from there with the depths bounded at >= 0 and gives
    the values, the covariance, ``converged`` and the diagnostics (the
    projected run only moves the start; its status is not reported).
    ``iterations`` adds up both runs. A line whose projected depth is
    negative, or whose width is below the grid's smallest sample spacing (a
    spike on one sample), enters the polish at depth 0 and its start width.
    The widths are bounded above by the grid's span, since a weak line could
    otherwise widen without end; the positive spacing keeps the lines in
    center order. The 2 + 2 n parameters may not outnumber the samples.

    A fit that lowers the chi^2 of the flat line y = 1 by less than
    ``_NO_LINE_DCHI2`` (sigma^2 = SSR / (N - k)) found no lines: it has
    ``converged`` False and a ``no lines`` diagnostic. The test runs first
    on the start (negative depths at 0), and a start that fails it is
    returned with ``iterations`` 0. A polished line narrower than the
    smallest sample spacing fits a noise sample, not a line: the fit has
    ``converged`` False and a ``line narrower than the sample spacing``
    diagnostic.
    """
    if n_lines < 1:
        raise ValueError("n_lines must be >= 1")
    if 2 + 2 * n_lines > meas.n_samples:
        raise ValueError(
            f"{n_lines} free Lorentzians have {2 + 2 * n_lines} parameters,"
            f" more than the {meas.n_samples} samples"
        )
    f_first, spacing, width = initial_free_guess(meas, n_lines)
    names = (
        ["f_first", "spacing"]
        + [f"depth_{m + 1}" for m in range(n_lines)]
        + [f"width_{m + 1}" for m in range(n_lines)]
    )
    span = float(meas.frequencies[-1] - meas.frequencies[0])
    step = np.diff(meas.frequencies).min()  # the smallest sample spacing
    lower = np.array([-np.inf, 1e-9] + [1e-6] * n_lines)
    upper = np.array([np.inf, np.inf] + [span] * n_lines)
    bounds = (np.insert(lower, 2, [0.0] * n_lines), np.insert(upper, 2, [np.inf] * n_lines))
    q0 = np.clip([f_first, spacing] + [width] * n_lines, lower, upper)
    projected, point = _projected_problem(meas, n_lines)
    problem = _free_problem(meas, n_lines)

    def full(q: np.ndarray) -> np.ndarray:
        """The full problem's point at q and its projected depths; a line
        with a negative depth or a spike's width enters at depth 0 and its
        start width."""
        depths = point(q)[0]
        dropped = (depths < 0.0) | (q[2:] < step)
        widths = np.where(dropped, q0[2:], q[2:])
        return np.concatenate([q[:2], np.where(dropped, 0.0, depths), widths])

    start = full(q0)
    note = _no_lines(meas, float(np.sum(problem(start)[0] ** 2)), len(names))
    if note:
        start = lm_minimize(problem, start, bounds, names, max_iter=0)
        return replace(start, diagnostics=start.diagnostics + note)
    run = lm_minimize(projected, q0, (lower, upper), names[:2] + names[2 + n_lines :])
    polish = lm_minimize(problem, full(np.array(list(run.values.values()))), bounds, names)
    note = _no_lines(meas, polish.residual_norm**2 * meas.n_samples, len(names))
    widths = {n: polish.values[n] for n in names[2 + n_lines :]}
    narrow = [f"{n} = {w:.3g} MHz" for n, w in widths.items() if w < step]
    if narrow:
        note += ("line narrower than the sample spacing: " + ", ".join(narrow),)
    return replace(
        polish,
        iterations=run.iterations + polish.iterations,
        converged=polish.converged and not note,
        diagnostics=polish.diagnostics + note,
    )

