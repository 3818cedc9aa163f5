"""Nonlinear least-squares estimation of spectrum parameters.

Three fit families are provided on top of a small Levenberg-Marquardt core:

* ``fit_physical`` - the constrained mixture model (binomial combination of
  the four defect configurations); the hyperfine couplings are fitted signed
  and reported as magnitudes, with a closed-form Jacobian,
* ``fit_free_lorentzians`` - n equally spaced Lorentzians with independent
  depths and widths, used for line-area and polarization analysis,
* ``fit_pl_saturation`` - the photoluminescence saturation curve
  I(P) = I_max * P / (P + P_sat).

The LM core respects box bounds with a projected step: a parameter on a
bound whose gradient points out of the box is held for that iteration, left
out of the step and of the gradient convergence test. A fit that ends with
a parameter held says so in its diagnostics ("held at bound: ...").
The Jacobian is a caller's closed form where one is passed (the physical
model) and forward finite differences otherwise (free Lorentzians, PL
saturation).

Uncertainties are 1-sigma values from the scaled covariance
sigma^2 (J^T J)^-1 with sigma^2 = SSR / (N - k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .spectrum import (
    _JACOBIAN_PARAMS,
    SpectrumModel,
    _model_jacobian,
    lorentzian,
    mixture_spectrum,
)
from .constants import A14_DEFAULT_MHZ, A15_DEFAULT_MHZ

LM_COST_RTOL = 1e-10
LM_GRAD_ATOL = 1e-10
LM_MAX_ITER = 500
# Condition threshold of J^T J beyond which parameters count as degenerate.
DEGENERATE_COND = 1e12
# A fitted coupling below this magnitude sits on the symmetry plane a = 0;
# fit_physical then refits once from the default couplings.
_COUPLING_RESTART_MHZ = 1e-3
_COUPLING_DEFAULTS = {"a14": A14_DEFAULT_MHZ, "a15": abs(A15_DEFAULT_MHZ)}


@dataclass(frozen=True)
class MeasuredSpectrum:
    """Ingested ODMR samples: (frequency MHz, PL ratio, optional sigma)."""

    frequencies: np.ndarray
    ratios: np.ndarray
    sigmas: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        f = np.array(self.frequencies, dtype=float)
        r = np.array(self.ratios, dtype=float)
        if f.ndim != 1 or f.shape != r.shape:
            raise ValueError("frequencies and ratios must be 1-d arrays of equal length")
        if f.size < 8:
            raise ValueError(f"insufficient samples: need >= 8, got {f.size}")
        order = np.argsort(f, kind="stable")
        f = f[order]
        r = r[order]
        s = self.sigmas
        if s is not None:
            s = np.array(s, dtype=float)[order]
            if np.any(s <= 0):
                raise ValueError("sigma values must be positive")
            s.setflags(write=False)
        if np.any(np.diff(f) <= 0):
            raise ValueError("frequencies must be distinct")
        f.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "ratios", r)
        object.__setattr__(self, "sigmas", s)

    @property
    def n_samples(self) -> int:
        return int(self.frequencies.size)


@dataclass(frozen=True)
class FreeLorentzianModel:
    """n equally spaced dips with shared spacing, free depths and widths."""

    n_lines: int
    f_first: float
    spacing: float
    depths: tuple[float, ...]
    widths: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.n_lines < 1:
            raise ValueError("need at least one line")
        if self.spacing <= 0 and self.n_lines > 1:
            raise ValueError("spacing must be positive")
        if len(self.depths) != self.n_lines or len(self.widths) != self.n_lines:
            raise ValueError("one depth and one width per line required")
        if any(c < 0 for c in self.depths):
            raise ValueError("depths must be nonnegative")
        if any(w <= 0 for w in self.widths):
            raise ValueError("widths must be positive")

    @property
    def centers(self) -> tuple[float, ...]:
        return tuple(self.f_first + k * self.spacing for k in range(self.n_lines))

    def evaluate(self, f) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        out = np.ones_like(f)
        for center, depth, width in zip(self.centers, self.depths, self.widths):
            out = out - depth * lorentzian(f, center, width)
        return out

    @property
    def areas(self) -> tuple[float, ...]:
        """Per-line area proxy: depth times width (constant factors cancel
        in the polarization ratio)."""
        return tuple(c * w for c, w in zip(self.depths, self.widths))


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

    def __getitem__(self, name: str) -> float:
        return self.values[name]

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


def _forward_jacobian(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    p: np.ndarray,
    r0: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> np.ndarray:
    jac = np.empty((r0.size, p.size))
    for i in range(p.size):
        h = max(1e-6 * abs(p[i]), 1e-8)
        if p[i] + h > upper[i]:  # step inward at an active upper bound
            h = -h
        q = p.copy()
        q[i] += h
        if q[i] < lower[i]:  # box narrower than h: probe up to its wider side
            q[i] = upper[i] if upper[i] - p[i] >= p[i] - lower[i] else lower[i]
            h = q[i] - p[i]
            if h == 0.0:  # zero-width box: the parameter cannot move
                jac[:, i] = 0.0
                continue
        jac[:, i] = (residual_fn(q) - r0) / h
    return jac


def _held(p: np.ndarray, grad: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Mask of parameters on a bound whose descent direction -grad points
    out of the box."""
    return ((p <= lower) & (grad > 0)) | ((p >= upper) & (grad < 0))


def lm_minimize(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    init_params: Sequence[float],
    bounds: tuple[Sequence[float], Sequence[float]] | None = None,
    names: Sequence[str] | None = None,
    max_iter: int = LM_MAX_ITER,
    cost_rtol: float = LM_COST_RTOL,
    grad_atol: float = LM_GRAD_ATOL,
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None,
) -> FitResult:
    """Levenberg-Marquardt minimization of sum(residual^2).

    ``jacobian``, when given, maps the parameters to the (n_residuals, k)
    Jacobian of ``residual_fn``. Otherwise the Jacobian comes from forward
    finite differences with per-parameter step max(1e-6 |p|, 1e-8), taken
    inward at an upper bound; no probe leaves the box, and a parameter in a
    zero-width box gets a zero column. The damping factor scales the
    diagonal of J^T J; accepted steps shrink it, rejected steps grow it.

    The step is projected onto the bounds. Each iteration, a parameter is
    *held* when it sits on its lower bound with gradient (J^T r)_i > 0, or
    on its upper bound with (J^T r)_i < 0, so that descent would leave the
    box. Held parameters keep a zero step; the damped system is solved on
    the sub-block of the free ones. With nothing held this is the plain LM
    step. Convergence is declared when the relative cost change of an
    accepted step falls below ``cost_rtol`` or the infinity norm of the
    free parameters' gradient (the projected gradient) falls below
    ``grad_atol``, so a minimum on a bound converges. Trial points are
    clipped to the bounds. A parameter still held at the final iterate is
    named in a ``held at bound`` diagnostic: there ``converged`` means a
    minimum constrained by that bound. After ``max_iter`` iterations the
    partial result is returned with ``converged`` False.
    """
    p = np.array(init_params, dtype=float)
    k = p.size
    if names is None:
        names = tuple(f"p{i}" for i in range(k))
    names = tuple(names)
    if bounds is None:
        lower = np.full(k, -np.inf)
        upper = np.full(k, np.inf)
    else:
        lower = np.array(bounds[0], dtype=float)
        upper = np.array(bounds[1], dtype=float)
    if np.any(p < lower) or np.any(p > upper):
        raise ValueError("initial parameters violate the bounds")

    r = np.asarray(residual_fn(p), dtype=float)
    if not np.all(np.isfinite(r)):
        raise ValueError("residual function is not finite at the initial point")
    cost = float(r @ r)
    n_obs = r.size

    def jacobian_at(p: np.ndarray, r: np.ndarray) -> np.ndarray:
        if jacobian is not None:
            return jacobian(p)
        return _forward_jacobian(residual_fn, p, r, lower, upper)

    lam = 1e-3
    converged = False
    iterations = 0
    jac = jacobian_at(p, r)
    for iterations in range(1, max_iter + 1):
        grad = jac.T @ r
        free = ~_held(p, grad, lower, upper)
        if float(np.abs(grad[free]).max(initial=0.0)) < grad_atol:
            converged = True
            break
        jtj = jac.T @ jac
        diag = np.diag(jtj).copy()
        diag[diag <= 0] = max(diag.max(initial=0.0), 1.0) * 1e-12
        jtj_free = jtj[np.ix_(free, free)]
        step = np.zeros(k)  # held parameters keep a zero step
        accepted = False
        while lam < 1e14:
            try:
                step[free] = np.linalg.solve(jtj_free + lam * np.diag(diag[free]), -grad[free])
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = np.clip(p + step, lower, upper)
            r_trial = np.asarray(residual_fn(trial), dtype=float)
            if np.all(np.isfinite(r_trial)):
                cost_trial = float(r_trial @ r_trial)
                if cost_trial < cost:
                    rel_drop = (cost - cost_trial) / max(cost, 1e-300)
                    p, r, cost = trial, r_trial, cost_trial
                    lam = max(lam / 10.0, 1e-12)
                    accepted = True
                    if rel_drop < cost_rtol or cost == 0.0:
                        converged = True
                    break
            lam *= 10.0
        if not accepted:
            converged = True  # no descent direction left at max damping
            break
        jac = jacobian_at(p, r)
        if converged:
            break

    diagnostics: list[str] = []
    held = np.flatnonzero(_held(p, jac.T @ r, lower, upper))
    if held.size:
        diagnostics.append(
            "held at bound: "
            + ", ".join(f"{names[i]} = {p[i]:g}" for i in held)
            + " (gradient points outward)"
        )
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
    dof = max(n_obs - k, 1)
    sigma2 = cost / dof
    covariance = sigma2 * cov_unscaled
    covariance = (covariance + covariance.T) / 2.0
    sigmas = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
    np.fill_diagonal(covariance, sigmas**2)

    return FitResult(
        names=names,
        values={n: float(v) for n, v in zip(names, p)},
        sigmas={n: float(s) for n, s in zip(names, sigmas)},
        covariance=covariance,
        residual_norm=math.sqrt(cost / n_obs),
        iterations=iterations,
        converged=converged,
        diagnostics=tuple(diagnostics),
    )


# --- physical model fit ------------------------------------------------------


def initial_physical_guess(
    meas: MeasuredSpectrum,
    p15: float,
    branch: int = -1,
    a14_mhz: float = A14_DEFAULT_MHZ,
    a15_mhz: float = abs(A15_DEFAULT_MHZ),
) -> SpectrumModel:
    """Heuristic starting point: center from the depression centroid,
    contrast from the deepest sample, linewidth from the width of the region
    below half depth, couplings from their default values."""
    f = meas.frequencies
    r = meas.ratios
    depth = np.clip(1.0 - r, 0.0, None)
    contrast = float(min(max(depth.max(), 1e-3), 0.999))
    if depth.sum() > 0:
        f_center = float((f * depth).sum() / depth.sum())
    else:
        f_center = float(f[np.argmin(r)])
    below = f[r < 1.0 - contrast / 2.0]
    if below.size >= 2:
        linewidth = float(max(below.max() - below.min(), 1.0))
    else:
        linewidth = float((f[-1] - f[0]) / 10.0)
    return SpectrumModel(
        f_center=f_center,
        contrast=contrast,
        linewidth=linewidth,
        a14=abs(a14_mhz),
        a15=abs(a15_mhz),
        p15=p15,
        branch=branch,
    )


def _physical_problem(
    meas: MeasuredSpectrum,
    init: SpectrumModel,
    active: Sequence[str],
) -> tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """Residual and closed-form Jacobian of the physical model over the
    ``active`` parameters; the others keep their ``init`` values. Both are
    weighted by 1/sigma when the spectrum carries sigmas."""
    y = meas.ratios
    weights = 1.0 / meas.sigmas if meas.sigmas is not None else None
    grid = meas.frequencies
    rows = [_JACOBIAN_PARAMS.index(name) for name in active]
    p15_column = "p15" in active

    def model_at(p: np.ndarray) -> SpectrumModel:
        return replace(init, **dict(zip(active, p)))

    def residual(p: np.ndarray) -> np.ndarray:
        res = mixture_spectrum(model_at(p), grid).values - y
        return res * weights if weights is not None else res

    def jacobian(p: np.ndarray) -> np.ndarray:
        jac = _model_jacobian(model_at(p), grid, p15_column)[rows].T
        return jac * weights[:, None] if weights is not None else jac

    return residual, jacobian


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


def fit_physical(
    meas: MeasuredSpectrum,
    init: SpectrumModel | None = None,
    p15_mode: tuple[str, float] | str = ("fixed", 0.0),
    freeze: Sequence[str] = (),
) -> FitResult:
    """Fit the constrained physical model to a measured spectrum.

    ``p15_mode`` is ("fixed", value) or "free". ``freeze`` names
    parameters held at their init value.

    The hyperfine couplings start from the magnitudes of ``init.a14`` and
    ``init.a15`` and are fitted on the whole real line: the unpolarized
    model is even in each of them, so a bound at 0 would hold a coupling on
    the saddle a = 0, where its gradient vanishes. They are reported as
    magnitudes (the sign cannot be determined from an unpolarized
    spectrum), with their covariance rows and columns flipped to match. The
    Jacobian is closed-form (``spectrum._model_jacobian``), not finite
    differences. When an active coupling ends below 1e-3 MHz in magnitude
    (on the symmetry plane, usually with a too-wide linewidth), the fit is
    run once more from the same start with the active couplings at their
    default magnitudes; the lower cost is kept and a "coupling restart"
    diagnostic says which fit that was. When a free p15 ends at 0 or 1, the
    coupling of the absent species is reported with sigma inf and an
    "undetermined" diagnostic.
    """
    if isinstance(p15_mode, str):
        if p15_mode != "free":
            raise ValueError("p15_mode must be ('fixed', value) or 'free'")
        p15_free = True
        p15_fixed = None
    else:
        mode, value = p15_mode
        if mode != "fixed":
            raise ValueError("p15_mode must be ('fixed', value) or 'free'")
        p15_free = False
        p15_fixed = float(value)

    if init is None:
        init = initial_physical_guess(meas, p15_fixed if p15_fixed is not None else 0.5)

    frozen = set(freeze)
    active: list[str] = ["f_center", "contrast", "linewidth"]
    p15_init = init.p15 if p15_free else p15_fixed
    if p15_free or 0.0 < p15_fixed < 1.0:
        active += ["a14", "a15"]
    elif p15_fixed == 0.0:
        active += ["a14"]
    else:
        active += ["a15"]
    if p15_free:
        active.append("p15")
    active = [name for name in active if name not in frozen]
    if not active:
        raise ValueError("all parameters frozen; nothing to fit")

    init = replace(init, a14=abs(init.a14), a15=abs(init.a15), p15=p15_init)
    residual, jacobian = _physical_problem(meas, init, active)
    bounds_table = {
        "f_center": (-np.inf, np.inf),
        "contrast": (1e-6, 0.999999),
        "linewidth": (1e-6, np.inf),
        "a14": (-np.inf, np.inf),
        "a15": (-np.inf, np.inf),
        "p15": (0.0, 1.0),
    }
    bounds = ([bounds_table[n][0] for n in active], [bounds_table[n][1] for n in active])
    p0 = [getattr(init, n) for n in active]
    result = lm_minimize(residual, p0, bounds=bounds, names=active, jacobian=jacobian)

    stuck = [n for n in ("a14", "a15") if n in active and abs(result[n]) < _COUPLING_RESTART_MHZ]
    p1 = [_COUPLING_DEFAULTS.get(n, v) for n, v in zip(active, p0)]
    if stuck and p1 != p0:
        retry = lm_minimize(residual, p1, bounds=bounds, names=active, jacobian=jacobian)
        kept = "restart" if retry.residual_norm < result.residual_norm else "first fit"
        note = (
            f"coupling restart: {', '.join(stuck)} ended below {_COUPLING_RESTART_MHZ:g} MHz;"
            f" refitted from the default couplings, kept the {kept}"
            f" (rms {result.residual_norm:.4g} -> {retry.residual_norm:.4g})"
        )
        result = retry if kept == "restart" else result
        result = replace(result, diagnostics=result.diagnostics + (note,))
    return _as_magnitudes(result)


# --- free equally spaced Lorentzians ----------------------------------------


def initial_free_guess(meas: MeasuredSpectrum, n_lines: int) -> FreeLorentzianModel:
    """Spread the lines over the observed depression."""
    f = meas.frequencies
    r = meas.ratios
    depth = np.clip(1.0 - r, 0.0, None)
    dip = float(max(depth.max(), 1e-3))
    if depth.sum() > 0:
        center = float((f * depth).sum() / depth.sum())
    else:
        center = float(0.5 * (f[0] + f[-1]))
    span = float(f[-1] - f[0])
    spacing = span / max(2 * n_lines, 4)
    f_first = center - 0.5 * (n_lines - 1) * spacing
    width = max(spacing / 2.0, span / 50.0)
    return FreeLorentzianModel(
        n_lines=n_lines,
        f_first=f_first,
        spacing=spacing,
        depths=tuple(dip / 2.0 for _ in range(n_lines)),
        widths=tuple(width for _ in range(n_lines)),
    )


def _free_model_from_params(n_lines: int, p: np.ndarray) -> FreeLorentzianModel:
    return FreeLorentzianModel(
        n_lines=n_lines,
        f_first=float(p[0]),
        spacing=float(p[1]),
        depths=tuple(float(x) for x in p[2 : 2 + n_lines]),
        widths=tuple(float(x) for x in p[2 + n_lines :]),
    )


def fit_free_lorentzians(
    meas: MeasuredSpectrum,
    n_lines: int,
    init: FreeLorentzianModel | None = None,
    n_starts: int = 5,
    seed: int = 0,
) -> FitResult:
    """Fit n equally spaced Lorentzians with free depths and widths.

    Runs a small seeded multi-start (perturbed copies of the initial guess)
    and keeps the lowest-cost solution. The positive-spacing bound keeps the
    reported lines ordered by center frequency. The 2 + 2 n parameters may
    not outnumber the samples.
    """
    if n_lines < 1:
        raise ValueError("n_lines must be >= 1")
    if 2 + 2 * n_lines > meas.n_samples:
        raise ValueError(
            f"{n_lines} free Lorentzians have {2 + 2 * n_lines} parameters,"
            f" more than the {meas.n_samples} samples"
        )
    if init is None:
        init = initial_free_guess(meas, n_lines)
    if init.n_lines != n_lines:
        raise ValueError("init.n_lines does not match n_lines")

    names = (
        ["f_first", "spacing"]
        + [f"depth_{m + 1}" for m in range(n_lines)]
        + [f"width_{m + 1}" for m in range(n_lines)]
    )
    lower = [-np.inf, 1e-9] + [0.0] * n_lines + [1e-6] * n_lines
    upper = [np.inf] * len(names)

    y = meas.ratios
    weights = 1.0 / meas.sigmas if meas.sigmas is not None else None
    grid = meas.frequencies

    def residual(p: np.ndarray) -> np.ndarray:
        model = _free_model_from_params(n_lines, p)
        res = model.evaluate(grid) - y
        return res * weights if weights is not None else res

    p_init = np.array(
        [init.f_first, init.spacing] + list(init.depths) + list(init.widths)
    )
    rng = np.random.default_rng(seed)
    best: FitResult | None = None
    for start in range(max(n_starts, 1)):
        p0 = p_init.copy()
        if start > 0:
            p0[0] += rng.normal(0.0, 0.2) * max(init.spacing, 1.0)
            p0[1] *= math.exp(rng.normal(0.0, 0.2))
            p0[2 : 2 + n_lines] *= np.exp(rng.normal(0.0, 0.3, n_lines))
            p0[2 + n_lines :] *= np.exp(rng.normal(0.0, 0.3, n_lines))
            p0 = np.clip(p0, lower, upper)
        result = lm_minimize(residual, p0, bounds=(lower, upper), names=names)
        if best is None or result.residual_norm < best.residual_norm:
            best = result
    return best


def free_model_from_result(result: FitResult, n_lines: int) -> FreeLorentzianModel:
    """Materialize the fitted line set from a free-Lorentzian fit result."""
    p = [result.values["f_first"], result.values["spacing"]]
    p += [result.values[f"depth_{m + 1}"] for m in range(n_lines)]
    p += [result.values[f"width_{m + 1}"] for m in range(n_lines)]
    return _free_model_from_params(n_lines, np.array(p))


# --- photoluminescence saturation --------------------------------------------


def fit_pl_saturation(points: Sequence[tuple[float, float]]) -> FitResult:
    """Fit I(P) = I_max * P / (P + P_sat) to (laser power, PL intensity) data."""
    pts = [(float(p), float(i)) for p, i in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    powers = np.array([p for p, _ in pts])
    intensities = np.array([i for _, i in pts])
    if np.any(powers <= 0) or len(set(powers.tolist())) != len(pts):
        raise ValueError("powers must be positive and distinct")

    def residual(p: np.ndarray) -> np.ndarray:
        i_max, p_sat = p
        return i_max * powers / (powers + p_sat) - intensities

    i_max0 = 2.0 * float(intensities.max())
    p_sat0 = float(np.median(powers))
    result = lm_minimize(
        residual,
        [i_max0, p_sat0],
        bounds=([1e-12, 1e-12], [np.inf, np.inf]),
        names=("i_max", "p_sat"),
    )
    if result.values["p_sat"] > 50.0 * powers.max():
        result.diagnostics = result.diagnostics + (
            "saturation not reached: i_max and p_sat identifiable only jointly",
        )
    return result
