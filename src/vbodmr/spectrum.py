"""Analytic forward model of V_B ODMR spectra.

A defect configuration #n carries n 15N and (3 - n) 14N among its nearest
nitrogen sites. A nuclear product state shifts the secular transition by
branch * (M14 * a14 + M15 * a15), M14 and M15 being the sums of its 14N and
15N projections, so the states sharing (M14, M15) give one Lorentzian line:

    R_n(f) = 1 - C * sum_groups W(group) * L(f; f_line(group), dnu)

is the normalized photoluminescence ratio of configuration #n, with W the
summed populations of the group's states (1/N_level each when unpolarized).
An ensemble with 15N fraction p15 mixes the four configurations with
binomial weights P_n. Their 30 groups have 25 distinct keys (#2 shares (m, 0)
with #0, #3 shares (0, +-1/2) with #1): the mixture is one matrix product over
a line per key, weighted by sum_n P_n W_n(key), within 1.5 eps of a per-line
loop over each configuration. Lines that coincide for particular couplings
are not merged. The states come from ``constants``, not ``spin_core``."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    GAMMA_N14_KHZ_PER_MT, GAMMA_N15_KHZ_PER_MT, IsotopeSpecies, _label_table, _read_only
)

DEFAULT_GRID_POINTS = 801


@dataclass(frozen=True)
class LevelLadder:
    """Total nuclear projection values and degeneracies of configuration #n."""

    n15_count: int
    rungs: tuple[tuple[float, int], ...]  # (m_tot, degeneracy), ascending m_tot

    @property
    def n_level(self) -> int:
        return sum(g for _, g in self.rungs)

    @property
    def degeneracies(self) -> tuple[int, ...]:
        return tuple(g for _, g in self.rungs)

    @property
    def m_max(self) -> float:
        return self.rungs[-1][0]


def enumerate_ladder(n15_count: int) -> LevelLadder:
    """Ladder of m_I,tot values for n15_count 15N sites among the three: the
    states of configuration #n in the groups of ``_line_groups`` summed by
    m_tot = sum14 + sum15, so every line weight of W rests on these rungs."""
    if n15_count not in (0, 1, 2, 3):
        raise ValueError("n15_count must be 0..3")
    keys, counts = _line_groups()
    rows = np.flatnonzero(counts[:, n15_count])
    m_tot, rung = np.unique(keys[rows].sum(axis=1), return_inverse=True)
    degens = np.bincount(rung, weights=counts[rows, n15_count])
    return LevelLadder(n15_count, tuple((float(m), int(g)) for m, g in zip(m_tot, degens)))


@dataclass(frozen=True)
class Populations:
    """Per-state occupation weights keyed by m_tot.

    ``weights`` aligns with ``ladder.rungs`` and holds the occupation of each
    underlying nuclear product state, so the unpolarized case is 1/N_level
    everywhere and degeneracy * weight sums to 1.
    """

    ladder: LevelLadder
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        w = tuple(float(x) for x in self.weights)
        if len(w) != len(self.ladder.rungs):
            raise ValueError("one weight per ladder rung required")
        if not all(x >= 0 for x in w):
            raise ValueError("weights must be nonnegative")
        total = math.fsum(g * x for (_, g), x in zip(self.ladder.rungs, w))
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"degeneracy-weighted sum must be 1, got {total}")
        object.__setattr__(self, "weights", w)

    @classmethod
    def with_polarization(cls, ladder: LevelLadder, polarization: float) -> "Populations":
        """Weights linear in m_tot whose area polarization equals the target.

        With w(m) = (1 + kappa*m)/N_level the degeneracy-weighted areas give
        polarization kappa * sum(g m^2) / (N_level * m_max); kappa is solved
        from that. Only targets small enough to keep all weights nonnegative
        are representable.
        """
        n = ladder.n_level
        sum_gm2 = math.fsum(g * m * m for m, g in ladder.rungs)
        kappa = polarization * n * ladder.m_max / sum_gm2
        weights = tuple((1.0 + kappa * m) / n for m, _ in ladder.rungs)
        if not all(w >= 0 for w in weights):
            raise ValueError(f"polarization {polarization} not representable by a linear tilt")
        return cls(ladder, weights)


@dataclass(frozen=True)
class SpectrumModel:
    """Parameters of a forward ODMR curve.

    ``f_center`` is the bare resonance f_{branch,0} = D + branch*gamma_e*Bz in
    MHz; ``contrast`` the dip amplitude C; ``linewidth`` the Lorentzian FWHM
    in MHz; ``a14``/``a15`` the axial hyperfine couplings per species in MHz
    (sign conventions cancel for unpolarized spectra); ``p15`` the 15N
    fraction. ``populations`` optionally replaces the unpolarized weights per
    configuration, keyed by n15_count.
    """

    f_center: float
    contrast: float
    linewidth: float
    a14: float
    a15: float
    p15: float
    branch: int = -1
    populations: dict[int, Populations] | None = None

    def __post_init__(self) -> None:
        # contrast 0 is admitted as the degenerate no-signal limit
        if not 0.0 <= self.contrast < 1.0:
            raise ValueError("contrast must lie in [0, 1)")
        if not self.linewidth > 0.0:
            raise ValueError("linewidth must be positive")
        if not 0.0 <= self.p15 <= 1.0:
            raise ValueError("p15 must lie in [0, 1]")
        if self.branch not in (1, -1):
            raise ValueError("branch must be +1 or -1")
        for n, pops in (self.populations or {}).items():
            if n not in (0, 1, 2, 3) or pops.ladder != enumerate_ladder(n):
                raise ValueError(f"populations key {n!r}: not a configuration 0..3 with its ladder")


@dataclass(frozen=True)
class Curve:
    """Sampled spectrum: strictly increasing frequency grid and PL ratio."""

    frequencies: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        f = np.array(self.frequencies, dtype=float)
        v = np.array(self.values, dtype=float)
        if f.ndim != 1 or f.shape != v.shape:
            raise ValueError("frequencies and values must be 1-d arrays of equal length")
        if f.size == 0:
            raise ValueError("grid must be nonempty")
        if f.size > 1 and not np.all(np.diff(f) > 0):
            raise ValueError("frequency grid must be strictly increasing")
        object.__setattr__(self, "frequencies", _read_only(f))
        object.__setattr__(self, "values", _read_only(v))

    def to_csv(self, path, value_name: str = "ratio") -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"frequency_mhz,{value_name}\n")
            for f, v in zip(self.frequencies, self.values):
                fh.write(f"{float(f)!r},{float(v)!r}\n")


def default_grid(f_center: float, points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """801 points (unless overridden) over f_center +- 250 MHz; covers the
    outermost 15N lines (±96 MHz) with sub-MHz resolution."""
    return np.linspace(f_center - 250.0, f_center + 250.0, points)


def lorentzian(u, fwhm: float, out=None):
    """Unit-peak Lorentzian of the offsets u = f - f0: 1 at u = 0, 1/2 at
    u = +-fwhm/2. Computed in place in one array, returned: ``out`` when
    given, a float64 array of u's shape (a fit reuses its (lines x grid)
    buffers)."""
    if fwhm <= 0:
        raise ValueError("fwhm must be positive")
    half = 0.5 * fwhm
    g = half * half
    d = np.multiply(u, u, out=out, dtype=float)
    d += g
    return np.divide(g, d, out=d if isinstance(d, np.ndarray) else None)


@functools.lru_cache(maxsize=1)
def _line_groups() -> tuple[np.ndarray, np.ndarray]:
    """The nuclear product states of the four configurations (the label
    tables of ``constants``, 14N sites first) grouped by (sum of 14N, sum of
    15N projections), states that share a line position for any couplings:
    the 25 distinct sums (25, 2), ascending, and a (25, 4) matrix of the
    number of states of configuration #n in each group. Read-only."""
    states = np.array([
        (sum(m[: 3 - n]), sum(m[3 - n :]), n)
        for n in range(4)
        for m in _label_table((IsotopeSpecies.N14,) * (3 - n) + (IsotopeSpecies.N15,) * n)
    ])
    keys, row = np.unique(states[:, :2], axis=0, return_inverse=True)
    counts = np.zeros((len(keys), 4))
    np.add.at(counts, (row.reshape(-1), states[:, 2].astype(np.intp)), 1.0)
    return _read_only(keys), _read_only(counts)


@functools.lru_cache(maxsize=1)
def _unpolarized_table() -> np.ndarray:
    """``_line_table`` without populations. Read-only."""
    counts = _line_groups()[1]
    return _read_only(counts / counts.sum(axis=0))


def _line_table(populations: dict | None) -> np.ndarray:
    """The (25 x 4) weight matrix W of the lines of ``_line_groups``: column
    n holds configuration #n's weight of each group, its share of the states
    when unpolarized, otherwise its state count times the population of its
    m_tot rung, and 0 where #n has no states. W @ (P0, P1, P2, P3) weights
    every distinct line of a mixture; W depends on the populations only.
    Without populations it is the cached, read-only ``_unpolarized_table``."""
    if not populations:
        return _unpolarized_table()
    keys, counts = _line_groups()
    table = counts / counts.sum(axis=0)
    for n, pops in populations.items():
        rung = np.rint(keys.sum(axis=1) + pops.ladder.m_max).astype(np.intp)
        table[:, n] = counts[:, n] * np.take(pops.weights, rung, mode="clip")
    return table


def _positions(model, keys: np.ndarray) -> np.ndarray:
    """Line positions f_center + branch * (sum14 * a14 + sum15 * a15) of
    ``model``, a SpectrumModel or a fit's ``_Point``."""
    return model.f_center + model.branch * (keys[:, 0] * model.a14 + keys[:, 1] * model.a15)


def binomial_fractions(p15: float) -> tuple[float, float, float, float]:
    """Ensemble fractions (P0, P1, P2, P3) of configurations #0..#3 for a
    spatially uniform 15N fraction."""
    if not 0.0 <= p15 <= 1.0:
        raise ValueError("p15 must lie in [0, 1]")
    return _binomial(p15)[0]


def _binomial(p15: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The fractions P of ``binomial_fractions`` and dP/dp15, unchecked."""
    p, q = p15, 1.0 - p15
    fractions = (q**3, 3.0 * q**2 * p, 3.0 * q * p**2, p**3)
    return fractions, (-3.0 * q**2, 3.0 * q * (q - 2.0 * p), 3.0 * p * (2.0 * q - p), 3.0 * p**2)


def mixture_spectrum(model: SpectrumModel, grid) -> Curve:
    """Ensemble ODMR curve: binomial mixture of the four configurations,
    one product over their 25 distinct lines (``_line_pass``). It equals the
    fraction-weighted sum of per-configuration curves within 1.5 eps, not bit
    for bit."""
    plan = _line_plan(model, _line_table(model.populations))
    _, w, _, _, profiles = _line_pass(model, _grid_constants(grid, len(plan[0])), plan)
    return Curve(grid, 1.0 - model.contrast * (w @ profiles))


def _line_plan(model, table: np.ndarray, p15_column=False):
    """What a line pass needs besides positions, width and contrast: (keys, w,
    dw), w = W @ P and dw = W @ dP/dp15 for the line table W and the binomial
    fractions P of ``model.p15`` (a SpectrumModel or a fit's ``_Point``).
    Lines with w != 0 come first, in key order; with ``p15_column`` the
    lines with w = 0 and dw != 0 (at p15 = 0 or 1) follow them. Without
    ``p15_column``, the plans of the unpolarized table are cached read-only
    per p15: a fit at fixed p15 builds one."""
    if not p15_column and table is _unpolarized_table():
        return _unpolarized_plan(model.p15)
    return _plan(table, model.p15, p15_column)


@functools.lru_cache(maxsize=16)
def _unpolarized_plan(p15: float) -> tuple:
    return tuple(map(_read_only, _plan(_unpolarized_table(), p15)))


def _plan(table: np.ndarray, p15: float, p15_column=False) -> tuple:
    w, dw = (table @ np.array(weights) for weights in _binomial(p15))
    keys = _line_groups()[0]
    if np.count_nonzero(w) == w.size:  # every line on the curve, as inside 0 < p15 < 1
        return keys.copy(), w, dw
    rows = np.flatnonzero(w)
    if p15_column:
        rows = np.concatenate([rows, np.flatnonzero((w == 0.0) & (dw != 0.0))])
    return keys[rows], w[rows], dw[rows]


def _grid_constants(grid, lines: int) -> tuple:
    """What ``_offsets`` needs of ``grid``, built once per fit or call: [f; 1],
    the indices of the samples at zero and a (lines x 2) buffer of ones."""
    samples = np.ones((2, np.size(grid)))
    samples[0] = grid
    return samples, np.flatnonzero(samples[0] == 0.0), np.ones((lines, 2))


def _offsets(constants: tuple, positions, out=None):
    """The (lines x grid) offsets u = f - f_line on the grid of ``constants``
    (``_grid_constants``), into ``out`` when given: grid - positions[:, None]
    bit for bit, sign of zero included, as one (lines x 2) @ (2 x grid)
    product [1, -f_line] . [f; 1]. The product is exact: both terms of an
    entry have a factor 1.0, so it is the single rounding of f + (-f_line),
    the subtraction's own result, whatever the BLAS order or FMA. Only a
    zero's sign can differ, as BLAS sums from +0.0 (a sample at -0.0 on a
    line at +0.0 gives +0.0), so samples at zero are subtracted afresh."""
    samples, zero, factors = constants
    factors = factors[: positions.size]
    np.negative(positions, out=factors[:, 1])
    u = np.matmul(factors, samples, out=out)
    if zero.size:
        u[:, zero] = samples[0, zero] - positions[:, None]
    return u


def _line_pass(model, constants: tuple, plan: tuple, out=None):
    """The lines of ``plan`` (``_line_plan``) for ``model``, (keys, w, dw, u,
    L): their offsets u = f - f_line (``_offsets`` on the grid
    ``constants``, an exact product) and profiles L = ``lorentzian(u,
    FWHM)``, one call, into the (2, lines, grid) ``out`` when given. The
    curve 1 - C * (w @ L) sums the lines with w != 0, which come first: one
    product over at most 25 lines, within 1.5 eps of a per-configuration,
    per-line sum. ``model`` is a SpectrumModel or a fit's ``_Point`` of the
    same numbers."""
    keys, w, dw = plan
    u, profiles = (None, None) if out is None else out
    u = _offsets(constants, _positions(model, keys), out=u)
    return keys, w, dw, u, lorentzian(u, model.linewidth, out=profiles)


# row order of _model_jacobian
_JACOBIAN_PARAMS = ("contrast", "p15", "f_center", "a14", "a15", "linewidth")


def _jacobian_rows(b: int, keys: np.ndarray, w: np.ndarray, out=None) -> np.ndarray:
    """Rows -w, -C dw (each _model_jacobian call writes it), w, b M14 w, b M15 w; b the branch;
    into the first len(w) columns of the (5 x lines) ``out`` when given."""
    coef = np.empty((5, w.size)) if out is None else out[:, : w.size]
    np.negative(w, out=coef[0])
    coef[2] = w
    np.multiply(b * keys, w[:, None], out=coef[3:].T)
    return coef


def _model_jacobian(model, lines: tuple, coef: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Closed-form derivatives of mixture_spectrum(model, grid), one row per
    parameter of _JACOBIAN_PARAMS, from ``lines``, the ``_line_pass`` of the
    binomial fractions of ``model`` (a SpectrumModel or a fit's ``_Point``)
    on the grid, with its coefficient rows ``coef`` (``_jacobian_rows``, row 1
    rewritten) and the (lines x grid) scratch ``out``.

    Each line is weighted by the pass's w, in the p15 row by its dw (every
    line p15 moves only if the plan had ``p15_column``). With the pass's
    offsets u = f - f_line, g = (FWHM/2)^2 and its L = g / (u^2 + g),
    dL/df_line = 2 u L^2 / g and dL/dFWHM = 2 (L - L^2) / FWHM: L^2, then
    u L^2 in the scratch, and three small matrix products give the six rows.
    It reads u and L and writes neither, so a second call returns the same
    rows; it evaluates no Lorentzian and no offsets of its own, so a traced
    fit counts one ``lorentzian`` call per residual, none per Jacobian.
    """
    _, w, dw, u, profiles = lines
    sq = np.multiply(profiles, profiles, out=out)
    c, fwhm = model.contrast, model.linewidth
    half = 0.5 * fwhm
    g = half * half  # as in lorentzian, bit for bit
    jac = np.empty((6, u.shape[1]))
    np.multiply(dw, -c, out=coef[1])
    np.matmul(coef[:2], profiles, out=jac[0:2])
    # the L - L^2 row from the weighted sums of L (the contrast row) and L^2
    np.matmul((2.0 * c / fwhm) * w, sq, out=jac[5])
    jac[5] += (2.0 / fwhm) * c * jac[0]
    sq *= u  # u L^2
    np.matmul((-2.0 * c / g) * coef[2:], sq, out=jac[2:5])
    return jac


def predict_a15_from_a14(a14_mhz: float) -> float:
    """Axial 15N coupling expected from the 14N one via the gyromagnetic
    ratio; the magnitude grows by |gamma_15N / gamma_14N| = 1.4027 and the
    sign flips."""
    return a14_mhz * (GAMMA_N15_KHZ_PER_MT / GAMMA_N14_KHZ_PER_MT)
