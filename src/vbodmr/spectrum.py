"""Analytic forward model of V_B ODMR spectra.

A defect configuration #n carries n 15N and (3 - n) 14N among its nearest
nitrogen sites. Each nuclear product state contributes one Lorentzian dip at
the secular transition frequency; the normalized photoluminescence ratio of
configuration #n is

    R_n(f) = 1 - C * sum_states w(state) * L(f; f_line(state), dnu)

with w = 1/N_level when the nuclear spins are unpolarized. An ensemble with
15N fraction p15 mixes the four configurations with binomial weights.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import GAMMA_N14_KHZ_PER_MT, GAMMA_N15_KHZ_PER_MT
from .spin_core import IsotopeSpecies, _label_table

# Line positions closer than this merge into a single Lorentzian.
POSITION_MERGE_TOL_MHZ = 1e-9

DEFAULT_GRID_POINTS = 801
DEFAULT_GRID_SPAN_MHZ = 250.0


@dataclass(frozen=True)
class LevelLadder:
    """Total nuclear projection values and degeneracies of configuration #n."""

    n15_count: int
    rungs: tuple[tuple[float, int], ...]  # (m_tot, degeneracy), ascending m_tot

    @property
    def n_level(self) -> int:
        return sum(g for _, g in self.rungs)

    @property
    def m_values(self) -> tuple[float, ...]:
        return tuple(m for m, _ in self.rungs)

    @property
    def degeneracies(self) -> tuple[int, ...]:
        return tuple(g for _, g in self.rungs)

    @property
    def m_max(self) -> float:
        return self.rungs[-1][0]

    def degeneracy_of(self, m_tot: float) -> int:
        for m, g in self.rungs:
            if m == m_tot:
                return g
        raise KeyError(f"m_tot {m_tot} not on the ladder")


def enumerate_ladder(n15_count: int) -> LevelLadder:
    """Ladder of m_I,tot values for n15_count 15N sites among the three.

    Degeneracies come from the discrete convolution of the per-site
    multiplicity vectors: (1, 1, 1) over m = -1, 0, +1 for each 14N and
    (1, 1) over m = -1/2, +1/2 for each 15N.
    """
    if n15_count not in (0, 1, 2, 3):
        raise ValueError("n15_count must be 0..3")
    degens = np.array([1])
    for _ in range(3 - n15_count):
        degens = np.convolve(degens, np.ones(3, dtype=int))
    for _ in range(n15_count):
        degens = np.convolve(degens, np.ones(2, dtype=int))
    m_min = -(3 - n15_count) - n15_count / 2.0
    rungs = tuple((m_min + k, int(g)) for k, g in enumerate(degens))
    return LevelLadder(n15_count, rungs)


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
        if any(x < 0 for x in w):
            raise ValueError("weights must be nonnegative")
        total = math.fsum(g * x for (_, g), x in zip(self.ladder.rungs, w))
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"degeneracy-weighted sum must be 1, got {total}")
        object.__setattr__(self, "weights", w)

    @classmethod
    def unpolarized(cls, ladder: LevelLadder) -> "Populations":
        n = ladder.n_level
        return cls(ladder, tuple(1.0 / n for _ in ladder.rungs))

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
        if any(w < 0 for w in weights):
            raise ValueError(f"polarization {polarization} not representable by a linear tilt")
        return cls(ladder, weights)

    @property
    def polarization(self) -> float:
        num = math.fsum(m * g * w for (m, g), w in zip(self.ladder.rungs, self.weights))
        den = self.ladder.m_max * math.fsum(
            g * w for (_, g), w in zip(self.ladder.rungs, self.weights)
        )
        return num / den


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
        if self.linewidth <= 0.0:
            raise ValueError("linewidth must be positive")
        if not 0.0 <= self.p15 <= 1.0:
            raise ValueError("p15 must lie in [0, 1]")
        if self.branch not in (1, -1):
            raise ValueError("branch must be +1 or -1")


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
        f.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "values", v)

    def to_csv(self, path, value_name: str = "ratio") -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"frequency_mhz,{value_name}\n")
            for f, v in zip(self.frequencies, self.values):
                fh.write(f"{float(f)!r},{float(v)!r}\n")


def default_grid(
    f_center: float,
    span_mhz: float = DEFAULT_GRID_SPAN_MHZ,
    points: int = DEFAULT_GRID_POINTS,
) -> np.ndarray:
    """801 points over f_center +- 250 MHz unless overridden; covers the
    outermost 15N lines (±96 MHz) with sub-MHz resolution."""
    return np.linspace(f_center - span_mhz, f_center + span_mhz, points)


def lorentzian(f, f0, fwhm: float):
    """Unit-peak Lorentzian: 1 at f0, 1/2 at f0 +- fwhm/2; f and f0 broadcast."""
    if fwhm <= 0:
        raise ValueError("fwhm must be positive")
    half = 0.5 * fwhm
    g = half * half
    # one array updated in place: a (lines x grid) temporary is large enough
    # that each extra one costs fresh pages from the allocator
    d = np.asarray(f, dtype=float) - f0
    d *= d
    d += g
    return np.divide(g, d, out=d if isinstance(d, np.ndarray) else None)


@functools.lru_cache(maxsize=4)
def _product_table(n15_count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-site projections (N, 3; 14N sites first), 15N site mask (3,) and
    m_tot ladder index (N,) of every nuclear product state of configuration
    #n, from the label table of ``spin_core``; read-only, built once per n."""
    ladder = enumerate_ladder(n15_count)
    species = (IsotopeSpecies.N14,) * (3 - n15_count) + (IsotopeSpecies.N15,) * n15_count
    labels = np.array(_label_table(species))
    is_n15 = np.array([s is IsotopeSpecies.N15 for s in species])
    rung = np.rint(labels.sum(axis=1) - ladder.m_values[0]).astype(np.intp)
    for a in (labels, is_n15, rung):
        a.setflags(write=False)
    return labels, is_n15, rung


@functools.lru_cache(maxsize=4)
def _product_groups(n15_count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The product states of configuration #n grouped by (sum of 14N
    projections, sum of 15N projections): the two sums (G, 2), the m_tot
    ladder index (G,) and the number of states (G,) of each group; states of
    one group share a line position for any couplings. Read-only, built once
    per n."""
    labels, is_n15, rung = _product_table(n15_count)
    sums = np.stack([labels[:, ~is_n15].sum(axis=1), labels[:, is_n15].sum(axis=1)], axis=1)
    keys, first, counts = np.unique(sums, axis=0, return_index=True, return_counts=True)
    groups = (keys, rung[first], counts.astype(float))
    for a in groups:
        a.setflags(write=False)
    return groups


def _merge_lines(positions: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge lines within POSITION_MERGE_TOL_MHZ of the lowest line of their
    group, in one pass over the stably sorted lines; the merged line keeps
    that position and adds the group's weights one at a time in ascending
    position order. (Within a group every gap is within the tolerance too.)"""
    order = np.argsort(positions, kind="stable")
    merged_pos, merged_w = [], []
    for p, w in zip(positions[order].tolist(), weights[order].tolist()):
        if merged_pos and p - merged_pos[-1] <= POSITION_MERGE_TOL_MHZ:
            merged_w[-1] += w
        else:
            merged_pos.append(p)
            merged_w.append(w)
    return np.array(merged_pos), np.array(merged_w)


def config_lines(model: SpectrumModel, n15_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Line positions and total weights of configuration #n.

    Each nuclear product state gives a line at its secular shift with
    species-specific couplings, weighted by its population (1/N_level when
    unpolarized); coinciding lines merge, so unpolarized weights sum to 1.
    """
    if n15_count not in (0, 1, 2, 3):
        raise ValueError("n15_count must be 0..3")
    pops = (model.populations or {}).get(n15_count)
    if pops is not None and pops.ladder.n15_count != n15_count:
        raise ValueError("populations ladder does not match the configuration")
    labels, is_n15, rung = _product_table(n15_count)
    a_site = np.where(is_n15, model.a15, model.a14)
    positions = model.f_center + model.branch * (labels * a_site).sum(axis=1)
    weights = np.full(len(rung), 1.0 / len(rung)) if pops is None else np.array(pops.weights)[rung]
    return _merge_lines(positions, weights)


def config_spectrum(model: SpectrumModel, n15_count: int, grid) -> Curve:
    """ODMR curve of a single defect configuration on the given grid."""
    if n15_count not in (0, 1, 2, 3):
        raise ValueError("n15_count must be 0..3")
    # fraction 1 of one configuration: 0.0 + 1.0 * x == x, bit for bit
    return _stacked_spectrum(model, grid, tuple(float(n == n15_count) for n in range(4)))


def binomial_fractions(p15: float) -> tuple[float, float, float, float]:
    """Ensemble fractions (P0, P1, P2, P3) of configurations #0..#3 for a
    spatially uniform 15N fraction."""
    if not 0.0 <= p15 <= 1.0:
        raise ValueError("p15 must lie in [0, 1]")
    return _binomial(p15)


def _binomial(p15: float) -> tuple[float, float, float, float]:
    q = 1.0 - p15
    return (q**3, 3.0 * q**2 * p15, 3.0 * q * p15**2, p15**3)


def _present_lines(
    model: SpectrumModel, config_fractions: tuple[float, ...]
) -> tuple[list[float], np.ndarray, np.ndarray, np.ndarray]:
    """Merged lines of every configuration with a nonzero fraction, stacked
    in configuration order: (fractions, positions, weights, bounds), where
    the k-th present configuration owns rows bounds[k]:bounds[k + 1]."""
    fractions, positions, weights = [], [], []
    for n, frac in enumerate(config_fractions):
        if frac != 0.0:
            pos, w = config_lines(model, n)
            fractions.append(frac)
            positions.append(pos)
            weights.append(w)
    bounds = np.cumsum([0] + [len(pos) for pos in positions])
    return fractions, np.concatenate(positions), np.concatenate(weights), bounds


def mixture_spectrum(model: SpectrumModel, grid) -> Curve:
    """Ensemble ODMR curve: binomial mixture of the four configurations.

    Every value equals the sum of frac * config_spectrum bit for bit.
    """
    return _stacked_spectrum(model, grid, binomial_fractions(model.p15))


def _stacked_spectrum(model: SpectrumModel, grid, config_fractions: tuple[float, ...]) -> Curve:
    """Curve of the configurations mixed by ``config_fractions``.

    The weighted Lorentzians of all present configurations are one
    (lines x grid) array; each configuration's rows are summed on their own.
    On two or more grid points NumPy adds the rows one after another, in
    line order; a one-point grid of 8+ lines is summed pairwise instead.
    """
    grid = np.asarray(grid, dtype=float)
    fractions, positions, weights, bounds = _present_lines(model, config_fractions)
    lines = lorentzian(grid, positions[:, None], model.linewidth)
    lines *= weights[:, None]
    values = np.zeros(lines.shape[1:])
    for frac, lo, hi in zip(fractions, bounds[:-1], bounds[1:]):
        values += frac * (1.0 - model.contrast * lines[lo:hi].sum(axis=0))
    return Curve(grid, values)


# row order of _model_jacobian
_JACOBIAN_PARAMS = ("contrast", "p15", "f_center", "a14", "a15", "linewidth")


def _model_jacobian(model: SpectrumModel, grid, p15_column: bool = False) -> np.ndarray:
    """Closed-form derivatives of mixture_spectrum(model, grid) with respect
    to the parameters _JACOBIAN_PARAMS: a (6, grid) array, one row per
    parameter.

    The lines are the grouped product states (``_product_groups``) of every
    configuration present, each weighted by its fraction; with ``p15_column``
    the configurations whose fraction moves with p15 join them, weighted by
    dP_n/dp15 for the p15 row, which is zero otherwise. With u = f - f_line,
    g = (FWHM/2)^2 and L = g / (u^2 + g), dL/df_line = 2 u L^2 / g and
    dL/dFWHM = 2 (L - L^2) / FWHM, so one (rows x grid) pass gives L, L^2
    and u L^2, and three small matrix products give the six rows. It calls
    no public function of this module, so a traced run counts forward-model
    evaluations only.
    """
    fractions = _binomial(model.p15)
    if p15_column:
        p, q = model.p15, 1.0 - model.p15
        slopes = (-3.0 * q**2, 3.0 * q * (q - 2.0 * p), 3.0 * p * (2.0 * q - p), 3.0 * p**2)
    else:
        slopes = (0.0,) * 4
    sums, w, dw = [], [], []
    for n, (frac, slope) in enumerate(zip(fractions, slopes)):
        if frac == 0.0 and slope == 0.0:
            continue
        keys, rung, counts = _product_groups(n)
        pops = (model.populations or {}).get(n)
        weights = counts / counts.sum() if pops is None else counts * np.array(pops.weights)[rung]
        sums.append(keys)
        w.append(frac * weights)
        dw.append(slope * weights)
    sums, w, dw = np.concatenate(sums), np.concatenate(w), np.concatenate(dw)

    grid = np.asarray(grid, dtype=float)
    c, b, fwhm = model.contrast, model.branch, model.linewidth
    g = (0.5 * fwhm) ** 2
    shifts = sums[:, 0] * model.a14 + sums[:, 1] * model.a15
    u = grid - (model.f_center + b * shifts)[:, None]
    lor = u * u
    lor += g
    np.divide(g, lor, out=lor)
    sq = lor * lor
    u *= sq  # u L^2
    jac = np.empty((6, grid.size))
    np.matmul(np.stack([-w, -c * dw]), lor, out=jac[0:2])
    coef = np.stack([w, b * sums[:, 0] * w, b * sums[:, 1] * w])
    np.matmul((-2.0 * c / g) * coef, u, out=jac[2:5])
    # the L - L^2 row from the weighted sums of L (the contrast row) and L^2
    np.matmul((2.0 * c / fwhm) * w, sq, out=jac[5])
    jac[5] += (2.0 / fwhm) * c * jac[0]
    return jac


def predict_a15_from_a14(a14_mhz: float) -> float:
    """Axial 15N coupling expected from the 14N one via the gyromagnetic
    ratio; the magnitude grows by |gamma_15N / gamma_14N| = 1.4027 and the
    sign flips."""
    return a14_mhz * (GAMMA_N15_KHZ_PER_MT / GAMMA_N14_KHZ_PER_MT)
