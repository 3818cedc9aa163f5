import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vbodmr import fit, spectrum
from vbodmr.analysis import polarization_from_areas, spectral_slope
from vbodmr.fit import MeasuredSpectrum
from vbodmr.spectrum import (
    _JACOBIAN_PARAMS,
    Curve,
    LevelLadder,
    Populations,
    SpectrumModel,
    _grid_constants,
    _jacobian_rows,
    _line_groups,
    _line_pass,
    _line_plan,
    _line_table,
    _model_jacobian,
    _offsets,
    _positions,
    binomial_fractions,
    default_grid,
    enumerate_ladder,
    lorentzian,
    mixture_spectrum,
    predict_a15_from_a14,
)
from vbodmr.spin_core import make_system, transition_frequencies


def brute_force_rungs(n15_count):
    """Independent oracle: enumerate every nuclear product state directly."""
    site_values = [(1.0, 0.0, -1.0)] * (3 - n15_count) + [(0.5, -0.5)] * n15_count
    counts = {}
    for label in itertools.product(*site_values):
        m = sum(label)
        counts[m] = counts.get(m, 0) + 1
    return sorted(counts.items())


def m_values(ladder):
    """The ladder's m_tot values, ascending."""
    return tuple(m for m, _ in ladder.rungs)


def unpolarized(ladder):
    """Populations of 1/N_level on every state."""
    return Populations(ladder, tuple(1.0 / ladder.n_level for _ in ladder.rungs))


def area_polarization(pops):
    """P of populations from their rung areas g * w, by the one P formula."""
    areas = {m: g * w for (m, g), w in zip(pops.ladder.rungs, pops.weights)}
    return polarization_from_areas(areas, pops.ladder.m_max).polarization


# --- ladders -----------------------------------------------------------------

def test_ladder_n0_matches_published_table():
    ladder = enumerate_ladder(0)
    assert ladder.n_level == 27
    assert m_values(ladder) == (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0)
    assert ladder.degeneracies == (1, 3, 6, 7, 6, 3, 1)


def test_ladder_n3_matches_published_table():
    ladder = enumerate_ladder(3)
    assert ladder.n_level == 8
    assert m_values(ladder) == (-1.5, -0.5, 0.5, 1.5)
    assert ladder.degeneracies == (1, 3, 3, 1)


@pytest.mark.parametrize(
    "n15,expected",
    [(1, (1, 3, 5, 5, 3, 1)), (2, (1, 3, 4, 3, 1))],
)
def test_ladder_mixed_configurations(n15, expected):
    assert enumerate_ladder(n15).degeneracies == expected


@pytest.mark.parametrize("n15", [0, 1, 2, 3])
def test_ladder_against_brute_force(n15):
    ladder = enumerate_ladder(n15)
    assert list(zip(m_values(ladder), ladder.degeneracies)) == brute_force_rungs(n15)


@pytest.mark.parametrize("n15,n_level", [(0, 27), (1, 18), (2, 12), (3, 8)])
def test_ladder_counts_and_symmetry(n15, n_level):
    ladder = enumerate_ladder(n15)
    assert ladder.n_level == n_level == 3 ** (3 - n15) * 2**n15
    degens = ladder.degeneracies
    assert degens == degens[::-1]
    span = (3 - n15) + n15 / 2.0
    assert m_values(ladder)[0] == -span
    assert m_values(ladder)[-1] == span
    assert np.allclose(np.diff(m_values(ladder)), 1.0)


def test_ladder_rungs_are_pinned():
    # the (m_tot, degeneracy) rungs of each configuration: m_tot a float,
    # the degeneracy an int, ascending m_tot
    assert [enumerate_ladder(n).rungs for n in range(4)] == [
        ((-3.0, 1), (-2.0, 3), (-1.0, 6), (0.0, 7), (1.0, 6), (2.0, 3), (3.0, 1)),
        ((-2.5, 1), (-1.5, 3), (-0.5, 5), (0.5, 5), (1.5, 3), (2.5, 1)),
        ((-2.0, 1), (-1.0, 3), (0.0, 4), (1.0, 3), (2.0, 1)),
        ((-1.5, 1), (-0.5, 3), (0.5, 3), (1.5, 1)),
    ]
    for n in range(4):
        assert all(type(m) is float and type(g) is int for m, g in enumerate_ladder(n).rungs)


def test_ladder_rejects_bad_count():
    with pytest.raises(ValueError):
        enumerate_ladder(4)


# --- populations -------------------------------------------------------------

def test_unpolarized_population_weights():
    ladder = enumerate_ladder(3)
    pops = unpolarized(ladder)
    assert all(w == pytest.approx(1 / 8) for w in pops.weights)
    assert area_polarization(pops) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("target", [0.16, 0.27, -0.1])
def test_tilted_population_hits_target_polarization(target):
    ladder = enumerate_ladder(3)
    pops = Populations.with_polarization(ladder, target)
    assert area_polarization(pops) == pytest.approx(target, abs=1e-12)


def test_population_weight_normalization_enforced():
    ladder = enumerate_ladder(3)
    with pytest.raises(ValueError):
        Populations(ladder, (0.25, 0.25, 0.25, 0.25))  # ignores degeneracy
    with pytest.raises(ValueError):
        Populations(ladder, (-0.1, 0.2, 0.2, 0.1))
    # NaN compares False both ways, so each check must fail on it
    with pytest.raises(ValueError):
        Populations(ladder, (math.nan, 0.125, 0.125, 0.125))
    with pytest.raises(ValueError, match="not representable"):
        Populations.with_polarization(ladder, math.nan)


@pytest.mark.parametrize("linewidth", [0.0, -1.0, math.nan])
def test_model_rejects_nonpositive_linewidth(linewidth):
    with pytest.raises(ValueError, match="linewidth"):
        quartet_model(linewidth=linewidth)


@pytest.mark.parametrize(
    "populations",
    [
        {3: unpolarized(enumerate_ladder(2))},
        {3: unpolarized(LevelLadder(3, enumerate_ladder(2).rungs))},
        {4: unpolarized(enumerate_ladder(3))},
        {"3": unpolarized(enumerate_ladder(3))},
    ],
    ids=["ladder-of-2", "rungs-of-2", "key-4", "key-str"],
)
def test_model_rejects_populations_that_are_not_their_configurations(populations):
    # these used to pass until their configuration entered the mixture
    for p15 in (0.0, 0.5):
        with pytest.raises(ValueError, match="populations key"):
            quartet_model(p15=p15, populations=populations)


# --- lorentzian --------------------------------------------------------------

def test_lorentzian_closed_form_points():
    assert lorentzian(10.0 - 10.0, 4.0) == 1.0
    assert lorentzian(12.0 - 10.0, 4.0) == pytest.approx(0.5)
    assert lorentzian(14.0 - 10.0, 4.0) == pytest.approx(0.2)


@given(
    f0=st.floats(-1e4, 1e4),
    fwhm=st.floats(0.01, 1e3),
    offset=st.floats(-1e4, 1e4),
)
def test_lorentzian_bounds_and_symmetry(f0, fwhm, offset):
    val = lorentzian((f0 + offset) - f0, fwhm)
    assert 0.0 < val <= 1.0
    assert val == pytest.approx(lorentzian((f0 - offset) - f0, fwhm), rel=1e-12)


def test_lorentzian_rejects_bad_width():
    with pytest.raises(ValueError):
        lorentzian(0.0 - 0.0, 0.0)


# up to 1e300 in magnitude, signed zeros drawn often
SAMPLE_VALUES = st.one_of(st.floats(-1e300, 1e300), st.sampled_from([0.0, -0.0]))


@given(
    grid=st.lists(SAMPLE_VALUES, min_size=1, max_size=40).map(np.sort),
    data=st.data(),
)
def test_offsets_are_the_broadcast_subtraction_bit_for_bit(grid, data):
    # a non-uniform grid, 1-25 lines, some of them exactly on a sample
    positions = np.array(data.draw(
        st.lists(st.one_of(SAMPLE_VALUES, st.sampled_from(list(grid))), min_size=1, max_size=25)
    ))
    expected = (grid - positions[:, None]).view(np.int64)  # the sign of zero too
    constants = _grid_constants(grid, 25)  # built for a fit's 25 lines
    assert np.array_equal(_offsets(constants, positions).view(np.int64), expected)
    out = np.full((2, 25, grid.size), np.nan)[1, : positions.size]  # a fit's buffer slice
    assert _offsets(constants, positions, out=out) is out
    assert np.array_equal(out.view(np.int64), expected)


def centred_lorentzian(f, f0, fwhm, out=None):
    """The Lorentzian of frequencies f about a center f0, as ``lorentzian``
    computed it when it took both: (f - f0)^2, then g / (that + g)."""
    half = 0.5 * fwhm
    g = half * half
    d = np.subtract(np.asarray(f, dtype=float), f0, out=out)
    d *= d
    d += g
    return np.divide(g, d, out=d if isinstance(d, np.ndarray) else None)


@given(
    u=st.lists(SAMPLE_VALUES, min_size=1, max_size=40).map(np.array),
    fwhm=st.one_of(st.floats(1e-300, 1e300), st.floats(0.01, 1e3)),
)
def test_lorentzian_of_offsets_is_the_centred_form_bit_for_bit(u, fwhm):
    # (u - 0.0)^2 is u^2 exactly, signed zeros and overflow included
    with np.errstate(all="ignore"):
        expected = centred_lorentzian(u, 0.0, fwhm).view(np.int64)
        assert np.array_equal(lorentzian(u, fwhm).view(np.int64), expected)
        out = np.full((2, u.size), np.nan)[1]
        assert lorentzian(u, fwhm, out=out) is out
        assert np.array_equal(out.view(np.int64), expected)
        for x in (u[0], float(u[0])):  # a scalar offset gives a scalar
            value = lorentzian(x, fwhm)
            assert np.ndim(value) == 0
            assert np.float64(value).view(np.int64) == expected[0]


# --- configuration lines and pure-isotope spectra ----------------------------

def quartet_model(**overrides):
    params = dict(
        f_center=2308.0, contrast=0.11, linewidth=51.0, a14=43.0, a15=-64.0, p15=1.0
    )
    params.update(overrides)
    return SpectrumModel(**params)


def table_lines(model, n15):
    """Positions and weights of configuration #n's lines, read from the line
    table: the groups of ``_line_groups`` in which #n has states."""
    keys, counts = _line_groups()
    rows = np.flatnonzero(counts[:, n15])
    return _positions(model, keys[rows]), _line_table(model.populations)[rows, n15]


def test_quartet_dip_positions_and_depth_ratios():
    # narrow-line limit isolates each dip; depths follow the 1:3:3:1 degeneracy
    model = quartet_model(linewidth=4.0)
    positions, weights = table_lines(model, 3)
    assert np.allclose(np.sort(positions), [2308 - 96, 2308 - 32, 2308 + 32, 2308 + 96])
    grid = default_grid(2308.0)
    curve = mixture_spectrum(model, grid)
    depths = [1.0 - curve.values[np.argmin(np.abs(grid - p))] for p in np.sort(positions)]
    ratios = np.array(depths) / min(depths)
    assert np.allclose(ratios, [1.0, 3.0, 3.0, 1.0], rtol=0.02)


def test_zero_contrast_is_flat():
    model = quartet_model(contrast=0.0)
    curve = mixture_spectrum(model, default_grid(2308.0))
    assert np.all(curve.values == 1.0)


def test_config0_central_depth_narrow_line_limit():
    # deepest dip at f_center with relative depth 7/27 when lines are isolated
    model = quartet_model(p15=0.0, linewidth=1.0, contrast=0.056)
    grid = np.linspace(2308 - 200, 2308 + 200, 8001)
    curve = mixture_spectrum(model, grid)
    depth = 1.0 - curve.values.min()
    assert grid[np.argmin(curve.values)] == pytest.approx(2308.0, abs=0.1)
    assert depth / model.contrast == pytest.approx(7 / 27, abs=1e-3)


@pytest.mark.parametrize("n15", [0, 1, 2, 3])
def test_line_positions_match_spin_core_oracle(n15):
    model = quartet_model(p15=n15 / 3.0)
    d_gs = 3466.0
    b_z = (d_gs - model.f_center) / 28.0
    sys_ = make_system(d_gs, b_z, n15, a14_mhz=model.a14, a15_mhz=model.a15)
    oracle = transition_frequencies(sys_, "effective").frequencies(-1)
    oracle_unique = []
    for f in np.sort(oracle):
        if not oracle_unique or abs(f - oracle_unique[-1]) > 1e-9:
            oracle_unique.append(f)
    positions, _ = table_lines(model, n15)
    assert len(positions) == len(oracle_unique)
    assert np.abs(np.array(oracle_unique) - np.sort(positions)).max() < 1e-9


@pytest.mark.parametrize("n15", [0, 1, 2, 3])
def test_config_weights_sum_to_one(n15):
    _, weights = table_lines(quartet_model(), n15)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)


# --- binomial mixture --------------------------------------------------------

def test_binomial_fractions_endpoints_and_value():
    assert binomial_fractions(0.0) == (1.0, 0.0, 0.0, 0.0)
    assert binomial_fractions(1.0) == (0.0, 0.0, 0.0, 1.0)
    fractions = binomial_fractions(0.6)
    assert fractions == pytest.approx((0.064, 0.288, 0.432, 0.216))
    assert sum(fractions) == pytest.approx(1.0, abs=1e-15)


@given(p15=st.floats(0.0, 1.0))
def test_binomial_fractions_sum_to_one(p15):
    assert sum(binomial_fractions(p15)) == pytest.approx(1.0, abs=1e-12)


def test_quartet_dips_resolved_at_paper_parameters():
    grid = np.linspace(2308 - 250, 2308 + 250, 2001)
    curve = mixture_spectrum(quartet_model(), grid)
    v = curve.values
    minima = [
        grid[i]
        for i in range(1, len(grid) - 1)
        if v[i] < v[i - 1] and v[i] < v[i + 1]
    ]
    assert len(minima) == 4
    # overlap of the 51 MHz-wide lines pulls the visible outer minima a few
    # MHz inward from the line centers
    assert np.allclose(minima, [2308 - 96, 2308 - 32, 2308 + 32, 2308 + 96], atol=7.0)


def test_mixture_shows_only_slight_undulations():
    # intermediate composition smears the quartet: curvature between dips
    # stays below the pure-15N case
    grid = np.linspace(2308 - 120, 2308 + 120, 4801)
    mixed = mixture_spectrum(quartet_model(p15=0.6), grid).values
    pure = mixture_spectrum(quartet_model(p15=1.0), grid).values
    curv_mixed = np.abs(np.diff(mixed, 2)).max()
    curv_pure = np.abs(np.diff(pure, 2)).max()
    assert curv_mixed < curv_pure
    # and the mixture no longer resolves four separate local minima
    minima = [
        i for i in range(1, len(grid) - 1) if mixed[i] < mixed[i - 1] and mixed[i] < mixed[i + 1]
    ]
    assert len(minima) < 4


# --- invariants --------------------------------------------------------------

@pytest.mark.parametrize("p15", [0.0, 0.3, 0.6, 1.0])
def test_normalization_bounds(p15):
    model = quartet_model(p15=p15)
    grid = default_grid(model.f_center)
    values = mixture_spectrum(model, grid).values
    assert values.min() > 1.0 - model.contrast
    assert values.max() <= 1.0
    span = grid[-1] - grid[0]
    far = np.array([model.f_center - 10 * span, model.f_center + 10 * span])
    far_vals = mixture_spectrum(model, far).values
    assert np.abs(far_vals - 1.0).max() < 1e-3 * model.contrast


@pytest.mark.parametrize("n15", [0, 1, 2, 3])
def test_mirror_symmetry_unpolarized(n15):
    model = quartet_model(p15=n15 / 3.0)
    delta = np.linspace(0.0, 200.0, 501)
    right = mixture_spectrum(model, model.f_center + delta).values
    left = mixture_spectrum(model, np.sort(model.f_center - delta)).values[::-1]
    assert np.abs(right - left).max() <= 1e-12


def test_branch_symmetry_with_flipped_couplings():
    delta = np.linspace(-200.0, 200.0, 801)
    plus = quartet_model(branch=1, p15=0.6)
    minus = quartet_model(branch=-1, p15=0.6, a14=-43.0, a15=64.0)
    r_plus = mixture_spectrum(plus, plus.f_center + delta).values
    r_minus = mixture_spectrum(minus, minus.f_center + delta).values
    assert np.abs(r_plus - r_minus[::-1]).max() <= 1e-12


def test_polarized_quartet_biases_high_frequency_side():
    ladder_pops = {3: Populations.with_polarization(enumerate_ladder(3), 0.3)}
    model = quartet_model(populations=ladder_pops)
    grid = default_grid(2308.0)
    values = mixture_spectrum(model, grid).values
    center = np.searchsorted(grid, 2308.0)
    low_area = np.sum(1.0 - values[:center])
    high_area = np.sum(1.0 - values[center:])
    # a15 < 0 puts high m_tot at high frequency, so positive polarization
    # deepens the high-frequency side
    assert high_area > low_area


# --- per-line loop reference ---------------------------------------------------
#
# The forward model used to be evaluated one product state and one line at a
# time. That loop is kept here as the reference. Line positions and weights
# must equal it bit for bit. The curves sum each distinct (sum14, sum15) line
# of the mixture once, in one matrix product, and so reorder the loop's sums:
# over the 512 reference models the curves differ by at most 1.5 eps and the
# slopes by 4.7 eps of their largest magnitude. The bounds below leave a
# little room over that and no more, because the fits' step acceptance
# reacts to perturbations of 1e-16.

EPS = np.finfo(float).eps
CURVE_ULPS = 4.0  # absolute, for values near 1
SLOPE_ULPS = 6.0  # relative to max |slope|


def reference_lines(model, n15):
    """One line per (sum of 14N projections, sum of 15N projections), in
    ascending order of that pair, weighted by the populations of its states."""
    site_values = [(1.0, 0.0, -1.0)] * (3 - n15) + [(0.5, -0.5)] * n15
    pops = (model.populations or {}).get(n15)
    n_level = enumerate_ladder(n15).n_level
    counts = {}
    for label in itertools.product(*site_values):
        key = (sum(label[: 3 - n15]), sum(label[3 - n15:]))
        counts[key] = counts.get(key, 0) + 1
    positions, weights = [], []
    for (m14, m15), count in sorted(counts.items()):
        positions.append(model.f_center + model.branch * (m14 * model.a14 + m15 * model.a15))
        if pops is None:
            weights.append(count / n_level)
        else:
            weights.append(count * dict(zip(m_values(pops.ladder), pops.weights))[m14 + m15])
    return np.array(positions), np.array(weights)


def reference_config_values(model, n15, grid):
    half = 0.5 * model.linewidth
    g = half * half
    dip = np.zeros_like(grid)
    for p, w in zip(*reference_lines(model, n15)):
        d = grid - p
        dip += w * (g / (d * d + g))
    return 1.0 - model.contrast * dip


def reference_mixture_values(model, grid):
    values = np.zeros_like(grid)
    for n, frac in enumerate(binomial_fractions(model.p15)):
        if frac != 0.0:
            values += frac * reference_config_values(model, n, grid)
    return values


def reference_slope_values(model, grid):
    values = np.zeros_like(grid)
    half2 = (0.5 * model.linewidth) ** 2
    for n, frac in enumerate(binomial_fractions(model.p15)):
        if frac == 0.0:
            continue
        for pos, w in zip(*reference_lines(model, n)):
            u = grid - pos
            values += frac * w * (2.0 * half2 * u) / (u * u + half2) ** 2
    return model.contrast * values


def reference_models(count):
    """Seeded models cycling through coupling, composition, branch and
    population cases, including exact line coincidences."""
    rng = np.random.default_rng(4)
    for k in range(count):
        a14, a15 = rng.uniform(-60.0, 60.0), rng.uniform(-100.0, 100.0)
        a14, a15 = [(a14, a15), (0.0, a15), (a14, 0.0), (a14, 2.0 * a14)][k % 4]
        pol = rng.uniform(-0.2, 0.2)
        yield SpectrumModel(
            f_center=rng.uniform(2000.0, 4000.0),
            contrast=rng.uniform(0.01, 0.3),
            linewidth=rng.uniform(15.0, 60.0),
            a14=a14,
            a15=a15,
            p15=[0.0, 1.0, 0.6, rng.uniform()][k // 4 % 4],
            branch=(1, -1)[k // 16 % 2],
            populations=(
                {n: Populations.with_polarization(enumerate_ladder(n), pol) for n in range(4)}
                if k // 32 % 2
                else None
            ),
        )


def test_array_model_matches_loop_reference_within_ulps():
    for model in reference_models(512):
        grid = default_grid(model.f_center)
        for n in range(4):
            positions, weights = table_lines(model, n)
            ref_positions, ref_weights = reference_lines(model, n)
            assert np.array_equal(positions, ref_positions), (model, n)
            assert np.array_equal(weights, ref_weights), (model, n)
        mixture = mixture_spectrum(model, grid).values
        assert np.abs(mixture - reference_mixture_values(model, grid)).max() <= CURVE_ULPS * EPS
        slope = spectral_slope(model, grid).slope_curve.values
        ref_slope = reference_slope_values(model, grid)
        bound = SLOPE_ULPS * EPS * np.abs(ref_slope).max()
        assert np.abs(slope - ref_slope).max() <= bound, model


def reference_keys(n15):
    """The distinct (sum of 14N, sum of 15N projections) of configuration #n."""
    site_values = [(1.0, 0.0, -1.0)] * (3 - n15) + [(0.5, -0.5)] * n15
    return {(sum(m[: 3 - n15]), sum(m[3 - n15 :])) for m in itertools.product(*site_values)}


def test_line_table_keys_are_the_distinct_sums():
    # 30 groups over the four configurations, 25 distinct: #2 shares (m, 0)
    # with #0 and #3 shares (0, +-1/2) with #1
    keys, counts = _line_groups()
    assert sum(len(reference_keys(n)) for n in range(4)) == 30
    assert [tuple(k) for k in keys] == sorted(set().union(*map(reference_keys, range(4))))
    assert len(keys) == 25
    assert counts.sum(axis=0).tolist() == [27, 18, 12, 8]


@pytest.mark.parametrize("polarized", [False, True], ids=["unpolarized", "polarized"])
def test_line_table_columns_are_the_configuration_lines(polarized):
    pops = {n: Populations.with_polarization(enumerate_ladder(n), 0.17) for n in range(4)}
    model = quartet_model(p15=0.6, populations=pops if polarized else None)
    keys, _ = _line_groups()
    table = _line_table(model.populations)
    assert table.shape == (25, 4)
    for n in range(4):
        rows = [i for i, key in enumerate(map(tuple, keys)) if key in reference_keys(n)]
        ref_positions, ref_weights = reference_lines(model, n)
        assert np.array_equal(table[rows, n], ref_weights), n
        assert np.array_equal(_positions(model, keys[rows]), ref_positions), n
        assert not np.delete(table[:, n], rows).any(), n


def test_unpolarized_table_and_fixed_plans_are_cached_read_only(monkeypatch):
    table = _line_table(None)
    assert table is _line_table({}) and not table.flags.writeable
    for p15 in (0.0, -0.0, 0.6, 1.0):
        model = quartet_model(p15=p15)
        plan = _line_plan(model, table)
        assert plan is _line_plan(model, table)
        assert not any(a.flags.writeable for a in plan)
        # bit for bit the plan of an uncached copy of the table
        for cached, fresh in zip(plan, _line_plan(model, np.array(table))):
            assert np.array_equal(cached.view(np.int64), fresh.view(np.int64)), p15
    # p15 = -0.0 reads the entry of 0.0, bit for bit its own plan (above);
    # a free-p15 plan bypasses the cache
    assert _line_plan(quartet_model(p15=-0.0), table) is _line_plan(quartet_model(p15=0.0), table)
    free = _line_plan(quartet_model(p15=0.6), table, True)
    assert free is not _line_plan(quartet_model(p15=0.6), table, True)
    assert all(a.flags.writeable for a in free)
    # a polarized model builds its own table and plans and reads no cached
    # plan: its curve, slope and fit residual
    def refuse(*args):
        raise AssertionError("a polarized model read a cached unpolarized plan")

    monkeypatch.setattr(spectrum, "_unpolarized_plan", refuse)
    pops = {n: Populations.with_polarization(enumerate_ladder(n), 0.17) for n in range(4)}
    model = quartet_model(p15=0.6, populations=pops)
    polarized = _line_table(model.populations)
    assert polarized is not table and polarized.flags.writeable
    grid = default_grid(model.f_center)
    curve = mixture_spectrum(model, grid).values
    assert np.abs(curve - reference_mixture_values(model, grid)).max() <= CURVE_ULPS * EPS
    spectral_slope(model, grid)
    active = ["f_center", "contrast", "linewidth", "a14", "a15"]
    res, _ = fit._physical_problem(MeasuredSpectrum(grid, curve), model, active)(
        np.array([getattr(model, name) for name in active])
    )
    assert not res.any()


def test_slope_is_minus_the_f_center_row_of_the_jacobian():
    # dR/df = -dR/df_center: the slope and the Jacobian read the same lines
    row = _JACOBIAN_PARAMS.index("f_center")
    for model in reference_models(512):
        grid = default_grid(model.f_center)
        slope = spectral_slope(model, grid).slope_curve.values
        plan = _line_plan(model, _line_table(model.populations))
        lines = _line_pass(model, _grid_constants(grid, len(plan[0])), plan)
        coef = _jacobian_rows(model.branch, *lines[:2])
        jac_row = -_model_jacobian(model, lines, coef, np.empty_like(lines[4]))[row]
        assert np.abs(slope - jac_row).max() <= 1e-12 * np.abs(slope).max(), model


@pytest.mark.parametrize("free_p15", [False, True], ids=["fixed_p15", "free_p15"])
def test_fit_residual_is_the_forward_model_bit_for_bit(monkeypatch, free_p15):
    # the residual and the Jacobian of the physical fit share one line pass
    passes = []

    def recording(*args, **kwargs):
        passes.append(_line_pass(*args, **kwargs))
        return passes[-1]

    monkeypatch.setattr(fit, "_line_pass", recording)
    active = ["f_center", "contrast", "linewidth", "a14", "a15"] + ["p15"] * free_p15
    for model in reference_models(64):
        grid = default_grid(model.f_center)
        meas = MeasuredSpectrum(grid, np.random.default_rng(0).normal(1.0, 0.01, grid.size))
        p = np.array([getattr(model, name) for name in active])
        res, jacobian = fit._physical_problem(meas, model, active)(p)
        assert np.array_equal(res, mixture_spectrum(model, grid).values - meas.ratios), model
        keys, w, dw, _, _ = passes[-1]
        curve = np.count_nonzero(w)  # the curve's lines come first
        assert w[:curve].all() and not w[curve:].any() and dw[curve:].all(), model
        slope_only = {tuple(key) for key in keys[curve:]}
        # dP1/dp15 = 3 at p15 = 0, dP2/dp15 = -3 at p15 = 1: the lines of #1
        # (of #2) have w = 0 and dw != 0 there, lines the curve must not sum
        expected = {0.0: reference_keys(1), 1.0: reference_keys(2)}.get(model.p15, set())
        assert slope_only == (expected if free_p15 else set()), model
        count = len(passes)
        kept = jacobian()
        assert len(passes) == count, model
        fresh = fit._physical_problem(meas, model, active)(p)[1]()
        assert np.array_equal(kept, fresh), model


# --- curve type and prediction -------------------------------------------------

def test_curve_requires_increasing_grid():
    with pytest.raises(ValueError):
        Curve(np.array([1.0, 1.0, 2.0]), np.array([1.0, 1.0, 1.0]))


def test_curve_csv_round_trip(tmp_path):
    grid = default_grid(2308.0, points=11)
    curve = mixture_spectrum(quartet_model(), grid)
    path = tmp_path / "curve.csv"
    curve.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "frequency_mhz,ratio"
    back = np.array([[float(c) for c in r.split(",")] for r in rows[1:]])
    assert np.array_equal(back[:, 0], curve.frequencies)
    assert np.array_equal(back[:, 1], curve.values)


def test_predict_a15_from_a14():
    predicted = predict_a15_from_a14(43.0)
    assert predicted == pytest.approx(-60.3146, abs=1e-3)
    assert abs(predicted) == pytest.approx(43.0 * 4.316 / 3.077, rel=1e-12)
    assert predict_a15_from_a14(0.0) == 0.0
    assert predict_a15_from_a14(10.0) < 0 < predict_a15_from_a14(-10.0)
