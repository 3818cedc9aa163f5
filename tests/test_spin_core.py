import itertools
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from vbodmr.constants import GAMMA_E_MHZ_PER_MT
from vbodmr.spin_core import (
    CharacterAmbiguityError,
    ElectronParams,
    HermitianMatrix,
    IsotopeSpecies,
    NonAxialFieldError,
    NuclearSite,
    SpinSystem,
    axial_site,
    build_full_hamiltonian,
    eigen_hermitian,
    make_system,
    quadrupole_axes,
    spin_matrices,
    transition_frequencies,
)
from vbodmr import constants, spin_core
from vbodmr.spin_core import (
    MS_VALUES,
    _greedy_pairing,
    _label_table,
    _nuclear_operators,
    _pair_labels,
    _quadrupole_squares,
)


def secular_levels(sys_):
    """Sorted eigenvalues of the secular Hamiltonian D Sz^2 + gamma_e Bz Sz +
    Sz sum_j A_zz_j Iz_j: its m_S = 0 levels are all 0, so they are N zeros
    and the N + N effective transition frequencies."""
    freqs = [t.frequency_mhz for t in transition_frequencies(sys_, "effective").entries]
    return np.sort(np.concatenate([np.zeros(len(freqs) // 2), freqs]))


def secular_frequency(sys_, branch, label):
    """The effective transition frequency of one branch and nuclear label:
    the secular level of (m_S = branch, label)."""
    (line,) = [
        t for t in transition_frequencies(sys_, "effective").entries
        if t.branch == branch and t.nuclear_label == label
    ]
    return line.frequency_mhz


# --- types -------------------------------------------------------------------

def test_isotope_species_data():
    assert IsotopeSpecies.N14.spin == 1.0
    assert IsotopeSpecies.N15.spin == 0.5
    assert IsotopeSpecies.N14.gamma_n_khz_per_mt == pytest.approx(3.077)
    assert IsotopeSpecies.N15.gamma_n_khz_per_mt == pytest.approx(-4.316)
    assert IsotopeSpecies.N14.gamma_n_khz_per_mt > 0 > IsotopeSpecies.N15.gamma_n_khz_per_mt
    assert IsotopeSpecies.N14.projections == (1.0, 0.0, -1.0)
    assert IsotopeSpecies.N15.projections == (0.5, -0.5)


def test_quadrupole_rejected_for_spin_half():
    with pytest.raises(ValueError):
        NuclearSite(IsotopeSpecies.N15, np.zeros((3, 3)), quadrupole=(1.0, 0.0, 0.0))
    # allowed for spin 1
    NuclearSite(IsotopeSpecies.N14, np.zeros((3, 3)), quadrupole=(1.0, 2.0, 3.0))


def test_system_requires_three_sites():
    site = axial_site(IsotopeSpecies.N14, 0.0)
    with pytest.raises(ValueError):
        SpinSystem(ElectronParams(3450.0), (site, site))


@pytest.mark.parametrize("n15,dim", [(0, 81), (1, 54), (2, 36), (3, 24)])
def test_kronecker_dimensions(n15, dim):
    sys_ = make_system(3450.0, 40.0, n15)
    assert build_full_hamiltonian(sys_).entries.shape == (dim, dim)
    assert secular_levels(sys_).size == dim


def test_hermitian_matrix_rejects_non_hermitian():
    with pytest.raises(ValueError):
        HermitianMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_hermitian_matrix_rejects_non_finite_entries(bad):
    # ||m - m^H|| is NaN here, and NaN > tol is False: finiteness is its own check
    with pytest.raises(ValueError, match="finite"):
        HermitianMatrix(np.array([[bad, 1.0], [1.0, 0.0]]))
    # a non-finite imaginary part keeps the matrix complex, and is checked there
    with pytest.raises(ValueError, match="finite"):
        HermitianMatrix(np.array([[0.0, complex(0.0, bad)], [1.0, 0.0]]))


def test_hermitian_matrix_rejects_a_complex_symmetric_matrix():
    # symmetric but not Hermitian: only the complex check can see it
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianMatrix(np.array([[0, 1j], [1j, 0]]))


@pytest.mark.parametrize("dtype", [int, float, complex])
def test_hermitian_matrix_stores_a_matrix_without_imaginary_part_as_float64(dtype):
    raw = np.array([[2, 1], [1, -1]], dtype=dtype)
    entries = HermitianMatrix(raw).entries
    assert entries.dtype == np.float64
    assert not entries.flags.writeable
    assert raw.flags.writeable
    assert np.array_equal(entries, raw.real)
    hermitian = HermitianMatrix(raw + np.array([[0.0, 1j], [-1j, 0.0]])).entries
    assert hermitian.dtype == np.complex128
    assert not hermitian.flags.writeable


def test_full_mode_rejects_non_finite_input_before_the_solve():
    # a ValueError naming the input, not a CharacterAmbiguityError from the
    # eigenvectors LAPACK returns for a NaN matrix
    with pytest.raises(ValueError, match="finite"):
        transition_frequencies(make_system(math.nan, 40.0, 1, 43.0, 64.0), "full")


# --- effective Hamiltonian ---------------------------------------------------

def test_effective_diagonal_entry_direct_evaluation():
    # D*mS^2 + gamma_e*Bz*mS + mS*sum(A*m): 3450 - 1120 - 129 = 2201
    sys_ = make_system(3450.0, 40.0, 0, a14_mhz=43.0)
    assert secular_frequency(sys_, -1, (1.0, 1.0, 1.0)) == pytest.approx(2201.0, abs=1e-12)


def test_effective_zero_coupling_entries():
    sys_ = make_system(3450.0, 0.0, 0, a14_mhz=0.0)
    assert set(np.round(secular_levels(sys_), 12)) == {0.0, 3450.0}


def test_effective_zero_projection_entry():
    sys_ = make_system(3450.0, 40.0, 0, a14_mhz=43.0)
    assert secular_frequency(sys_, -1, (0.0, 0.0, 0.0)) == 3450.0 - 28.0 * 40.0


def test_effective_rejects_non_axial_field():
    site = axial_site(IsotopeSpecies.N14, 43.0)
    sys_ = SpinSystem(
        ElectronParams(3450.0, b_field=(1.0, 0.0, 40.0)),
        (site, site, site),
    )
    with pytest.raises(NonAxialFieldError):
        transition_frequencies(sys_, "effective")


# --- full Hamiltonian --------------------------------------------------------

def test_full_bare_zfs_spectrum():
    sys_ = make_system(3450.0, 0.0, 0, a14_mhz=0.0)
    values, _ = eigen_hermitian(build_full_hamiltonian(sys_))
    n_level = 27
    assert np.allclose(values[:n_level], 0.0, atol=1e-9)
    assert np.allclose(values[n_level:], 3450.0, atol=1e-9)


@pytest.mark.parametrize("n15", [0, 1, 2, 3])
def test_full_matches_effective_for_axial_tensors(n15):
    sys_ = make_system(3466.0, 40.0, n15, a14_mhz=43.0, a15_mhz=-64.0)
    full_vals, _ = eigen_hermitian(build_full_hamiltonian(sys_))
    assert np.abs(full_vals - secular_levels(sys_)).max() < 1e-9


def test_strain_splits_upper_pair():
    # 2x2 strain block analytics: the m_S=+-1 pair at D splits by 2*sqrt(Ex^2+Ey^2)
    site = axial_site(IsotopeSpecies.N14, 0.0)
    sys_ = SpinSystem(
        ElectronParams(3450.0, e_x=50.0),
        (site, axial_site(IsotopeSpecies.N14, 0.0, 2), axial_site(IsotopeSpecies.N14, 0.0, 3)),
    )
    values, _ = eigen_hermitian(build_full_hamiltonian(sys_))
    upper = values[27:]
    assert upper[:27].mean() == pytest.approx(3400.0, abs=1e-9)
    assert upper[27:].mean() == pytest.approx(3500.0, abs=1e-9)
    assert (upper[27:].mean() - upper[:27].mean()) == pytest.approx(100.0, abs=1e-9)


def test_trace_identity_optional_terms_off():
    for n15 in range(4):
        sys_ = make_system(3500.0, 55.0, n15, a14_mhz=37.0, a15_mhz=-52.0)
        t_full = np.trace(build_full_hamiltonian(sys_).entries).real
        assert abs(t_full - secular_levels(sys_).sum()) < 1e-9


def test_hermiticity_of_all_terms():
    rng = np.random.default_rng(11)
    for n15 in range(4):
        tensors = [rng.normal(scale=20.0, size=(3, 3)) for _ in range(3)]
        sites = []
        species = [IsotopeSpecies.N14] * (3 - n15) + [IsotopeSpecies.N15] * n15
        for j, sp in enumerate(species, start=1):
            quad = (1.0, -2.0, 0.5) if sp is IsotopeSpecies.N14 else (0.0, 0.0, 0.0)
            # symmetrize: a physical coupling tensor enters S.A.I which is
            # Hermitian for any real A, so keep the raw draw
            sites.append(NuclearSite(sp, tensors[j - 1], quad, j))
        sys_ = SpinSystem(
            ElectronParams(3450.0, b_field=(3.0, -2.0, 40.0), e_x=30.0, e_y=-20.0),
            tuple(sites),
            include_nuclear_zeeman=True,
            include_quadrupole=True,
        )
        h = build_full_hamiltonian(sys_).entries
        assert np.linalg.norm(h - h.conj().T) <= 1e-12 * np.linalg.norm(h)


def _embedded(op, slot, dims):
    out = np.eye(1, dtype=complex)
    for k, d in enumerate(dims):
        out = np.kron(out, op if k == slot else np.eye(d))
    return out


def reference_full_hamiltonian(sys_):
    """Term-by-term construction: every operator embedded in the 3*N product
    space, couplings as products of embedded operators."""
    e = sys_.electron
    dims = [3] + [site.species.multiplicity for site in sys_.sites]
    s_ops = [_embedded(op, 0, dims) for op in spin_matrices(1.0)]
    h = e.d_gs * (s_ops[2] @ s_ops[2])
    h = h + e.e_x * (s_ops[1] @ s_ops[1] - s_ops[0] @ s_ops[0])
    h = h + e.e_y * (s_ops[0] @ s_ops[1] + s_ops[1] @ s_ops[0])
    h = h + GAMMA_E_MHZ_PER_MT * sum(b * op for b, op in zip(e.b_field, s_ops))
    for j, site in enumerate(sys_.sites):
        i_ops = [_embedded(op, 1 + j, dims) for op in spin_matrices(site.species.spin)]
        for alpha in range(3):
            for beta in range(3):
                h = h + site.hfi_tensor[alpha, beta] * (s_ops[alpha] @ i_ops[beta])
        if sys_.include_nuclear_zeeman:
            gamma_mhz = site.species.gamma_n_khz_per_mt * 1e-3
            h = h - gamma_mhz * sum(b * op for b, op in zip(e.b_field, i_ops))
        if sys_.include_quadrupole:
            p_axis, o_axis = quadrupole_axes(site.site_index)
            i_p = sum(c * op for c, op in zip(p_axis, i_ops))
            i_o = sum(c * op for c, op in zip(o_axis, i_ops))
            p_p, p_z, p_o = site.quadrupole
            h = h + p_p * (i_p @ i_p) + p_z * (i_ops[2] @ i_ops[2]) + p_o * (i_o @ i_o)
    return h


def dense_system(n15):
    """Transverse tensors rotated 120 deg per site, strain, 14N quadrupole,
    nuclear Zeeman and a field tilted off the symmetry axis; the tensor is
    not symmetric, so mixing up its electron and nuclear axes shows."""
    local = np.array([[45.0, 3.0, 8.0], [0.0, 90.0, 0.0], [8.0, 0.0, 47.0]])
    sites = []
    for j in (1, 2, 3):
        theta = 2.0 * math.pi * (j - 1) / 3.0
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        if j > 3 - n15:
            sites.append(NuclearSite(IsotopeSpecies.N15, -1.4 * rot @ local @ rot.T, site_index=j))
        else:
            sites.append(NuclearSite(IsotopeSpecies.N14, rot @ local @ rot.T, (-0.7, 1.2, -0.5), j))
    return SpinSystem(
        ElectronParams(3466.0, b_field=(4.0, -2.5, 40.0), e_x=30.0, e_y=-20.0),
        tuple(sites),
        include_nuclear_zeeman=True,
        include_quadrupole=True,
    )


@pytest.mark.parametrize("n15", [0, 1, 2, 3])
def test_full_hamiltonian_matches_term_by_term_reference(n15):
    sys_ = dense_system(n15)
    h = build_full_hamiltonian(sys_).entries
    h_ref = reference_full_hamiltonian(sys_)
    assert h.shape == h_ref.shape
    assert np.abs(h_ref - np.diag(np.diag(h_ref))).max() > 1.0
    assert np.linalg.norm(h - h_ref) <= 1e-12 * np.linalg.norm(h_ref)


@pytest.mark.parametrize("n15", [0, 1, 2, 3])
def test_labels_are_the_iz_diagonals_of_the_nuclear_operators(n15):
    # the label table embeds I_z on its own: it must stay the diagonal of
    # the operators the Hamiltonian is built from, signed zeros included
    pattern = (IsotopeSpecies.N14,) * (3 - n15) + (IsotopeSpecies.N15,) * n15
    diagonals = np.diagonal(_nuclear_operators(pattern)[:, 2], axis1=1, axis2=2).real
    labels = np.array(_label_table(pattern))
    assert labels.tobytes() == np.ascontiguousarray(diagonals.T).tobytes()


def test_isotopes_and_labels_are_the_objects_of_constants():
    # one enumeration of product states, read by spin_core and spectrum alike
    assert spin_core.IsotopeSpecies is constants.IsotopeSpecies
    assert spin_core._label_table is constants._label_table


def test_forward_model_and_fit_load_no_hamiltonian():
    # spin_core is the oracle of the forward model, not a layer under it:
    # a fit-only process never compiles it, nor validate, which reads it
    script = textwrap.dedent("""
        import sys
        import vbodmr.spectrum, vbodmr.fit, vbodmr.analysis
        print(sorted(m for m in ("vbodmr.spin_core", "vbodmr.validate") if m in sys.modules))
    """)
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_nuclear_operators_cached_read_only():
    pattern = (IsotopeSpecies.N14, IsotopeSpecies.N15, IsotopeSpecies.N15)
    ops = _nuclear_operators(pattern)
    assert ops.shape == (3, 3, 12, 12)
    assert _nuclear_operators(pattern) is ops
    with pytest.raises(ValueError):
        ops[0, 2, 0, 0] = 1.0
    with pytest.raises(ValueError):
        ops[1, 0] += 1.0
    squares = _quadrupole_squares(pattern, 0, 1)
    assert squares.shape == (3, 144)
    assert _quadrupole_squares(pattern, 0, 1) is squares
    with pytest.raises(ValueError):
        squares[1, 0] = 1.0


# --- eigensolver -------------------------------------------------------------

def test_eigen_diagonal_matrix():
    d = np.diag([5.0, -1.0, 3.0, 0.0])
    values, vectors = eigen_hermitian(HermitianMatrix(d))
    assert np.array_equal(values, np.array([-1.0, 0.0, 3.0, 5.0]))
    assert np.allclose(np.abs(vectors), np.abs(np.eye(4)[:, [1, 3, 2, 0]]))


def test_eigen_two_by_two_closed_form():
    d_val, e_val = 7.0, 2.5
    m = np.array([[0.0, e_val], [e_val, d_val]])
    values, _ = eigen_hermitian(HermitianMatrix(m))
    lo = (d_val - math.sqrt(d_val**2 + 4 * e_val**2)) / 2.0
    hi = (d_val + math.sqrt(d_val**2 + 4 * e_val**2)) / 2.0
    assert values == pytest.approx([lo, hi], abs=1e-12)


def test_eigen_random_81_reconstruction():
    rng = np.random.default_rng(81)
    x = rng.normal(size=(81, 81)) + 1j * rng.normal(size=(81, 81))
    m = (x + x.conj().T) / 2.0
    values, vectors = eigen_hermitian(HermitianMatrix(m))
    recon = vectors @ np.diag(values) @ vectors.conj().T
    assert np.abs(recon - m).max() < 1e-8
    assert np.abs(vectors.conj().T @ vectors - np.eye(81)).max() < 1e-9
    assert np.all(np.diff(values) >= 0)


def test_eigen_residual_and_lapack_agreement():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(36, 36)) + 1j * rng.normal(size=(36, 36))
    m = 1000.0 * (x + x.conj().T) / 2.0
    hm = HermitianMatrix(m)
    values, vectors = eigen_hermitian(hm)
    scale = np.linalg.norm(m)
    for k in range(36):
        res = np.linalg.norm(m @ vectors[:, k] - values[k] * vectors[:, k])
        assert res <= 1e-9 * scale
    assert np.abs(values - np.linalg.eigvalsh(m)).max() <= 1e-9 * scale


def test_eigen_takes_the_real_driver_only_for_a_real_matrix():
    real = np.array([[2.0, 1.0], [1.0, -1.0]])
    values, vectors = eigen_hermitian(HermitianMatrix(real))
    assert vectors.dtype == np.float64
    assert np.array_equal(values, np.linalg.eigvalsh(real))
    _, vectors = eigen_hermitian(HermitianMatrix(real + np.array([[0.0, 1j], [-1j, 0.0]])))
    assert vectors.dtype == np.complex128


# --- transitions -------------------------------------------------------------

def test_quartet_lines_spaced_by_64():
    sys_ = make_system(3466.0, 40.0, 3, a15_mhz=-64.0)
    freqs = transition_frequencies(sys_, "effective").frequencies(-1)
    unique = np.unique(np.round(freqs, 9))
    f0 = 3466.0 - 28.0 * 40.0
    expected = np.array([f0 - 64.0 * m for m in (1.5, 0.5, -0.5, -1.5)])
    assert np.allclose(unique, np.sort(expected), atol=1e-9)
    assert np.allclose(np.diff(unique), 64.0, atol=1e-9)


def test_zero_projection_gives_bare_frequency():
    sys_ = make_system(3466.0, 40.0, 0, a14_mhz=43.0)
    ts = transition_frequencies(sys_, "effective")
    for t in ts.entries:
        if t.nuclear_label == (0.0, 0.0, 0.0) and t.branch == -1:
            assert t.frequency_mhz == pytest.approx(3466.0 - 28.0 * 40.0, abs=1e-12)


def test_nuclear_zeeman_bound_on_transitions():
    # bound: 3 * gamma_14N * Bz ~ 0.37 MHz at 40 mT
    base = make_system(3466.0, 40.0, 0, a14_mhz=43.0)
    with_zeeman = make_system(3466.0, 40.0, 0, a14_mhz=43.0, include_nuclear_zeeman=True)
    bound = 3 * 3.077e-3 * 40.0
    for branch in (1, -1):
        f_ref = transition_frequencies(base, "effective").frequencies(branch)
        f_nz = transition_frequencies(with_zeeman, "full").frequencies(branch)
        assert np.abs(f_nz - f_ref).max() <= bound


def test_full_mode_dipole_weights_near_one():
    sys_ = make_system(3450.0, 40.0, 3, a15_mhz=-64.0)
    ts = transition_frequencies(sys_, "full")
    for t in ts.entries:
        assert t.dipole_weight == pytest.approx(1.0, abs=1e-9)


def test_full_mode_transverse_tensors_match_eigenvalue_differences():
    # dense Hamiltonian: full tensors with transverse parts rotated 120 deg per
    # site, 14N quadrupole, nuclear Zeeman and a 40 mT field tilted 3 deg
    local = np.array([[45.0, 0.0, 8.0], [0.0, 40.0, 0.0], [8.0, 0.0, 47.0]])
    sites = []
    for j in (1, 2, 3):
        theta = 2.0 * math.pi * (j - 1) / 3.0
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        sites.append(NuclearSite(IsotopeSpecies.N14, rot @ local @ rot.T, (-0.7, 1.2, -0.5), j))
    tilt = math.radians(3.0)
    sys_ = SpinSystem(
        ElectronParams(3466.0, b_field=(40.0 * math.sin(tilt), 0.0, 40.0 * math.cos(tilt))),
        tuple(sites),
        include_nuclear_zeeman=True,
        include_quadrupole=True,
    )
    h = build_full_hamiltonian(sys_).entries
    assert np.abs(h - np.diag(np.diag(h))).max() > 1.0
    levels = np.linalg.eigvalsh(h)
    gaps = np.abs(levels[:, None] - levels[None, :]).ravel()
    ts = transition_frequencies(sys_, "full")
    labels = list(itertools.product((1.0, 0.0, -1.0), repeat=3))
    for branch in (1, -1):
        assert sorted(t.nuclear_label for t in ts.entries if t.branch == branch) == sorted(labels)
    for t in ts.entries:
        assert np.abs(gaps - t.frequency_mhz).min() < 1e-6
        assert math.isfinite(t.dipole_weight)


def argmax_pairing(overlap):
    """Reference: the label pairing as it used to be computed, one argmax per
    label with the chosen row and column knocked out after each pick."""
    overlap = overlap.copy()
    col_of = np.empty(len(overlap), dtype=int)
    for _ in range(len(overlap)):
        i, j = np.unravel_index(np.argmax(overlap), overlap.shape)
        col_of[i] = j
        overlap[i, :] = -1.0
        overlap[:, j] = -1.0
    return col_of


def test_pairing_matches_argmax_reference_with_ties():
    rng = np.random.default_rng(17)
    for k in range(400):
        n = int(rng.integers(1, 28))
        # few distinct values, so equal overlaps compete across rows and columns
        overlap = rng.integers(0, [2, 3, 5, 1000][k % 4], size=(n, n)) / 4.0
        if k % 5 == 0:
            overlap[:] = overlap[0, 0]
        assert np.array_equal(_greedy_pairing(overlap), argmax_pairing(overlap)), overlap


@pytest.mark.parametrize("n15", [0, 1, 2, 3])
def test_pairing_matches_argmax_reference_on_dense_system(n15):
    sys_ = dense_system(n15)
    _, vectors = eigen_hermitian(build_full_hamiltonian(sys_))
    n = vectors.shape[0] // 3
    weights = np.abs(vectors.reshape(3, n, -1)) ** 2
    manifold = np.argmax(weights.sum(axis=1), axis=0)
    for b in range(len(MS_VALUES)):
        overlap = weights[b][:, manifold == b]
        assert overlap.shape == (n, n)
        assert np.array_equal(_greedy_pairing(overlap), argmax_pairing(overlap))


def real_dense_system(n15):
    """Field (4, 0, 40) mT, nuclear Zeeman on and diag(45, 90, 47) MHz scaled
    by 1, 1.05 and 1.1 on sites 1-3: S_x I_x, S_y I_y, S_z I_z and B_x S_x
    have real matrices, so the Hamiltonian is real and dense. Equal tensors
    on all three sites would make degenerate levels whose label pairing is
    arbitrary, and that pairing moves lines by up to 26 MHz between the two
    LAPACK drivers."""
    species = [IsotopeSpecies.N14] * (3 - n15) + [IsotopeSpecies.N15] * n15
    sites = tuple(
        NuclearSite(sp, scale * np.diag([45.0, 90.0, 47.0]), site_index=j)
        for j, (sp, scale) in enumerate(zip(species, (1.0, 1.05, 1.1)), start=1)
    )
    return SpinSystem(
        ElectronParams(3466.0, b_field=(4.0, 0.0, 40.0)), sites, include_nuclear_zeeman=True
    )


@pytest.mark.parametrize("n15", [0, 1, 2, 3])
def test_real_hamiltonians_are_assembled_real_and_match_the_reference(n15):
    real = [
        make_system(3466.0, 40.0, n15, 43.0, -64.0),
        make_system(3466.0, 40.0, n15, 43.0, -64.0, include_nuclear_zeeman=True),
        real_dense_system(n15),
    ]
    for sys_ in real:
        h = build_full_hamiltonian(sys_).entries
        h_ref = reference_full_hamiltonian(sys_)
        assert h.dtype == np.float64
        assert np.linalg.norm(h - h_ref) <= 1e-12 * np.linalg.norm(h_ref)
    assert build_full_hamiltonian(dense_system(n15)).entries.dtype == np.complex128


def line_table(ts):
    return [(t.branch, t.nuclear_label, t.frequency_mhz, t.dipole_weight) for t in ts.entries]


@pytest.mark.parametrize("n15", [0, 1, 2, 3])
def test_transition_lists_do_not_depend_on_the_eigensolver_driver(monkeypatch, n15):
    axial = [make_system(3466.0, 40.0, n15, 0.0, 64.0), make_system(3466.0, 40.0, n15, 32.0, 64.0)]
    dense = real_dense_system(n15)
    h = build_full_hamiltonian(dense).entries
    assert h.dtype == np.float64
    assert np.abs(h - np.diag(np.diag(h))).max() > 1.0
    default = [line_table(transition_frequencies(s, "full")) for s in axial + [dense]]
    monkeypatch.setattr(
        spin_core, "eigen_hermitian", lambda m: np.linalg.eigh(m.entries.astype(complex))
    )
    complex_driver = [line_table(transition_frequencies(s, "full")) for s in axial + [dense]]
    # a14 = 0 and a15 = 2 a14 make exact degeneracies: bitwise
    assert complex_driver[:2] == default[:2]
    for (b, label, f, w), (b_ref, label_ref, f_ref, w_ref) in zip(
        complex_driver[2], default[2], strict=True
    ):
        assert (b, label) == (b_ref, label_ref)
        assert abs(f - f_ref) <= 1e-9
        assert abs(w - w_ref) <= 1e-9


def reference_full_lines(sys_):
    """The full-mode extraction one manifold and one branch at a time: each
    manifold paired by ``argmax_pairing``, each branch's S_x elements as
    their own product, each value converted by ``float``."""
    values, vectors = eigen_hermitian(build_full_hamiltonian(sys_))
    labels = _label_table(tuple(s.species for s in sys_.sites))
    n = len(labels)
    blocks = vectors.reshape(3, n, -1)
    weights = np.abs(blocks) ** 2
    col_block = np.argmax(weights.sum(axis=1), axis=0)
    col_of = np.empty((3, n), dtype=int)
    for b in range(len(MS_VALUES)):
        cols = np.flatnonzero(col_block == b)
        col_of[b] = cols[argmax_pairing(weights[b][:, cols])]
    cols0 = col_of[MS_VALUES.index(0.0)]
    sx_v0 = (spin_matrices(1.0)[0] @ blocks[:, :, cols0].reshape(3, -1)).reshape(3, n, n)
    frequency, weight = {}, {}
    for branch in (1, -1):
        cols = col_of[MS_VALUES.index(branch)]
        element = (blocks[:, :, cols].conj() * sx_v0).sum(axis=(0, 1))
        weight[branch] = 2.0 * np.abs(element) ** 2
        frequency[branch] = values[cols] - values[cols0]
    return [
        (branch, label, float(frequency[branch][i]), float(weight[branch][i]))
        for i, label in enumerate(labels)
        for branch in (1, -1)
    ]


@pytest.mark.parametrize("n15", [0, 1, 2, 3])
def test_full_mode_is_the_per_branch_extraction_bit_for_bit(n15):
    rng = np.random.default_rng(300 + n15)
    # a14 = 0 and a15 = 2 a14 make exact degeneracies; the draws span the
    # benchmark corpus's axial ranges
    couplings = [(43.0, 64.0), (0.0, 64.0), (32.0, 64.0)] + [
        tuple(rng.uniform(-80.0, 80.0, size=2)) for _ in range(3)
    ]
    systems = [
        make_system(rng.uniform(3300.0, 3600.0), rng.uniform(10.0, 100.0), n15, a14, a15,
                    include_nuclear_zeeman=zeeman)
        for a14, a15 in couplings
        for zeeman in (False, True)
    ]
    for sys_ in systems + [dense_system(n15), real_dense_system(n15)]:
        assert line_table(transition_frequencies(sys_, "full")) == reference_full_lines(sys_)


def reference_effective_lines(sys_):
    """The secular lines as they used to be listed: label by label, branch
    +1 first, each hyperfine shift a Python sum from 0, site by site."""
    e = sys_.electron
    azz = [s.a_zz for s in sys_.sites]
    lines = []
    for label in _label_table(tuple(s.species for s in sys_.sites)):
        hf = sum(a * m for a, m in zip(azz, label))
        for branch in (1, -1):
            lines.append((branch, label, e.d_gs + branch * (GAMMA_E_MHZ_PER_MT * e.b_z + hf), 1.0))
    return lines


def transition_cases(n15):
    """(mode, system) pairs: secular and full solves of axial systems, among
    them exact degeneracies (a14 = 0, a15 = 2 a14), zero field and
    signed zeros, and full solves of the two dense systems."""
    axial = [
        make_system(3466.0, 40.0, n15, 43.0, -64.0),
        make_system(3466.0, 40.0, n15, 0.0, 64.0),
        make_system(3466.0, 40.0, n15, 32.0, 64.0),
        make_system(3466, 0.0, n15, -0.0, 64.0),
        make_system(3410.5, -0.0, n15, 43.0, -0.0, include_nuclear_zeeman=True),
    ]
    return [(mode, s) for s in axial for mode in ("effective", "full")] + [
        ("full", dense_system(n15)), ("full", real_dense_system(n15))
    ]


@pytest.mark.parametrize("n15", [0, 1, 2, 3])
def test_effective_mode_lists_the_secular_lines_bit_for_bit(n15):
    for mode, sys_ in transition_cases(n15):
        if mode == "effective":
            assert line_table(transition_frequencies(sys_, mode)) == reference_effective_lines(sys_)


@pytest.mark.parametrize("n15", [0, 1, 2, 3])
def test_transition_set_arrays_are_its_entries(n15):
    for mode, sys_ in transition_cases(n15):
        ts = transition_frequencies(sys_, mode)
        n = len(ts.labels)
        assert ts.frequency_mhz.shape == ts.dipole_weight.shape == (n, 2)
        for a in (ts.frequency_mhz, ts.dipole_weight):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 0.0
        # the entries are the arrays, label by label, branch +1 first
        assert line_table(ts) == [
            (branch, label, ts.frequency_mhz[i, k], ts.dipole_weight[i, k])
            for i, label in enumerate(ts.labels)
            for k, branch in enumerate((1, -1))
        ]
        assert all(type(t.frequency_mhz) is float for t in ts.entries)
        assert ts.entries is ts.entries
        for branch in (1, -1):
            expected = np.array(sorted(t.frequency_mhz for t in ts.entries if t.branch == branch))
            got = ts.frequencies(branch)
            assert got.dtype == expected.dtype and got.shape == (n,)
            assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n15", [0, 1, 2, 3])
def test_a_solve_and_its_frequencies_build_no_transition(monkeypatch, n15):
    def refuse(*args):
        raise AssertionError("a Transition was built")

    monkeypatch.setattr(spin_core, "Transition", refuse)
    for mode, sys_ in transition_cases(n15):
        ts = transition_frequencies(sys_, mode)
        for branch in (1, -1):
            ts.frequencies(branch)
        with pytest.raises(AssertionError, match="a Transition was built"):
            ts.entries


def overlaps_with_distinct_bests(rng, n):
    """n x n overlaps whose rows take their first maxima in distinct
    columns, with ties after each row's maximum and maxima shared by rows."""
    top = rng.integers(2, 5, size=n) / 4.0
    overlap = np.minimum(rng.integers(0, 5, size=(n, n)) / 4.0, top[:, None])
    for i, j in enumerate(rng.permutation(n)):
        overlap[i, :j] = np.minimum(overlap[i, :j], top[i] - 0.25)
        overlap[i, j] = top[i]
    return overlap


def record_walks(monkeypatch):
    """Manifold sizes passed to ``_greedy_pairing`` from ``_pair_labels``."""
    walked = []

    def walk(overlap):
        walked.append(len(overlap))
        return _greedy_pairing(overlap)

    monkeypatch.setattr(spin_core, "_greedy_pairing", walk)
    return walked


def test_argmax_pairing_of_distinct_bests_is_the_walk(monkeypatch):
    walked = record_walks(monkeypatch)
    rng = np.random.default_rng(23)
    ties_in_rows = ties_across_rows = 0
    for k in range(300):
        n = k % 27 + 1
        overlap = overlaps_with_distinct_bests(rng, n)
        top = overlap.max(axis=1)
        ties_in_rows += int(((overlap == top[:, None]).sum(axis=1) > 1).any())
        ties_across_rows += len(set(top.tolist())) < n
        (paired,) = _pair_labels(overlap[None], np.zeros(n, dtype=int))
        assert np.array_equal(paired, _greedy_pairing(overlap)), overlap
        assert np.array_equal(paired, argmax_pairing(overlap)), overlap
    assert walked == []
    assert ties_in_rows > 100 and ties_across_rows > 100


@pytest.mark.parametrize("n15", [0, 1, 2, 3])
def test_colliding_bests_take_the_walk_and_match(monkeypatch, n15):
    _, vectors = eigen_hermitian(build_full_hamiltonian(dense_system(n15)))
    n = vectors.shape[0] // 3
    weights = np.abs(vectors.reshape(3, n, -1)) ** 2
    col_block = np.argmax(weights.sum(axis=1), axis=0)
    collide = [len(set(row.tolist())) < n for row in weights.argmax(axis=2)]
    assert any(collide)
    walked = record_walks(monkeypatch)
    col_of = _pair_labels(weights, col_block)
    assert len(walked) == sum(collide)
    for b in range(len(MS_VALUES)):
        cols = np.flatnonzero(col_block == b)
        overlap = weights[b][:, cols]
        assert np.array_equal(col_of[b], cols[_greedy_pairing(overlap)])
        assert np.array_equal(col_of[b], cols[argmax_pairing(overlap)])


def test_a_best_outside_its_manifold_takes_the_walk():
    # manifold 0's bests (2, 1) are distinct, but state 2 lies in manifold 1,
    # whose own bests collide on state 3 and leave state 2 untaken
    weights = np.array([
        [[0.5, 0.1, 0.9, 0.0], [0.1, 0.6, 0.0, 0.0]],
        [[0.0, 0.0, 0.1, 0.8], [0.0, 0.0, 0.2, 0.7]],
    ])
    col_of = _pair_labels(weights, np.array([0, 0, 1, 1]))
    assert col_of.tolist() == [[0, 1], [3, 2]]


def test_full_mode_loads_no_module_beyond_its_import():
    # a NumPy function that imports a submodule on its first call (np.unique
    # loads numpy.ma) costs every fresh process that import; the systems are
    # axial and dense, real and complex, and some take the pairing walk
    script = textwrap.dedent("""
        import sys
        from vbodmr import spin_core as sc
        loaded = set(sys.modules)
        for n15 in range(4):
            species = [sc.IsotopeSpecies.N14] * (3 - n15) + [sc.IsotopeSpecies.N15] * n15
            sites = tuple(
                sc.NuclearSite(sp, [[45.0 * k, 0.0, 0.0], [0.0, 90.0 * k, 0.0], [0.0, 0.0, 47.0 * k]],
                               site_index=j)
                for j, (sp, k) in enumerate(zip(species, (1.0, 1.05, 1.1)), start=1)
            )
            systems = [sc.make_system(3466.0, 40.0, n15, 43.0, 64.0)] + [
                sc.SpinSystem(sc.ElectronParams(3466.0, field), sites, include_nuclear_zeeman=True)
                for field in ((4.0, 0.0, 40.0), (4.0, -2.5, 40.0))
            ]
            for system in systems:
                sc.transition_frequencies(system, "full")
        print(sorted(set(sys.modules) - loaded))
    """)
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_full_mode_flags_ambiguity_near_anticrossing():
    # strain at zero field mixes m_S = +-1 half and half
    site = axial_site(IsotopeSpecies.N14, 0.0)
    sys_ = SpinSystem(
        ElectronParams(3450.0, e_x=50.0),
        (site, axial_site(IsotopeSpecies.N14, 0.0, 2), axial_site(IsotopeSpecies.N14, 0.0, 3)),
    )
    with pytest.raises(CharacterAmbiguityError):
        transition_frequencies(sys_, "full")


def test_oracle_equivalence_random_draws():
    rng = np.random.default_rng(42)
    for n15 in range(4):
        for _ in range(10):
            sys_ = make_system(
                rng.uniform(3300, 3600),
                rng.uniform(10, 100),
                n15,
                a14_mhz=rng.uniform(-80, 80),
                a15_mhz=rng.uniform(-80, 80),
            )
            for branch in (1, -1):
                f_eff = transition_frequencies(sys_, "effective").frequencies(branch)
                f_full = transition_frequencies(sys_, "full").frequencies(branch)
                assert np.abs(f_eff - f_full).max() < 1e-6
                assert np.all(f_eff > 0)


# --- spin matrix sanity ------------------------------------------------------

@pytest.mark.parametrize("s", [0.5, 1.0])
def test_spin_matrix_commutators(s):
    sx, sy, sz = spin_matrices(s)
    assert np.allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-12)
    casimir = sx @ sx + sy @ sy + sz @ sz
    assert np.allclose(casimir, s * (s + 1) * np.eye(int(2 * s + 1)), atol=1e-12)
