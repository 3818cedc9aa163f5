"""Spin Hamiltonians of a single V_B defect and its three nearest nitrogen nuclei.

The defect electron spin (S = 1) couples to the three nearest-neighbor
nitrogen nuclear spins (I = 1 for 14N, I = 1/2 for 15N). This module builds
the full ground-state Hamiltonian (zero-field splitting, with strain when
E_x or E_y is nonzero, electron Zeeman with ``GAMMA_E_MHZ_PER_MT``,
full-tensor hyperfine coupling, and the nuclear Zeeman and quadrupole terms
when the system includes them), diagonalizes it exactly with LAPACK
(``numpy.linalg.eigh``), and extracts the electron spin transition frequencies;
under an axial bias field it also evaluates them from the secular model,
whose Hamiltonian is diagonal in the product basis, without building a
matrix. Isotopes and labels come from ``constants``, shared with ``spectrum``.

A matrix is float64 when its imaginary part is all zero, complex otherwise.
``build_full_hamiltonian`` applies that rule to its assembled product before
the transpose copy, and ``HermitianMatrix`` applies it again to every matrix
it checks, so an axial field's real Hamiltonian stays float64 from assembly
to the real symmetric driver.

The full Hamiltonian is assembled from its tensor structure,
H = H_e (x) 1_N + sum_a S_a (x) B_a + 1_3 (x) H_n: a 3x3 electron part, the
N x N hyperfine fields B_a seen by electron axis a, and an N x N nuclear
part, with N the dimension of the nuclear product space (at most 27). Each
of its sums, the Kronecker sum too, is one product of flattened operators.
The nuclear spin operators and quadrupole squares are built once per isotope
pattern and cached read-only; no 3N-dimensional operator is built per call.

Conventions
-----------
* z is the defect symmetry axis; x, y span the hBN plane.
* Product basis order: electron factor first, then nitrogen sites 1, 2, 3.
  Within each factor states run from the highest magnetic quantum number
  down (|+1>, |0>, |-1> for a spin-1 factor). This ordering is fixed so
  eigenvector labeling is reproducible.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .constants import GAMMA_E_MHZ_PER_MT, IsotopeSpecies, _label_table, _read_only

HERMITICITY_RTOL = 1e-12
# Electron spin projections in basis order: row b*N + i of an N-label system
# holds m_S = MS_VALUES[b] and nuclear label i.
MS_VALUES = (1.0, 0.0, -1.0)
# The m_S = 0 <-> +1 and 0 <-> -1 transitions, in the column order of a TransitionSet
BRANCHES = (1, -1)
# Minimum |<psi|P_mS|psi>| for an eigenstate to count as having a definite
# electron spin projection; below this the field is too close to a level
# anticrossing for the transition extraction to be meaningful.
MS_CHARACTER_THRESHOLD = 0.9


class NonAxialFieldError(ValueError):
    """The effective (secular) model requires B along the symmetry axis."""


class CharacterAmbiguityError(RuntimeError):
    """No dominant electron spin projection; state mixing is too strong."""


@dataclass(frozen=True)
class NuclearSite:
    """One nearest-neighbor nitrogen: isotope, hyperfine tensor, quadrupole.

    ``hfi_tensor`` is the 3x3 coupling matrix in MHz (rows: electron spin
    direction, columns: nuclear spin direction). ``quadrupole`` holds the
    per-axis strengths (P_p, P_z, P_o) in MHz along the site's local axes;
    they must vanish for spin-1/2 species, where no quadrupole moment exists.
    """

    species: IsotopeSpecies
    hfi_tensor: np.ndarray
    quadrupole: tuple[float, float, float] = (0.0, 0.0, 0.0)
    site_index: int = 1

    def __post_init__(self) -> None:
        tensor = np.array(self.hfi_tensor, dtype=float)
        if tensor.shape != (3, 3):
            raise ValueError(f"hfi_tensor must be 3x3, got shape {tensor.shape}")
        object.__setattr__(self, "hfi_tensor", _read_only(tensor))
        if self.site_index not in (1, 2, 3):
            raise ValueError(f"site_index must be 1, 2 or 3, got {self.site_index}")
        if len(self.quadrupole) != 3:
            raise ValueError("quadrupole must hold (P_p, P_z, P_o)")
        if self.species.spin < 1.0 and any(p != 0.0 for p in self.quadrupole):
            raise ValueError("quadrupole strengths must be zero for spin-1/2 species")

    @property
    def a_zz(self) -> float:
        return float(self.hfi_tensor[2, 2])


def axial_site(species: IsotopeSpecies, a_zz_mhz: float, site_index: int = 1) -> NuclearSite:
    """Site with a purely axial hyperfine tensor diag(0, 0, A_zz) and no
    quadrupole term."""
    return NuclearSite(species, np.diag([0.0, 0.0, float(a_zz_mhz)]), site_index=site_index)


@dataclass(frozen=True)
class ElectronParams:
    """Electron spin parameters: ZFS, strain and field (mT); the
    gyromagnetic ratio is ``GAMMA_E_MHZ_PER_MT``."""

    d_gs: float
    b_field: tuple[float, float, float] = (0.0, 0.0, 0.0)
    e_x: float = 0.0
    e_y: float = 0.0

    def __post_init__(self) -> None:
        b = tuple(float(v) for v in self.b_field)
        if len(b) != 3:
            raise ValueError("b_field must be a 3-vector (mT)")
        object.__setattr__(self, "b_field", b)

    @property
    def b_z(self) -> float:
        return self.b_field[2]

    @property
    def is_axial(self) -> bool:
        return self.b_field[0] == 0.0 and self.b_field[1] == 0.0


@dataclass(frozen=True)
class SpinSystem:
    """One defect configuration: electron parameters plus exactly 3 sites."""

    electron: ElectronParams
    sites: tuple[NuclearSite, ...]
    include_nuclear_zeeman: bool = False
    include_quadrupole: bool = False

    def __post_init__(self) -> None:
        sites = tuple(self.sites)
        if len(sites) != 3:
            raise ValueError("a V_B defect has exactly 3 nearest nitrogen sites")
        object.__setattr__(self, "sites", sites)


def make_system(
    d_gs: float,
    b_z: float,
    n15_count: int,
    a14_mhz: float = 0.0,
    a15_mhz: float = 0.0,
    **kwargs,
) -> SpinSystem:
    """Convenience builder: axial field, axial tensors, ``n15_count`` 15N sites."""
    if n15_count not in (0, 1, 2, 3):
        raise ValueError("n15_count must be 0..3")
    sites = []
    for j in range(1, 4):
        if j <= 3 - n15_count:
            sites.append(axial_site(IsotopeSpecies.N14, a14_mhz, j))
        else:
            sites.append(axial_site(IsotopeSpecies.N15, a15_mhz, j))
    electron = ElectronParams(d_gs=d_gs, b_field=(0.0, 0.0, b_z))
    return SpinSystem(electron=electron, sites=tuple(sites), **kwargs)


@dataclass(frozen=True)
class HermitianMatrix:
    """Square matrix validated finite and Hermitian, checked and stored as float64 when
    its imaginary part is all zero, complex otherwise; ``build_full_hamiltonian``
    applies the same rule to its product before this check."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.entries)
        real = not (np.iscomplexobj(m) and m.imag.any())
        m = np.array(m.real, dtype=float) if real else np.array(m, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("entries must form a square matrix")
        scale = np.linalg.norm(m)
        # a NaN or inf entry makes the norm NaN or inf: only then scan the entries
        if not math.isfinite(scale) and not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
        if np.linalg.norm(m - m.conj().T) > HERMITICITY_RTOL * max(scale, 1.0):
            raise ValueError("matrix is not Hermitian within tolerance")
        object.__setattr__(self, "entries", _read_only(m))


@dataclass(frozen=True)
class Transition:
    """One electron spin resonance line for a fixed nuclear configuration:
    one row and column of a ``TransitionSet``, built only on request."""

    branch: int                       # +1 or -1: the m_S = 0 <-> +-1 transition
    nuclear_label: tuple[float, ...]  # per-site projections (m_1, m_2, m_3)
    frequency_mhz: float
    dipole_weight: float              # squared transverse matrix element, 1 in the secular limit


@dataclass(frozen=True, eq=False)
class TransitionSet:
    """One line per nuclear label and branch, as read-only (labels x 2)
    arrays: row i holds label ``labels[i]``, column k branch ``BRANCHES[k]``."""

    labels: tuple[tuple[float, ...], ...]
    frequency_mhz: np.ndarray
    dipole_weight: np.ndarray

    def __post_init__(self) -> None:
        self.frequency_mhz.setflags(write=False)
        self.dipole_weight.setflags(write=False)

    def frequencies(self, branch: int) -> np.ndarray:
        """The ``branch`` frequencies, ascending."""
        return np.sort(self.frequency_mhz[:, BRANCHES.index(branch)])

    @functools.cached_property
    def entries(self) -> tuple[Transition, ...]:
        """The lines as ``Transition`` objects, label by label, branch +1 first."""
        rows = zip(self.labels, self.frequency_mhz.tolist(), self.dipole_weight.tolist())
        return tuple(
            Transition(branch, label, f[k], w[k])
            for label, f, w in rows
            for k, branch in enumerate(BRANCHES)
        )


# --- spin operators and basis bookkeeping ---------------------------------

def spin_matrices(s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Sx, Sy, Sz) for spin s in the descending-m basis."""
    dim = int(round(2 * s)) + 1
    m = s - np.arange(dim)
    sz = np.diag(m).astype(complex)
    sp = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        mm = m[k]
        sp[k - 1, k] = math.sqrt(s * (s + 1) - mm * (mm + 1))
    sx = (sp + sp.conj().T) / 2.0
    sy = (sp - sp.conj().T) / 2.0j
    return sx, sy, sz


def _embed(op: np.ndarray, slot: int, dims: list[int]) -> np.ndarray:
    """Kronecker-embed a single-factor operator into the product space."""
    out = np.eye(1, dtype=complex)
    for k, d in enumerate(dims):
        out = np.kron(out, op if k == slot else np.eye(d, dtype=complex))
    return out


# (Sx, Sy, Sz) of the S = 1 electron, stacked along the first axis
_ELECTRON_OPERATORS = _read_only(np.array(spin_matrices(1.0)))
# Sx, Sy, Sz and 1_3 flattened to columns: the fixed part of the Kronecker sum's left operand
_LEFT_COLUMNS = _read_only(np.stack([*_ELECTRON_OPERATORS, np.eye(3)], axis=-1).reshape(9, 4))


@functools.lru_cache(maxsize=8)
def _nuclear_operators(species: tuple[IsotopeSpecies, ...]) -> np.ndarray:
    """Read-only (site, axis, N, N) array: each site's (Ix, Iy, Iz) embedded
    in the N-dimensional nuclear product space of ``species``.

    Keyed by the isotope pattern, so there are at most 2**3 = 8 entries.
    """
    dims = [sp.multiplicity for sp in species]
    return _read_only(np.array([
        [_embed(op, j, dims) for op in spin_matrices(sp.spin)]
        for j, sp in enumerate(species)
    ]))


def quadrupole_axes(site_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Local in-plane axes of a site: p points from the vacancy to the
    nitrogen (three directions at 120 deg starting at +x), o = p x z."""
    theta = 2.0 * math.pi * (site_index - 1) / 3.0
    p = np.array([math.cos(theta), math.sin(theta), 0.0])
    o = np.array([p[1], -p[0], 0.0])  # p x e_z
    return p, o


@functools.lru_cache(maxsize=72)
def _quadrupole_squares(species: tuple[IsotopeSpecies, ...], j: int, site_index: int) -> np.ndarray:
    """Read-only (3, N*N) array: I_p^2, I_z^2 and I_o^2 of site j of
    ``_nuclear_operators(species)`` along ``quadrupole_axes(site_index)``,
    flattened. At most 8 isotope patterns x 3 sites x 3 site indices."""
    ops = _nuclear_operators(species)[j]
    i_p, i_o = (np.tensordot(axis, ops, axes=1) for axis in quadrupole_axes(site_index))
    return _read_only(np.array([i_p @ i_p, ops[2] @ ops[2], i_o @ i_o]).reshape(3, -1))


# --- Hamiltonian builders --------------------------------------------------

def build_full_hamiltonian(sys: SpinSystem) -> HermitianMatrix:
    """Full ground-state Hamiltonian in the product basis.

    Sum of the zero-field-splitting term (with strain when e_x or e_y is
    nonzero), the electron Zeeman term, the nuclear Zeeman terms (negative
    sign, when enabled), the full-tensor hyperfine couplings, and the
    quadrupole terms along each site's local (p, z, o) axes (when enabled).

    The sum is assembled from its Kronecker structure,
    ``H = H_e (x) 1_N + sum_a S_a (x) B_a + 1_3 (x) H_n``: the 3x3 electron
    part H_e (zero-field splitting, strain, electron Zeeman), the N x N
    hyperfine fields ``B_a = sum_j sum_b A_j[a, b] I_j,b`` and the N x N
    nuclear part H_n (nuclear Zeeman, quadrupole), where N is the nuclear
    dimension. Each contraction is one matrix product of 2-D operand stacks,
    the one ``np.tensordot`` would make; H_n is summed site by site.
    """
    e = sys.electron
    sx, sy, sz = _ELECTRON_OPERATORS
    field = np.array([e.b_field])  # (1, 3): B . O is field @ (3, K) stack of O
    zeeman = (field @ _ELECTRON_OPERATORS.reshape(3, 9)).reshape(3, 3)
    h_e = e.d_gs * (sz @ sz) + GAMMA_E_MHZ_PER_MT * zeeman
    if e.e_x or e.e_y:
        h_e = h_e + e.e_x * (sy @ sy - sx @ sx) + e.e_y * (sx @ sy + sy @ sx)

    species = tuple(site.species for site in sys.sites)
    i_ops = _nuclear_operators(species)
    n = i_ops.shape[-1]
    # B_a = sum_j sum_b A_j[a, b] I_j,b: (3, 9) tensors, column 3j + b, @ (9, N*N)
    tensors = np.concatenate([site.hfi_tensor for site in sys.sites], axis=1)
    fields = tensors @ i_ops.reshape(9, n * n)

    h_n = np.zeros((1, n * n), dtype=complex)
    for j, site in enumerate(sys.sites):
        if sys.include_nuclear_zeeman:
            gamma_mhz = site.species.gamma_n_khz_per_mt * 1e-3
            h_n = h_n + (-gamma_mhz) * (field @ i_ops[j].reshape(3, n * n))
        if sys.include_quadrupole:
            i_p2, i_z2, i_o2 = _quadrupole_squares(species, j, site.site_index)
            p_p, p_z, p_o = site.quadrupole
            h_n = h_n + p_p * i_p2 + p_z * i_z2 + p_o * i_o2

    # sum_k L_k (x) R_k, L = (H_e, Sx, Sy, Sz, 1_3), R = (1_N, Bx, By, Bz, H_n), as one
    # (9, 5) @ (5, N*N) product, real if its imaginary part is all zero (axial systems);
    # entry [a, b, m, n] goes to row aN + m, column bN + n
    left = np.concatenate([h_e.reshape(9, 1), _LEFT_COLUMNS], axis=1)
    right = np.concatenate([np.eye(n).reshape(1, n * n), fields, h_n])
    h = left @ right
    h = (h if h.imag.any() else h.real).reshape(3, 3, n, n).transpose(0, 2, 1, 3)
    return HermitianMatrix(h.reshape(3 * n, 3 * n))


# --- eigensolver -----------------------------------------------------------

def eigen_hermitian(m: HermitianMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a Hermitian matrix with LAPACK (``numpy.linalg.eigh``)
    in the dtype ``HermitianMatrix`` chose: a real matrix takes the faster
    real symmetric driver and gets real eigenvectors.

    Returns (eigenvalues ascending, eigenvector columns); columns form a
    unitary matrix with M v_k = w_k v_k.
    """
    return np.linalg.eigh(m.entries)


# --- transitions -----------------------------------------------------------

def transition_frequencies(sys: SpinSystem, mode: str) -> TransitionSet:
    """Electron spin transition frequencies m_S = 0 <-> +-1, one line per
    nuclear product state and branch, as arrays.

    ``effective`` evaluates the secular expression f = (D +- gamma_e*Bz)
    +- sum_j A_zz_j m_j directly (axial field required). ``full``
    diagonalizes the full Hamiltonian, classifies eigenstates by their
    dominant electron spin projection and nuclear label, and returns energy
    differences to the matching m_S = 0 state; the dipole weight is the
    squared transverse electron matrix element normalized to 1 in the
    secular limit.
    """
    if mode == "effective":
        return _effective_transitions(sys)
    if mode == "full":
        return _full_transitions(sys)
    raise ValueError(f"mode must be 'effective' or 'full', got {mode!r}")


def _effective_transitions(sys: SpinSystem) -> TransitionSet:
    if not sys.electron.is_axial:
        raise NonAxialFieldError("effective model requires b_field = (0, 0, Bz)")
    e = sys.electron
    labels = _label_table(tuple(s.species for s in sys.sites))
    # sum_j A_zz_j m_j from 0, site by site: the order of Python's sum
    hf = np.zeros(len(labels))
    for a, m in zip((s.a_zz for s in sys.sites), np.array(labels).T):
        hf += a * m
    shift = GAMMA_E_MHZ_PER_MT * e.b_z + hf
    frequency = e.d_gs + np.stack([shift, -shift], axis=1)
    return TransitionSet(labels, frequency, np.ones(frequency.shape))


def _greedy_pairing(overlap: np.ndarray) -> np.ndarray:
    """Column paired with each row of a square overlap matrix, chosen
    greedily: the largest overlap whose row and column are both still free
    first, equal overlaps in row-major order (the order ``np.argmax`` picks
    them in), each row and column used once."""
    n = len(overlap)
    col_of = [-1] * n
    col_free = [True] * n
    unpaired = n
    # one stable sort visits the overlaps in that order; walk it once, turned
    # into Python ints 64 at a time, as the walk mostly stops early (after a
    # median of 49 of up to 729 on the benchmark's dense corpus)
    order = np.argsort(-overlap, axis=None, kind="stable")
    chunks = (order[k:k + 64].tolist() for k in range(0, order.size, 64))
    for flat in itertools.chain.from_iterable(chunks):
        i, j = divmod(flat, n)
        if col_of[i] < 0 and col_free[j]:
            col_of[i] = j
            col_free[j] = False
            unpaired -= 1
            if not unpaired:
                break
    return np.array(col_of)


def _pair_labels(weights: np.ndarray, col_block: np.ndarray) -> np.ndarray:
    """(M, N) eigenstate that ``_greedy_pairing`` pairs with each label of each
    manifold, from (M, N, K) overlaps whose eigenstate k lies in manifold
    ``col_block[k]``, N per manifold. One argmax takes each label's first
    maximum. Where a manifold's first maxima are its own N states, each once,
    they are the walk's answer: the walk reaches a row first at its first
    maximum, and every row paired before was paired at its own (induction), so
    only a row with the same first maximum could hold that column. Others walk."""
    col_of = weights.argmax(axis=2)
    block_of = col_block.tolist()
    for b, row in enumerate(col_of.tolist()):
        if len({k for k in row if block_of[k] == b}) < len(row):
            cols = np.flatnonzero(col_block == b)
            col_of[b] = cols[_greedy_pairing(weights[b][:, cols])]
    return col_of


def _full_transitions(sys: SpinSystem) -> TransitionSet:
    values, vectors = eigen_hermitian(build_full_hamiltonian(sys))
    labels = _label_table(tuple(s.species for s in sys.sites))
    n = len(labels)
    # (m_S block, nuclear label, eigenstate), following the product basis order
    blocks = vectors.reshape(3, n, -1)
    weights = np.abs(blocks) ** 2
    per_ms = weights.sum(axis=1)
    col_block = np.argmax(per_ms, axis=0)
    character = per_ms.max(axis=0)
    ambiguous = np.flatnonzero(character < MS_CHARACTER_THRESHOLD)
    if ambiguous.size:
        k = int(ambiguous[0])
        raise CharacterAmbiguityError(
            f"eigenstate {k} has no electron projection with overlap > "
            f"{MS_CHARACTER_THRESHOLD} (best {character[k]:.3f}); "
            "too close to a level anticrossing"
        )
    for ms, size in zip(MS_VALUES, np.bincount(col_block, minlength=3).tolist()):
        if size != n:
            raise CharacterAmbiguityError(
                f"manifold m_S={ms:+.0f} collected {size} states, expected {n}"
            )

    # Within each m_S manifold, greedily match eigenstates to nuclear labels
    # by their overlap with the corresponding basis state. Ties only occur
    # between degenerate states, where any assignment gives the same energies.
    col_of = _pair_labels(weights, col_block)
    # each label's m_S = 0 state (row 1) and the S_x-coupled overlap with its
    # m_S = +1 and -1 partners (rows 0 and 2), one (3, N, N) product per branch
    cols0, cols_pm = col_of[1], col_of[::2]
    sx_v0 = (_ELECTRON_OPERATORS[0].real @ blocks[:, :, cols0].reshape(3, -1)).reshape(3, n, n)
    element = np.array([(blocks[:, :, cols].conj() * sx_v0).sum(axis=(0, 1)) for cols in cols_pm])
    weight = 2.0 * np.abs(element) ** 2
    return TransitionSet(labels, (values[cols_pm] - values[cols0]).T, weight.T)
