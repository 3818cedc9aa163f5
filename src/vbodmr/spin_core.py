"""Spin Hamiltonians of a single V_B defect and its three nearest nitrogen nuclei.

The defect electron spin (S = 1) couples to the three nearest-neighbor
nitrogen nuclear spins (I = 1 for 14N, I = 1/2 for 15N). This module builds

* the full ground-state Hamiltonian: zero-field splitting with strain,
  electron Zeeman, nuclear Zeeman, full-tensor hyperfine coupling and
  nuclear quadrupole terms, and
* the secular effective Hamiltonian valid under an axial bias field, which
  is diagonal in the product basis,

diagonalizes them exactly with LAPACK (``numpy.linalg.eigh``), and extracts the
electron spin transition frequencies used by the spectrum model.

The full Hamiltonian is assembled from its tensor structure,
H = H_e (x) 1_N + sum_a S_a (x) B_a + 1_3 (x) H_n: a 3x3 electron part, the
N x N hyperfine fields B_a seen by electron axis a, and an N x N nuclear
part, with N the dimension of the nuclear product space (at most 27). The
nuclear spin operators are built once per isotope pattern and cached
read-only; no operator of the full 3N-dimensional space is built per call.

Conventions
-----------
* z is the defect symmetry axis; x, y span the hBN plane.
* Product basis order: electron factor first, then nitrogen sites 1, 2, 3.
  Within each factor states run from the highest magnetic quantum number
  down (|+1>, |0>, |-1> for a spin-1 factor). This ordering is fixed so
  eigenvector labeling is reproducible.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    GAMMA_E_MHZ_PER_MT,
    GAMMA_N14_KHZ_PER_MT,
    GAMMA_N15_KHZ_PER_MT,
    H_PLANCK_SI,
    MU0_SI,
)

HERMITICITY_RTOL = 1e-12
# Electron spin projections in basis order: row b*N + i of an N-label system
# holds m_S = MS_VALUES[b] and nuclear label i.
MS_VALUES = (1.0, 0.0, -1.0)
# Minimum |<psi|P_mS|psi>| for an eigenstate to count as having a definite
# electron spin projection; below this the field is too close to a level
# anticrossing for the transition extraction to be meaningful.
MS_CHARACTER_THRESHOLD = 0.9


class NonAxialFieldError(ValueError):
    """The effective (secular) model requires B along the symmetry axis."""


class CharacterAmbiguityError(RuntimeError):
    """No dominant electron spin projection; state mixing is too strong."""


class IsotopeSpecies(enum.Enum):
    """Stable nitrogen isotopes with their spin data."""

    N14 = "N14"
    N15 = "N15"

    @property
    def spin(self) -> float:
        return 1.0 if self is IsotopeSpecies.N14 else 0.5

    @property
    def gamma_n_khz_per_mt(self) -> float:
        if self is IsotopeSpecies.N14:
            return GAMMA_N14_KHZ_PER_MT
        return GAMMA_N15_KHZ_PER_MT

    @property
    def multiplicity(self) -> int:
        return int(round(2.0 * self.spin)) + 1

    @property
    def projections(self) -> tuple[float, ...]:
        """Allowed m_I values, highest first."""
        return tuple(self.spin - k for k in range(self.multiplicity))


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
        tensor.setflags(write=False)
        object.__setattr__(self, "hfi_tensor", tensor)
        if self.site_index not in (1, 2, 3):
            raise ValueError(f"site_index must be 1, 2 or 3, got {self.site_index}")
        if len(self.quadrupole) != 3:
            raise ValueError("quadrupole must hold (P_p, P_z, P_o)")
        if self.species.spin < 1.0 and any(p != 0.0 for p in self.quadrupole):
            raise ValueError("quadrupole strengths must be zero for spin-1/2 species")

    @property
    def a_zz(self) -> float:
        return float(self.hfi_tensor[2, 2])


def axial_site(
    species: IsotopeSpecies,
    a_zz_mhz: float,
    site_index: int = 1,
    quadrupole: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> NuclearSite:
    """Site with a purely axial hyperfine tensor diag(0, 0, A_zz)."""
    tensor = np.diag([0.0, 0.0, float(a_zz_mhz)])
    return NuclearSite(species, tensor, quadrupole, site_index)


@dataclass(frozen=True)
class ElectronParams:
    """Electron spin parameters: ZFS, strain, gyromagnetic ratio, field (mT)."""

    d_gs: float
    b_field: tuple[float, float, float] = (0.0, 0.0, 0.0)
    e_x: float = 0.0
    e_y: float = 0.0
    gamma_e: float = GAMMA_E_MHZ_PER_MT

    def __post_init__(self) -> None:
        if self.gamma_e <= 0:
            raise ValueError("gamma_e must be positive")
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
    include_strain: bool = False

    def __post_init__(self) -> None:
        sites = tuple(self.sites)
        if len(sites) != 3:
            raise ValueError("a V_B defect has exactly 3 nearest nitrogen sites")
        object.__setattr__(self, "sites", sites)

    @property
    def dim(self) -> int:
        return 3 * math.prod(s.species.multiplicity for s in self.sites)

    @property
    def n15_count(self) -> int:
        return sum(1 for s in self.sites if s.species is IsotopeSpecies.N15)


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
    """Square complex matrix validated to be Hermitian on construction."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("entries must form a square matrix")
        scale = np.linalg.norm(m)
        if np.linalg.norm(m - m.conj().T) > HERMITICITY_RTOL * max(scale, 1.0):
            raise ValueError("matrix is not Hermitian within tolerance")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class Transition:
    """One electron spin resonance line for a fixed nuclear configuration."""

    branch: int                       # +1 or -1: the m_S = 0 <-> +-1 transition
    nuclear_label: tuple[float, ...]  # per-site projections (m_1, m_2, m_3)
    frequency_mhz: float
    dipole_weight: float              # squared transverse matrix element, 1 in the secular limit


@dataclass(frozen=True)
class TransitionSet:
    entries: tuple[Transition, ...]

    def branch(self, branch: int) -> tuple[Transition, ...]:
        return tuple(t for t in self.entries if t.branch == branch)

    def frequencies(self, branch: int) -> np.ndarray:
        return np.array(sorted(t.frequency_mhz for t in self.branch(branch)))


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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# (Sx, Sy, Sz) of the S = 1 electron, stacked along the first axis
_ELECTRON_OPERATORS = _read_only(np.array(spin_matrices(1.0)))


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


@functools.lru_cache(maxsize=8)
def _label_table(species: tuple[IsotopeSpecies, ...]) -> tuple[tuple[float, ...], ...]:
    """Per-site projections (m_1, m_2, m_3) of every nuclear product state
    of ``species``, in basis order: the diagonals of the cached I_z
    operators, so labels and Kronecker rows agree by construction. The one
    enumeration of product states; a tuple, so read-only."""
    iz = np.diagonal(_nuclear_operators(species)[:, 2], axis1=1, axis2=2).real
    return tuple(zip(*iz.tolist()))


def product_basis(sys: SpinSystem) -> list[tuple[float, tuple[float, ...]]]:
    """Basis labels (m_S, (m_1, m_2, m_3)) in Kronecker (row) order."""
    return [(ms, label) for ms in MS_VALUES for label in nuclear_labels(sys)]


def nuclear_labels(sys: SpinSystem) -> list[tuple[float, ...]]:
    """All (m_1, m_2, m_3) product states in basis order."""
    return list(_label_table(tuple(s.species for s in sys.sites)))


def quadrupole_axes(site_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Local in-plane axes of a site: p points from the vacancy to the
    nitrogen (three directions at 120 deg starting at +x), o = p x z."""
    theta = 2.0 * math.pi * (site_index - 1) / 3.0
    p = np.array([math.cos(theta), math.sin(theta), 0.0])
    o = np.array([p[1], -p[0], 0.0])  # p x e_z
    return p, o


# --- Hamiltonian builders --------------------------------------------------

def build_effective_hamiltonian(sys: SpinSystem) -> HermitianMatrix:
    """Secular Hamiltonian D*Sz^2 + gamma_e*Bz*Sz + Sz * sum_j A_zz_j * Iz_j.

    Valid for an axial bias field away from the level anticrossings. Only the
    A_zz component of each hyperfine tensor enters; the include flags are
    ignored. The result is diagonal in the product basis.
    """
    if not sys.electron.is_axial:
        raise NonAxialFieldError("effective model requires b_field = (0, 0, Bz)")
    e = sys.electron
    azz = [s.a_zz for s in sys.sites]
    diag = []
    for ms, label in product_basis(sys):
        hf = sum(a * m for a, m in zip(azz, label))
        diag.append(e.d_gs * ms * ms + e.gamma_e * e.b_z * ms + ms * hf)
    return HermitianMatrix(np.diag(np.array(diag, dtype=complex)))


def build_full_hamiltonian(sys: SpinSystem) -> HermitianMatrix:
    """Full ground-state Hamiltonian in the product basis.

    Sum of the zero-field-splitting term (with strain when enabled), the
    electron Zeeman term, the nuclear Zeeman terms (negative sign, when
    enabled), the full-tensor hyperfine couplings, and the quadrupole terms
    along each site's local (p, z, o) axes (when enabled).

    The sum is assembled from its Kronecker structure,
    ``H = H_e (x) 1_N + sum_a S_a (x) B_a + 1_3 (x) H_n``: the 3x3 electron
    part H_e (zero-field splitting, strain, electron Zeeman), the N x N
    hyperfine fields ``B_a = sum_j sum_b A_j[a, b] I_j,b`` and the N x N
    nuclear part H_n (nuclear Zeeman, quadrupole), where N is the nuclear
    dimension. The nuclear operators are built once per isotope pattern.
    """
    e = sys.electron
    s_ops = _ELECTRON_OPERATORS
    sx, sy, sz = s_ops
    field = np.array(e.b_field)

    h_e = e.d_gs * (sz @ sz) + e.gamma_e * np.tensordot(field, s_ops, axes=1)
    if sys.include_strain:
        h_e = h_e + e.e_x * (sy @ sy - sx @ sx) + e.e_y * (sx @ sy + sy @ sx)

    i_ops = _nuclear_operators(tuple(site.species for site in sys.sites))
    n = i_ops.shape[-1]
    tensors = np.array([site.hfi_tensor for site in sys.sites])
    fields = np.tensordot(tensors, i_ops, axes=([0, 2], [0, 1]))

    h_n = np.zeros((n, n), dtype=complex)
    for site, ops in zip(sys.sites, i_ops):
        if sys.include_nuclear_zeeman:
            gamma_mhz = site.species.gamma_n_khz_per_mt * 1e-3
            h_n = h_n + (-gamma_mhz) * np.tensordot(field, ops, axes=1)
        if sys.include_quadrupole:
            p_axis, o_axis = quadrupole_axes(site.site_index)
            i_p = np.tensordot(p_axis, ops, axes=1)
            i_o = np.tensordot(o_axis, ops, axes=1)
            p_p, p_z, p_o = site.quadrupole
            h_n = h_n + p_p * (i_p @ i_p) + p_z * (ops[2] @ ops[2]) + p_o * (i_o @ i_o)

    # sum_k L_k (x) R_k over L = (H_e, Sx, Sy, Sz, 1_3), R = (1_N, Bx, By, Bz, H_n),
    # laid out m_S-major: entry [a, m, b, n] goes to row a*N + m, column b*N + n
    left = np.concatenate([h_e[None], s_ops, np.eye(3)[None]])
    right = np.concatenate([np.eye(n)[None], fields, h_n[None]])
    h = np.tensordot(left, right, axes=(0, 0)).transpose(0, 2, 1, 3).reshape(3 * n, 3 * n)
    return HermitianMatrix(h)


# --- eigensolver -----------------------------------------------------------

def eigen_hermitian(m: HermitianMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a Hermitian matrix with LAPACK (``numpy.linalg.eigh``).

    Returns (eigenvalues ascending, eigenvector columns); columns form a
    unitary matrix with M v_k = w_k v_k.
    """
    return np.linalg.eigh(m.entries)


# --- transitions -----------------------------------------------------------

def transition_frequencies(sys: SpinSystem, mode: str = "effective") -> TransitionSet:
    """Electron spin transition frequencies m_S = 0 <-> +-1, one entry per
    nuclear product state and branch.

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
    azz = [s.a_zz for s in sys.sites]
    entries = []
    for label in nuclear_labels(sys):
        hf = sum(a * m for a, m in zip(azz, label))
        for branch in (1, -1):
            f = e.d_gs + branch * (e.gamma_e * e.b_z + hf)
            entries.append(Transition(branch, label, f, 1.0))
    return TransitionSet(tuple(entries))


def _greedy_pairing(overlap: np.ndarray) -> np.ndarray:
    """Column paired with each row of a square overlap matrix, chosen
    greedily: the largest overlap whose row and column are both still free
    first, equal overlaps in row-major order (the order ``np.argmax`` picks
    them in), each row and column used once."""
    n = len(overlap)
    col_of = [-1] * n
    col_free = [True] * n
    unpaired = n
    # one stable sort visits the overlaps in that order; walk it once
    for flat in np.argsort(-overlap, axis=None, kind="stable").tolist():
        i, j = divmod(flat, n)
        if col_of[i] < 0 and col_free[j]:
            col_of[i] = j
            col_free[j] = False
            unpaired -= 1
            if not unpaired:
                break
    return np.array(col_of)


def _full_transitions(sys: SpinSystem) -> TransitionSet:
    values, vectors = eigen_hermitian(build_full_hamiltonian(sys))
    labels = nuclear_labels(sys)
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

    # Within each m_S manifold, greedily match eigenstates to nuclear labels
    # by their overlap with the corresponding basis state. Ties only occur
    # between degenerate states, where any assignment gives the same energies.
    col_of = np.empty((3, n), dtype=int)
    for b, ms in enumerate(MS_VALUES):
        cols = np.flatnonzero(col_block == b)
        if len(cols) != n:
            raise CharacterAmbiguityError(
                f"manifold m_S={ms:+.0f} collected {len(cols)} states, expected {n}"
            )
        col_of[b] = cols[_greedy_pairing(weights[b][:, cols])]

    # each label's m_S = 0 state and the S_x-coupled overlap with its m_S = +-1
    # partners, over all labels at once
    cols0 = col_of[MS_VALUES.index(0.0)]
    sx_v0 = np.tensordot(_ELECTRON_OPERATORS[0], blocks[:, :, cols0], axes=1)
    frequency, weight = {}, {}
    for branch in (1, -1):
        cols = col_of[MS_VALUES.index(branch)]
        element = (blocks[:, :, cols].conj() * sx_v0).sum(axis=(0, 1))
        weight[branch] = 2.0 * np.abs(element) ** 2
        frequency[branch] = values[cols] - values[cols0]
    entries = tuple(
        Transition(branch, label, float(frequency[branch][i]), float(weight[branch][i]))
        for i, label in enumerate(labels)
        for branch in (1, -1)
    )
    return TransitionSet(entries)


# --- point-dipole estimate -------------------------------------------------

def dipolar_azz(
    distance_nm: float,
    gamma_n_khz_per_mt: float,
    gamma_e_mhz_per_mt: float = GAMMA_E_MHZ_PER_MT,
) -> float:
    """Point-dipole A_zz (MHz) for an in-plane nucleus at the given distance.

    With the electron localized at the vacancy and the nucleus in the plane,
    the geometry factor is exactly -1, giving
    ``-(mu0 / 4 pi) * h * gamma_e * gamma_n / r^3``. This is the dipolar part
    only; the measured couplings also contain a Fermi contact term, so the
    result is an order-of-magnitude estimate, not the full A_zz.
    """
    if distance_nm <= 0:
        raise ValueError("distance must be positive")
    r_m = distance_nm * 1e-9
    gamma_e_hz_per_t = gamma_e_mhz_per_mt * 1e9
    gamma_n_hz_per_t = gamma_n_khz_per_mt * 1e6
    a_hz = -(MU0_SI / (4.0 * math.pi)) * H_PLANCK_SI \
        * gamma_e_hz_per_t * gamma_n_hz_per_t / r_m**3
    return a_hz * 1e-6
