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
import itertools
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


def product_basis(sys: SpinSystem) -> list[tuple[float, tuple[float, ...]]]:
    """Basis labels (m_S, (m_1, m_2, m_3)) in Kronecker (row) order."""
    return [(ms, label) for ms in MS_VALUES for label in nuclear_labels(sys)]


def nuclear_labels(sys: SpinSystem) -> list[tuple[float, ...]]:
    """All (m_1, m_2, m_3) product states in basis order."""
    return list(itertools.product(*[s.species.projections for s in sys.sites]))


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
    """
    e = sys.electron
    dims = [3] + [s.species.multiplicity for s in sys.sites]
    sx, sy, sz = spin_matrices(1.0)
    s_ops = tuple(_embed(op, 0, dims) for op in (sx, sy, sz))
    bx, by, bz = e.b_field

    h = e.d_gs * (s_ops[2] @ s_ops[2])
    if sys.include_strain:
        h = h + e.e_x * (s_ops[1] @ s_ops[1] - s_ops[0] @ s_ops[0])
        h = h + e.e_y * (s_ops[0] @ s_ops[1] + s_ops[1] @ s_ops[0])
    h = h + e.gamma_e * (bx * s_ops[0] + by * s_ops[1] + bz * s_ops[2])

    for j, site in enumerate(sys.sites):
        ix, iy, iz = spin_matrices(site.species.spin)
        i_ops = tuple(_embed(op, 1 + j, dims) for op in (ix, iy, iz))
        a = site.hfi_tensor
        for alpha in range(3):
            for beta in range(3):
                if a[alpha, beta] != 0.0:
                    h = h + a[alpha, beta] * (s_ops[alpha] @ i_ops[beta])
        if sys.include_nuclear_zeeman:
            gamma_mhz = site.species.gamma_n_khz_per_mt * 1e-3
            h = h + (-gamma_mhz) * (bx * i_ops[0] + by * i_ops[1] + bz * i_ops[2])
        if sys.include_quadrupole:
            p_axis, o_axis = quadrupole_axes(site.site_index)
            i_p = p_axis[0] * i_ops[0] + p_axis[1] * i_ops[1] + p_axis[2] * i_ops[2]
            i_o = o_axis[0] * i_ops[0] + o_axis[1] * i_ops[1] + o_axis[2] * i_ops[2]
            p_p, p_z, p_o = site.quadrupole
            h = h + p_p * (i_p @ i_p) + p_z * (i_ops[2] @ i_ops[2]) + p_o * (i_o @ i_o)

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
        overlap = weights[b][:, cols]
        for _ in range(n):
            i, j = np.unravel_index(np.argmax(overlap), overlap.shape)
            col_of[b, i] = cols[j]
            overlap[i, :] = -1.0
            overlap[:, j] = -1.0

    sx = spin_matrices(1.0)[0]
    entries = []
    for i, label in enumerate(labels):
        k0 = col_of[MS_VALUES.index(0.0), i]
        sx_v0 = sx @ blocks[:, :, k0]
        for branch in (1, -1):
            kb = col_of[MS_VALUES.index(branch), i]
            element = np.vdot(blocks[:, :, kb], sx_v0)
            weight = 2.0 * float(abs(element) ** 2)
            frequency = float(values[kb]) - float(values[k0])
            entries.append(Transition(branch, label, frequency, weight))
    return TransitionSet(tuple(entries))


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
