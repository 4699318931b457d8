"""Transverse/longitudinal-field Ising chains: ground states and rugosity.

The spin Hamiltonian on a periodic chain of N sites is

    H = -(1/2) sum_j sx_j sx_{j+1}  -  (h/2) sum_j sz_j  +  (g/2) sum_j sx_j,

in units of the nearest-neighbor coupling; h and g are dimensionless.  With
this orientation a negative longitudinal field g pins the chain onto the
all-+x product state, so the ground-state rugosity stays small for g < 0 and
jumps across g = 0.  At g = 0 the model maps to free fermions; the
antiperiodic momentum sector hosts the even-parity ground state and yields
closed forms for the rugosity and the nearest-neighbor correlators.  For
g != 0 the chain is solved by exact diagonalization, which works in the
symmetry sector that holds the ground state: states symmetric under
rotations and reversal of the ring, restricted to even spin-flip parity at
g = 0 (see :func:`ed_ground`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConvergenceError, ResourceLimitError, UsageError
from .states import DensityMatrix, PureState
from .texture import computational_basis, rugosity_pure, texture_in_basis

MAX_ED_SITES = 20
# dense eigh beats Lanczos up to about 200 orbits (2-core machine, one BLAS
# thread); 256 keeps every sector of n <= 12 dense, so those solves never
# import scipy, and sends every sector of n >= 14 to Lanczos
MAX_DENSE_SECTOR = 256
MAX_ANALYTIC_SITES = 10 ** 6
DEGENERACY_GAP = 1e-8

_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])


@dataclass(frozen=True)
class ChainSpec:
    """Chain parameters: even site count, transverse field h, longitudinal
    field g, periodic boundary."""

    n: int
    h: float
    g: float = 0.0
    boundary: str = "periodic"

    def __post_init__(self):
        if self.n < 2 or self.n % 2 != 0:
            raise UsageError(f"site count must be even and >= 2, got {self.n}")
        if self.boundary != "periodic":
            raise UsageError(f"only periodic chains are supported, got {self.boundary!r}")


@dataclass(frozen=True)
class MomentumMode:
    """One antiperiodic momentum mode of the free-fermion solution."""

    p: int
    phi: float
    lam: float
    theta: float
    u: float
    v_im: float


@dataclass(frozen=True, eq=False)
class PairObservables:
    """Nearest-neighbor reduced state and its rugosity, both from the direct
    grand-sum evaluation and from the closed form -ln[(1 + Cxx)/4]."""

    m_z: float
    c_xx: float
    c_yy: float
    c_zz: float
    rho_pair: DensityMatrix
    pair_rugosity: float
    pair_rugosity_symmetric: float


@dataclass(frozen=True, eq=False)
class EDGroundState:
    state: PureState
    energy: float
    gap: float
    degenerate: bool


@dataclass(frozen=True, eq=False)
class ScanGrid:
    """Rugosity observable over a parameter grid with central differences.

    ``first_derivative`` and ``second_derivative`` act on the normalized
    rugosity and are two (respectively four) entries shorter than the grid;
    ``kink_estimate`` is the grid point of largest curvature magnitude inside
    the requested window, or None when no window was given.
    """

    axis: str
    points: np.ndarray
    rugosity: np.ndarray
    normalized_rugosity: np.ndarray
    first_derivative: np.ndarray
    second_derivative: np.ndarray
    kink_estimate: Optional[float]
    n_sites: int
    observable: str
    method: str


# ----------------------------------------------------------------------
# Analytic (free-fermion) branch, g = 0
# ----------------------------------------------------------------------

def _mode_arrays(n: int, h: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    p = np.arange(1, n // 2 + 1)
    phi = (2 * p - 1) * np.pi / n
    lam = np.sqrt((h - np.cos(phi)) ** 2 + np.sin(phi) ** 2)
    delta = np.cos(phi) - h
    # normalized ground-eigenvector form of the mixing angle; the argument
    # stays in [-1, 0] for every h because lam >= |delta|
    arg = (delta - lam) / np.sqrt(2.0 * lam * (lam - delta))
    theta = np.arccos(np.clip(arg, -1.0, 1.0))
    return phi, lam, theta


def _require_analytic(spec: ChainSpec) -> None:
    if spec.g != 0.0:
        raise UsageError("the free-fermion branch requires g = 0")
    if spec.n > MAX_ANALYTIC_SITES:
        raise ResourceLimitError(f"analytic branch limited to {MAX_ANALYTIC_SITES} sites")


def bogoliubov_modes(spec: ChainSpec) -> List[MomentumMode]:
    """Momentum modes phi_p = (2p-1) pi / N with dispersion
    ``lam = sqrt((h - cos phi)^2 + sin^2 phi)`` and the rotation angle
    diagonalizing each momentum block."""
    _require_analytic(spec)
    phi, lam, theta = _mode_arrays(spec.n, spec.h)
    return [
        MomentumMode(p=i + 1, phi=float(phi[i]), lam=float(lam[i]),
                     theta=float(theta[i]), u=float(np.cos(theta[i])),
                     v_im=float(np.sin(theta[i])))
        for i in range(phi.size)
    ]


def analytic_rugosity(spec: ChainSpec) -> float:
    """Ground-state rugosity of the g = 0 chain in closed form.

    The even-parity ground state is a paired Bogoliubov state; its overlap
    with the uniform superposition gives

        R = ln 2 - sum_p ln sin^2(theta_p - phi_p / 2),

    where sin^2(theta_p - phi_p / 2) equals the pair amplitude
    ``|v_p cos(phi/2) - i u_p sin(phi/2)|^2`` with u_p = cos theta_p and
    v_p = i sin theta_p.
    """
    _require_analytic(spec)
    phi, _, theta = _mode_arrays(spec.n, spec.h)
    s2 = np.sin(theta - phi / 2.0) ** 2
    if np.any(s2 < 1e-300):
        warnings.warn("vanishing pair overlap; rugosity is infinite", RuntimeWarning,
                      stacklevel=2)
        return math.inf
    return float(math.log(2.0) - np.sum(np.log(s2)))


def _pair_contractions(n: int, h: float, distances: Sequence[int]) -> List[float]:
    """Two-point fermionic contractions G(r) of the even-sector ground state."""
    phi, _, theta = _mode_arrays(n, h)
    # ground-pair mixing angle chi = pi - theta
    s2 = np.sin(theta) ** 2
    sc = -np.sin(theta) * np.cos(theta)
    return [(4.0 / n) * float(np.sum(s2 * np.cos(phi * r) + sc * np.sin(phi * r)))
            - (1.0 if r == 0 else 0.0) for r in distances]


def _pair_state_matrix(m_z: float, c_xx: float, c_yy: float, c_zz: float) -> np.ndarray:
    eye4 = np.eye(4, dtype=complex)
    rho = (eye4
           + m_z * (np.kron(_SZ, np.eye(2)) + np.kron(np.eye(2), _SZ))
           + c_xx * np.kron(_SX, _SX)
           + c_yy * np.kron(_SY, _SY)
           + c_zz * np.kron(_SZ, _SZ)) / 4.0
    return rho


def _pair_report(m_z: float, c_xx: float, c_yy: float, c_zz: float) -> PairObservables:
    rho = DensityMatrix(_pair_state_matrix(m_z, c_xx, c_yy, c_zz), (2, 2))
    direct = texture_in_basis(rho, computational_basis(4)).rugosity
    symmetric = -math.log((1.0 + c_xx) / 4.0)
    return PairObservables(m_z=m_z, c_xx=c_xx, c_yy=c_yy, c_zz=c_zz, rho_pair=rho,
                           pair_rugosity=direct, pair_rugosity_symmetric=symmetric)


def pair_observables(spec: ChainSpec) -> PairObservables:
    """Magnetization, nearest-neighbor correlators and pair rugosity of the
    g = 0 ground state, from the fermionic two-point contractions."""
    _require_analytic(spec)
    g0, gp, gm = _pair_contractions(spec.n, spec.h, (0, 1, -1))
    m_z = -g0
    c_xx = gp
    c_yy = gm
    c_zz = m_z * m_z - gp * gm
    return _pair_report(m_z, c_xx, c_yy, c_zz)


# ----------------------------------------------------------------------
# Exact diagonalization branch
# ----------------------------------------------------------------------

def _dihedral_orbits(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orbits of the 2^n basis states under rotations and reversal of the ring.

    Returns the representative (smallest member) of each orbit, the orbit
    index of every basis state, and the orbit sizes.
    """
    dim = 1 << n
    # int32 holds the states of up to 30 sites and halves the memory traffic
    states = np.arange(dim, dtype=np.int32)
    mirror = np.zeros(dim, dtype=np.int32)
    for j in range(n):
        mirror |= ((states >> j) & 1) << (n - 1 - j)
    rep = states.copy()
    for image in (states, mirror):
        for _ in range(n):
            np.minimum(rep, image, out=rep)
            image = ((image << 1) | (image >> (n - 1))) & (dim - 1)
    # a representative is its own orbit minimum, so numbering the states that
    # equal their minimum, in order, numbers the orbits without a sort
    is_rep = rep == states
    orbit = (np.cumsum(is_rep) - 1)[rep]
    return states[is_rep], orbit, np.bincount(orbit)


def _popcount(states: np.ndarray, n: int) -> np.ndarray:
    return sum((states >> j) & 1 for j in range(n))


def _sector_hamiltonian(spec: ChainSpec, orbits: Tuple[np.ndarray, np.ndarray, np.ndarray],
                        keep: np.ndarray):
    """Chain Hamiltonian on the symmetric states of the kept orbits.

    Orbit state |a> is the normalized uniform superposition of its N_a
    members, so <b|H|a> = sum c sqrt(N_a / N_b) over the flip terms c that
    take the representative of a into orbit b.  Dense up to
    ``MAX_DENSE_SECTOR`` orbits, CSR above.
    """
    n, h, g = spec.n, spec.h, spec.g
    reps, orbit, size = orbits
    kept = np.flatnonzero(keep)
    m = kept.size
    sector = np.full(reps.size, -1, dtype=np.int64)
    sector[kept] = np.arange(m)
    states = reps[kept]
    masks = [(1 << j) | (1 << ((j + 1) % n)) for j in range(n)]
    coeffs = [-0.5] * n
    if g != 0.0:
        masks += [1 << j for j in range(n)]
        coeffs += [g / 2.0] * n
    targets = orbit[states[:, None] ^ np.array(masks)]
    # row a holds <b|H|a> = <a|H|b>: the diagonal, then one entry per flip
    # term; entries that land on the same orbit b add up
    index = np.column_stack([np.arange(m), sector[targets]])
    value = np.column_stack([-(h / 2.0) * (n - 2.0 * _popcount(states, n)),
                             np.array(coeffs) * np.sqrt(size[kept][:, None] / size[targets])])
    if m <= MAX_DENSE_SECTOR:
        flat = (np.arange(m)[:, None] * m + index).ravel()
        return np.bincount(flat, weights=value.ravel(), minlength=m * m).reshape(m, m)
    from scipy.sparse import csr_array
    indptr = np.arange(0, index.size + 1, index.shape[1])
    return csr_array((value.ravel(), index.ravel(), indptr), shape=(m, m))


def _lowest(ham, k: int, spec: ChainSpec) -> Tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenvalues and the lowest eigenvector of a sector matrix."""
    if isinstance(ham, np.ndarray):
        evals, evecs = np.linalg.eigh(ham)
        return evals[:k], evecs[:, 0]
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh
    m = ham.shape[0]
    start = np.random.default_rng(0x1517 + spec.n).standard_normal(m)
    try:
        evals, evecs = eigsh(ham, k=k, which="SA", v0=start, tol=0, maxiter=100 * m)
    except ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"Lanczos failed to converge for {spec}: "
            f"{len(exc.eigenvalues)} of {k} eigenpairs found"
        ) from exc
    order = np.argsort(evals)
    return evals[order], evecs[:, order[0]]


def _canonical_sign(vec: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(vec)))
    return -vec if vec[k] < 0 else vec


def ed_ground(spec: ChainSpec) -> EDGroundState:
    """Ground state, energy and spectral gap by exact diagonalization.

    The solve runs in the sector that holds the ground state: symmetric
    superpositions over the orbits of basis states under rotations and
    reversal of the ring.  In the sz basis the off-diagonal elements are
    -1/2 (bond flips) and g/2 (site flips), and the gauge prod sz maps g to
    -g, so by Perron-Frobenius the ground state is positive up to that gauge
    and hence invariant under translation and reflection.  At g = 0 the
    Hamiltonian also conserves spin-flip parity, and the solve keeps only
    the even-popcount orbits, which selects the even ground state even when
    the odd partner is quasi-degenerate.  Sector matrices up to
    ``MAX_DENSE_SECTOR`` orbits are solved densely, larger ones by Lanczos.

    ``gap`` is the distance from the ground energy to the next level of the
    symmetric sector; at g = 0 it is the distance to the lowest level of the
    odd-parity sector instead, so a quasi-degenerate parity partner is
    reported through ``degenerate`` (gap below 1e-8).

    Amplitudes are real with the largest-magnitude entry positive; basis
    index bit j holds chain site j, so subsystem axis k of the returned
    state corresponds to site n-1-k.
    """
    if spec.n > MAX_ED_SITES:
        raise ResourceLimitError(f"exact diagonalization limited to {MAX_ED_SITES} sites")
    orbits = _dihedral_orbits(spec.n)
    reps, orbit, size = orbits
    if spec.g == 0.0:
        even = _popcount(reps, spec.n) % 2 == 0
        evals, even_coef = _lowest(_sector_hamiltonian(spec, orbits, even), 1, spec)
        odd, _ = _lowest(_sector_hamiltonian(spec, orbits, ~even), 1, spec)
        e0, gap = float(evals[0]), float(odd[0] - evals[0])
        coef = np.zeros(reps.size)
        coef[even] = even_coef
    else:
        every = np.ones(reps.size, dtype=bool)
        evals, coef = _lowest(_sector_hamiltonian(spec, orbits, every), 2, spec)
        e0, gap = float(evals[0]), float(evals[1] - evals[0])
    degenerate = gap < DEGENERACY_GAP
    if degenerate:
        warnings.warn(
            f"near-degenerate ground space (gap {gap:.3e}) for {spec}",
            RuntimeWarning, stacklevel=2,
        )
    vec = _canonical_sign((coef / np.sqrt(size))[orbit])
    state = PureState(vec / np.linalg.norm(vec), (2,) * spec.n)
    return EDGroundState(state=state, energy=e0, gap=gap, degenerate=degenerate)


def ed_ground_state(spec: ChainSpec) -> PureState:
    """Ground state vector of the chain (see :func:`ed_ground`)."""
    return ed_ground(spec).state


def ed_rugosity(spec: ChainSpec) -> float:
    """Rugosity of the exact-diagonalization ground state."""
    return rugosity_pure(ed_ground_state(spec))


def reduced_pair_state(state: PureState, site: int = 0) -> DensityMatrix:
    """Reduced density matrix of sites (site, site+1) of a chain state,
    ordered as |site+1, site> to match the pair-state convention."""
    dims = state.subsystem_dims
    if dims is None or any(d != 2 for d in dims):
        raise UsageError("reduced_pair_state expects a qubit chain state")
    n = len(dims)
    i, j = site % n, (site + 1) % n
    t = state.amplitudes.reshape([2] * n)
    # axis for chain site s is n-1-s (site 0 is the least-significant bit)
    t = np.moveaxis(t, [n - 1 - j, n - 1 - i], [n - 2, n - 1])
    mat = t.reshape(-1, 4)
    rho = mat.T @ mat.conj()
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    return DensityMatrix(rho, (2, 2))


def ed_pair_observables(spec: ChainSpec, site: int = 0) -> PairObservables:
    """Nearest-neighbor observables from the exact-diagonalization ground
    state via partial trace."""
    rho = reduced_pair_state(ed_ground_state(spec), site)
    mat = rho.matrix
    m_z = 0.5 * float(np.real(np.trace(mat @ (np.kron(_SZ, np.eye(2)) + np.kron(np.eye(2), _SZ)))))
    c_xx = float(np.real(np.trace(mat @ np.kron(_SX, _SX))))
    c_yy = float(np.real(np.trace(mat @ np.kron(_SY, _SY))))
    c_zz = float(np.real(np.trace(mat @ np.kron(_SZ, _SZ))))
    return _pair_report(m_z, c_xx, c_yy, c_zz)


def dispersion_ground_energy(spec: ChainSpec) -> float:
    """Free-fermion ground energy ``-sum_p lam_p`` of the g = 0 chain."""
    _require_analytic(spec)
    _, lam, _ = _mode_arrays(spec.n, spec.h)
    return -float(np.sum(lam))


# ----------------------------------------------------------------------
# Criticality scans
# ----------------------------------------------------------------------

def _point_value(spec: ChainSpec, observable: str, method: str) -> float:
    if observable == "full":
        return analytic_rugosity(spec) if method == "analytic" else ed_rugosity(spec)
    if observable == "pair":
        obs = pair_observables(spec) if method == "analytic" else ed_pair_observables(spec)
        return obs.pair_rugosity
    raise UsageError(f"observable must be 'full' or 'pair', got {observable!r}")


def scan(spec: ChainSpec, axis: str, grid: Sequence[float], observable: str = "full",
         method: str = "analytic",
         kink_window: Optional[Tuple[float, float]] = None) -> ScanGrid:
    """Evaluate the rugosity observable over a sorted parameter grid and
    differentiate it.

    Parameters
    ----------
    spec : ChainSpec
        Template chain; the swept parameter is replaced per grid point.
    axis : str
        'h' or 'g'.
    grid : sequence of float
        Sorted sweep values, at least 5 points.
    observable : str
        'full' for the ground-state rugosity, 'pair' for the
        nearest-neighbor pair rugosity.
    method : str
        'analytic' (free fermion, g = 0 only) or 'ed'.
    kink_window : (lo, hi), optional
        Window in which to locate the curvature extremum.
    """
    if axis not in ("h", "g"):
        raise UsageError(f"axis must be 'h' or 'g', got {axis!r}")
    if method not in ("analytic", "ed"):
        raise UsageError(f"method must be 'analytic' or 'ed', got {method!r}")
    pts = np.asarray(list(grid), dtype=float)
    if pts.size < 5:
        raise UsageError("scan grid needs at least 5 points")
    if np.any(np.diff(pts) <= 0):
        raise UsageError("scan grid must be strictly increasing")
    if method == "analytic" and (axis == "g" or spec.g != 0.0):
        raise UsageError("the analytic method requires g = 0 and an h-axis scan")

    values = np.empty(pts.size)
    for k, x in enumerate(pts):
        point = ChainSpec(spec.n, h=x if axis == "h" else spec.h,
                          g=spec.g if axis == "h" else x, boundary=spec.boundary)
        values[k] = _point_value(point, observable, method)

    normalized = values / spec.n
    d1 = (normalized[2:] - normalized[:-2]) / (pts[2:] - pts[:-2])
    x1 = pts[1:-1]
    d2 = (d1[2:] - d1[:-2]) / (x1[2:] - x1[:-2])
    x2 = pts[2:-2]

    kink = None
    if kink_window is not None:
        lo, hi = float(kink_window[0]), float(kink_window[1])
        inside = (x2 >= lo) & (x2 <= hi) & np.isfinite(d2)
        if not np.any(inside):
            raise UsageError(f"kink window [{lo}, {hi}] contains no interior grid point")
        sub = np.where(inside)[0]
        kink = float(x2[sub[np.argmax(np.abs(d2[sub]))]])

    return ScanGrid(axis=axis, points=pts, rugosity=values, normalized_rugosity=normalized,
                    first_derivative=d1, second_derivative=d2, kink_estimate=kink,
                    n_sites=spec.n, observable=observable, method=method)
