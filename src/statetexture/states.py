"""Core quantum-state types and linear-algebra operations.

Density matrices and pure states are immutable value objects validated on
construction; all operations here are pure functions of their inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import InvalidStateError, UsageError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
NORM_TOL = 1e-12

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
# the two-qubit spin flip of Wootters' concurrence
SIGMA_YY = np.kron(SIGMA_Y, SIGMA_Y)


def _count(value, name: str, minimum: int = 1) -> int:
    """``value`` as an ``int``: a Python or NumPy integer of at least ``minimum``.
    A bool, a float or a string raises ``UsageError``, as does a smaller value."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise UsageError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise UsageError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _as_dims(dim: int, subsystem_dims: Optional[Sequence[int]]) -> Optional[Tuple[int, ...]]:
    if subsystem_dims is None:
        return None
    dims = tuple(_count(k, "subsystem dimension") for k in subsystem_dims)
    if math.prod(dims) != dim:  # exact; a numpy product wraps modulo 2^64
        raise UsageError(
            f"product of subsystem dimensions {dims} does not equal the total dimension {dim}"
        )
    return dims


@dataclass(frozen=True, eq=False)
class PureState:
    """A normalized state vector, optionally carrying a tensor-product structure.

    Attributes
    ----------
    amplitudes : ndarray
        Complex vector of length ``dim``: the given one, whose 2-norm must be
        within ``NORM_TOL`` of 1, divided by that norm on construction.
    subsystem_dims : tuple of int, optional
        Ordered local dimensions whose product equals ``dim``.
    """

    amplitudes: np.ndarray
    subsystem_dims: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        amp = np.array(self.amplitudes, dtype=complex).ravel()
        object.__setattr__(self, "amplitudes", amp)
        if amp.size < 1:
            raise InvalidStateError("state vector must have at least one amplitude")
        if not np.isfinite(amp).all():
            raise InvalidStateError("state vector contains non-finite entries")
        nrm = float(np.linalg.norm(amp))
        if abs(nrm - 1.0) > NORM_TOL:
            raise InvalidStateError(f"state vector norm {nrm!r} is not 1 within tolerance")
        amp /= nrm
        object.__setattr__(self, "subsystem_dims", _as_dims(amp.size, self.subsystem_dims))
        amp.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def projector(self) -> "DensityMatrix":
        """Return the rank-one density matrix |psi><psi|."""
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()),
                             self.subsystem_dims)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A Hermitian, trace-one, positive-semidefinite matrix.

    Invariants checked on construction: ``max|rho - rho^dag| <= 1e-12``,
    ``|tr(rho) - 1| <= 1e-12``, smallest eigenvalue ``>= -1e-10``.  The
    eigendecomposition that checks the last is kept as the state's spectrum
    (see :func:`spectral_decompose`).
    """

    matrix: np.ndarray
    subsystem_dims: Optional[Tuple[int, ...]] = None
    _spectrum: "Spectrum" = field(init=False, repr=False)

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidStateError(f"density matrix must be square, got shape {mat.shape}")
        if not np.isfinite(mat).all():
            raise InvalidStateError("density matrix contains non-finite entries")
        herm = np.abs(mat - mat.conj().T).max() if mat.size else 0.0
        if herm > HERMITICITY_TOL:
            raise InvalidStateError(f"density matrix is not Hermitian: residual {herm:.3e}")
        tr = complex(mat.trace())
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvalidStateError(f"density matrix trace {tr} is not 1 within tolerance")
        w, v = np.linalg.eigh(mat)
        if w[0] < -PSD_TOL:  # eigh sorts ascending
            raise InvalidStateError(f"density matrix has eigenvalue {w[0]:.3e} below -{PSD_TOL}")
        order = np.argsort(w)[::-1]
        w, v = w[order], v[:, order]
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "_spectrum", Spectrum(w, v))
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "subsystem_dims", _as_dims(mat.shape[0], self.subsystem_dims))
        mat.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigendecomposition of a density matrix, eigenvalues descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns aligned with eigenvalues

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=float))
        object.__setattr__(self, "eigenvectors", np.asarray(self.eigenvectors, dtype=complex))


@dataclass(frozen=True, eq=False)
class SchmidtData:
    """Schmidt spectrum of a pure bipartite cut.

    Coefficients are the squared Schmidt amplitudes (probabilities), sorted
    descending; they sum to one and there are ``min(d_A, d_B)`` of them.
    """

    cut: Tuple[Tuple[int, ...], Tuple[int, ...]]
    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coefficients", np.asarray(self.coefficients, dtype=float))


StateLike = Union[PureState, DensityMatrix]


def spectral_decompose(rho: DensityMatrix) -> Spectrum:
    """Eigendecomposition of a density matrix with eigenvalues sorted descending.

    The reconstruction ``sum_i w_i |v_i><v_i|`` agrees with the input within
    1e-10 in max norm.

    The spectrum is the one ``eigh`` that validated the state: every call on
    the same instance returns that same ``Spectrum`` object, for as long as
    the state lives.  Its arrays are read-only, so no caller can alter what
    the others see; copy them before writing.
    """
    return rho._spectrum


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Trace out all subsystems not listed in ``keep``.

    Parameters
    ----------
    rho : DensityMatrix
        State with ``subsystem_dims`` set.
    keep : iterable of int
        Indices of the subsystems to retain, in their original order.
    """
    if rho.subsystem_dims is None:
        raise UsageError("partial_trace requires subsystem_dims on the input state")
    dims = rho.subsystem_dims
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise UsageError("partial_trace: keep set must be non-empty")
    if keep[0] < 0 or keep[-1] >= n:
        raise UsageError(f"partial_trace: keep indices {keep} out of range for {n} subsystems")
    traced = [k for k in range(n) if k not in keep]
    t = rho.matrix.reshape(dims + dims)
    for k in sorted(traced, reverse=True):
        t = np.trace(t, axis1=k, axis2=k + (t.ndim // 2))
    kept_dims = tuple(dims[k] for k in keep)
    d_keep = int(np.prod(kept_dims))
    return DensityMatrix(t.reshape(d_keep, d_keep), kept_dims)


Cut = Tuple[Tuple[int, ...], Tuple[int, ...]]


def _normalize_cut(dims: Optional[Tuple[int, ...]], cut: Iterable[int]) -> Cut:
    if dims is None:
        raise UsageError("a cut requires subsystem_dims on the input state")
    n = len(dims)
    side_a = tuple(sorted(set(int(k) for k in cut)))
    if not side_a or any(k < 0 or k >= n for k in side_a) or len(side_a) == n:
        raise UsageError(f"cut {side_a} is not a proper bipartition of {n} subsystems")
    side_b = tuple(k for k in range(n) if k not in side_a)
    return side_a, side_b


@functools.lru_cache(maxsize=64)
def _cut_layout(dims: Tuple[int, ...], cut: Cut):
    """Transpose axes and ``d_A`` that turn state rows into cut matrices, and
    the axes and permuted dimensions that turn them back.  Cached because the
    convex roof asks for the same few cuts at every objective evaluation."""
    side_a, side_b = cut
    perm = side_a + side_b
    return ((0,) + tuple(1 + k for k in perm), math.prod(dims[k] for k in side_a),
            (0,) + tuple(1 + perm.index(k) for k in range(len(perm))),
            tuple(dims[k] for k in perm))


def _cut_matrices(w: np.ndarray, dims: Tuple[int, ...], cut: Cut) -> np.ndarray:
    """Each row of ``w`` as its ``d_A x d_B`` matrix across the normalized
    bipartition ``cut``."""
    axes, d_a, _, _ = _cut_layout(dims, cut)
    return np.transpose(w.reshape((len(w),) + dims), axes).reshape(len(w), d_a, -1)


def schmidt_decompose(psi: PureState, cut: Iterable[int]) -> SchmidtData:
    """Schmidt probabilities of ``psi`` across the bipartition ``cut`` vs rest.

    Returns the squared Schmidt coefficients sorted descending; they equal
    the eigenvalues of the reduced density matrix on either side.
    """
    cut = _normalize_cut(psi.subsystem_dims, cut)
    mat = _cut_matrices(psi.amplitudes[None, :], psi.subsystem_dims, cut)[0]
    lam = np.linalg.svd(mat, compute_uv=False) ** 2
    lam /= lam.sum()
    return SchmidtData(cut, lam)


def random_state(dim: int, kind: str = "pure", seed: int = 0,
                 subsystem_dims: Optional[Sequence[int]] = None) -> StateLike:
    """Sample a Haar-random pure state or a Ginibre-induced mixed state.

    Deterministic for a given ``seed``.
    """
    dim = _count(dim, "dimension")
    rng = np.random.default_rng(seed)
    if kind == "pure":
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return PureState(v / np.linalg.norm(v), subsystem_dims)
    if kind == "mixed":
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        rho = 0.5 * (rho + rho.conj().T)
        return DensityMatrix(rho, subsystem_dims)
    raise UsageError(f"kind must be 'pure' or 'mixed', got {kind!r}")
