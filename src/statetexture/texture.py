"""Texture, grand sum and rugosity of quantum states.

The texture of a state in an orthonormal basis is one minus the normalized
grand sum (the sum of all matrix elements of the state written in that
basis).  It vanishes exactly on the projector of the uniform superposition
of the basis kets and reaches one on anything orthogonal to it; rugosity is
the logarithmic form of the same quantity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .errors import InvalidStateError, UsageError, warn_caller
from .states import (HERMITICITY_TOL, PSD_TOL, TRACE_TOL, PureState, StateLike, _count,
                     spectral_decompose)

BASIS_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class OrthonormalBasis:
    """An orthonormal basis given as a unitary whose columns are the kets.

    Its zero-texture ket, the uniform superposition of the kets in
    computational coordinates, is formed once on construction.
    """

    unitary: np.ndarray
    _uniform_ket: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        u = np.array(self.unitary, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise UsageError(f"basis unitary must be square, got shape {u.shape}")
        # an entry above modulus 1 (or nan) is rejected before U^dag U can overflow
        top = np.max(np.abs(u))
        if not top <= 1.0 + BASIS_TOL:
            raise UsageError(f"basis columns are not orthonormal: entry of modulus {top:.3e}")
        d = u.shape[0]
        # U^dag U - 1, with the 1 taken from its diagonal in place
        gram = u.conj().T @ u
        gram.reshape(-1)[::d + 1] -= 1.0
        resid = np.max(np.abs(gram))
        if not resid <= BASIS_TOL:
            raise UsageError(f"basis columns are not orthonormal: residual {resid:.3e}")
        self._adopt(u)

    @classmethod
    def _orthonormal(cls, u: np.ndarray) -> "OrthonormalBasis":
        """The basis of a fresh complex unitary that is orthonormal by
        construction, without the O(d^3) check; only the package's own bases
        come here, and the tests check their orthonormality instead."""
        basis = cls.__new__(cls)
        basis._adopt(u)
        return basis

    def _adopt(self, u: np.ndarray) -> None:
        """Keep ``u``, read-only, and form its zero-texture ket."""
        d = u.shape[0]
        u.setflags(write=False)
        object.__setattr__(self, "unitary", u)
        ket = u @ np.full(d, 1.0 / math.sqrt(d), dtype=complex)
        ket.setflags(write=False)
        object.__setattr__(self, "_uniform_ket", ket)

    @property
    def dim(self) -> int:
        return self.unitary.shape[0]


@dataclass(frozen=True)
class TextureReport:
    """Grand sum, texture and rugosity of one (state, basis) pair."""

    grand_sum: float
    texture: float
    rugosity: float
    imag_residual: float


@dataclass(frozen=True, eq=False)
class TextureExtrema:
    """Extremal textures over all orthonormal bases, with witness bases.

    ``witness_unitaries`` are formed together on first read, from the unit
    vectors that they map the uniform superposition onto: the rows of
    ``witness_targets``, for ``t_max`` and for ``t_min``.
    """

    t_max: float
    t_min: float
    witness_targets: np.ndarray = field(repr=False)

    @functools.cached_property
    def witness_unitaries(self) -> Tuple[np.ndarray, np.ndarray]:
        u = _unitary_mapping_uniform_to(self.witness_targets)
        return u[0], u[1]


def computational_basis(d: int) -> OrthonormalBasis:
    """The computational basis of dimension ``d`` (identity unitary)."""
    d = _count(d, "dimension")
    return OrthonormalBasis._orthonormal(np.eye(d, dtype=complex))


def fourier_basis(d: int) -> OrthonormalBasis:
    """Discrete-Fourier basis: column j holds amplitudes w^(k j)/sqrt(d)
    with w = exp(2 pi i / d)."""
    d = _count(d, "dimension")
    k = np.arange(d)
    u = np.exp(2j * np.pi * np.outer(k, k) / d) / math.sqrt(d)
    return OrthonormalBasis._orthonormal(u)


def texture_in_basis(state: StateLike, basis: OrthonormalBasis) -> TextureReport:
    """Texture report of a state relative to a basis.

    The grand sum is computed as ``d <s|rho|s>`` with ``|s> = U |u>``, |u>
    the uniform superposition in basis coordinates; its imaginary part is
    recorded.  A pure state psi gives ``d |<s|psi>|^2`` from its amplitudes,
    with no projector formed, and no imaginary part.  Both checks admit what
    the tolerances of a validated state and basis allow, twice over for
    rounding, so only a state that bypassed validation fails them.  rho
    differs from its Hermitian part by at most ``HERMITICITY_TOL`` / 2 per
    entry, and sum_j |s_j| <= sqrt(d) |s|, so the imaginary part is at most
    d^2 ``HERMITICITY_TOL`` / 2.  The real part lies in d |s|^2 [lam_min,
    lam_max] for the eigenvalues of that Hermitian part, which are within
    lo = ``PSD_TOL`` + d ``HERMITICITY_TOL`` / 2 of [0, 1 + ``TRACE_TOL`` +
    (d - 1) lo], as validation bounds the spectrum of one triangle, and
    |s|^2 is within d ``BASIS_TOL`` of 1.
    """
    d = state.dim
    if basis.dim != d:
        raise UsageError(f"basis dimension {basis.dim} does not match state dimension {d}")
    s = basis._uniform_ket
    if isinstance(state, PureState):
        grand = d * abs(np.vdot(s, state.amplitudes)) ** 2
    else:
        grand = d * np.vdot(s, state.matrix @ s)
    imag_residual = abs(grand.imag)
    if imag_residual > d * d * HERMITICITY_TOL:
        raise InvalidStateError(
            f"grand sum has imaginary residual {imag_residual:.3e}; input state is corrupted"
        )
    e = float(grand.real)
    lo = PSD_TOL + d * HERMITICITY_TOL / 2
    slack = 2 * d * (TRACE_TOL + d * (lo + BASIS_TOL))
    if not -slack <= e <= d + slack:
        raise InvalidStateError(f"grand sum {e!r} outside [0, {d}] beyond tolerance")
    e = min(max(e, 0.0), float(d))
    return TextureReport(e, 1.0 - e / d, _rugosity(e / d), imag_residual)


def _rugosity(overlap: float) -> float:
    """``-ln`` of an overlap with the uniform superposition, the overlap
    clamped to [0, 1]: ``inf`` at 0 and ``+0.0`` at 1, so an overlap that
    rounds above 1 never gives a negative rugosity."""
    overlap = min(max(overlap, 0.0), 1.0)
    return math.inf if overlap == 0.0 else abs(math.log(overlap))


def _unitary_mapping_uniform_to(target: np.ndarray) -> np.ndarray:
    """Build a unitary U with U |uniform> = |target>, phase included, or one
    for each row of a stack of targets.

    With c = <uniform|target> and e^{i theta} = c / |c| (1 when c = 0), the
    Householder reflection along w = e^{i theta} |uniform> + |target> sends
    |uniform> to -e^{-i theta} |target>, so U = -e^{i theta} (I - 2 w w^dag
    / |w|^2).  |w|^2 = 2 + 2|c| >= 2 for unit vectors: nothing cancels.
    """
    d = target.shape[-1]
    uniform = np.full(d, 1.0 / math.sqrt(d))
    # exp(i angle(c)) is c / |c| to rounding even for subnormal c, and 1 at c = 0
    phase = np.exp(1j * np.angle(target @ uniform))[..., None]
    w = phase * uniform + target
    scale = 2.0 * phase / np.sum(w.real ** 2 + w.imag ** 2, axis=-1, keepdims=True)
    u = (scale * w)[..., :, None] * w[..., None, :].conj()
    u.reshape(u.shape[:-2] + (d * d,))[..., :: d + 1] -= phase
    return u


def texture_extrema(state: StateLike) -> TextureExtrema:
    """Extremal textures over all bases: ``1 - smallest`` and ``1 - largest``
    eigenvalue of the state, with witness bases mapping the matching
    eigenvector onto the uniform superposition.

    A pure state psi is read from its amplitudes with no projector formed:
    the eigenvalues are 1 and, for d > 1, 0, so t_min = 0 and t_max = 1 (0
    at d = 1).  The t_min target is psi; the t_max target is the basis ket
    e_k at the smallest |psi_k| less its projection on psi, which keeps at
    least 1 - 1/d of its squared norm.
    """
    if isinstance(state, PureState):
        top = state.amplitudes
        if state.dim == 1:
            return TextureExtrema(0.0, 0.0, np.stack([top, top]))
        k = int(np.argmin(np.abs(top)))
        low = -top[k].conjugate() * top
        low[k] += 1.0
        low /= np.linalg.norm(low)
        return TextureExtrema(1.0, 0.0, np.stack([low, top]))
    spec = spectral_decompose(state)
    lam = spec.eigenvalues
    return TextureExtrema(1.0 - float(lam[-1]), 1.0 - float(lam[0]),
                          spec.eigenvectors[:, [-1, 0]].T)


def rugosity_pure(psi: PureState) -> float:
    """Rugosity of a pure state in the computational basis.

    Equals ``-ln |<u|psi>|^2`` where ``|u>`` is the uniform superposition of
    all computational states, evaluated in O(d) from the amplitude sum.
    Returns ``inf`` when the overlap underflows to zero.
    """
    d = psi.dim
    overlap = abs(np.sum(psi.amplitudes)) ** 2 / d
    if overlap == 0.0:
        warn_caller("state is orthogonal to the uniform superposition; rugosity is infinite")
    return _rugosity(overlap)
