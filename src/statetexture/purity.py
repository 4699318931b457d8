"""Spectrum-based purity quantities derived from extremal textures.

The texture purity is ``d * (largest - smallest eigenvalue)``: zero exactly
on the maximally mixed state, ``d`` on pure states, non-increasing under
unital channels.  Renyi purities are reported in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from .errors import UsageError
from .states import DensityMatrix, spectral_decompose

RANK_TOL = 1e-10
BOUND_SLACK = 1e-10


@dataclass(frozen=True)
class PurityReport:
    texture_purity: float
    renyi_purities: Dict[float, float]
    renyi2_bound_rhs: float
    bound_satisfied: bool
    single_shot_cost: Optional[int]


def _texture_purity(lam: np.ndarray) -> float:
    return lam.size * float(lam[0] - lam[-1])


def _renyi_purity(lam: np.ndarray, alpha: float) -> float:
    if not math.isfinite(alpha):
        raise UsageError(f"alpha must be finite, got {alpha}")
    if alpha <= 0:
        raise UsageError(f"alpha must be positive, got {alpha}")
    if alpha == 1.0:
        raise UsageError("alpha = 1 (von Neumann limit) is not supported")
    d = lam.size
    lam = np.clip(lam, 0.0, None)
    lam = lam[lam > 0.0] if alpha < 1 else lam
    s_alpha = math.log2(float(np.sum(lam ** alpha))) / (1.0 - alpha)
    return math.log2(d) - s_alpha


def _single_shot_cost(lam: np.ndarray) -> Optional[int]:
    if lam[-1] > RANK_TOL:
        return None
    return int(math.ceil(math.log2(_texture_purity(lam)) - 1e-12))


def texture_purity(rho: DensityMatrix) -> float:
    """``d * (lambda_max - lambda_min)`` of the state's spectrum."""
    return _texture_purity(spectral_decompose(rho).eigenvalues)


def renyi_purity(rho: DensityMatrix, alpha: float) -> float:
    """Renyi purity ``log2(d) - S_alpha`` in bits, for ``alpha`` in
    (0, 1) or (1, inf)."""
    return _renyi_purity(spectral_decompose(rho).eigenvalues, alpha)


def single_shot_cost(rho: DensityMatrix) -> Optional[int]:
    """``ceil(log2 P)`` for non-full-rank states (smallest eigenvalue at or
    below the rank tolerance 1e-10); ``None`` for full-rank states."""
    return _single_shot_cost(spectral_decompose(rho).eigenvalues)


def check_renyi2_bound(rho: DensityMatrix,
                       alphas: Sequence[float] = (2.0,)) -> PurityReport:
    """Evaluate the Renyi-2 purity against its texture-purity lower bound
    ``log2[1 + P^2 / (2d)]``; the two coincide for qubits.  One spectrum
    serves every quantity."""
    lam = spectral_decompose(rho).eigenvalues
    p = _texture_purity(lam)
    rhs = math.log2(1.0 + p * p / (2.0 * rho.dim))
    renyi = {float(a): _renyi_purity(lam, float(a)) for a in alphas}
    p2 = renyi[2.0] if 2.0 in renyi else _renyi_purity(lam, 2.0)
    return PurityReport(
        texture_purity=p,
        renyi_purities=renyi,
        renyi2_bound_rhs=rhs,
        bound_satisfied=p2 >= rhs - BOUND_SLACK,
        single_shot_cost=_single_shot_cost(lam),
    )
