"""Spectrum-based purity quantities derived from extremal textures.

The texture purity is ``d * (largest - smallest eigenvalue)``: zero exactly
on the maximally mixed state, ``d`` on pure states, non-increasing under
unital channels.  Renyi purities are reported in bits.  Every quantity
takes a density matrix or a pure state, whose spectrum is known without a
decomposition (see :func:`_spectrum`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import UsageError
from .states import PureState, StateLike, spectral_decompose

RANK_TOL = 1e-10
BOUND_SLACK = 1e-10


@dataclass(frozen=True)
class PurityReport:
    texture_purity: float
    renyi_purities: Dict[float, float]
    renyi2_bound_rhs: float
    bound_satisfied: bool
    single_shot_cost: Optional[int]


def _spectrum(state: StateLike) -> np.ndarray:
    """The descending spectrum of a state.  A pure state stands for its
    projector |psi><psi| / <psi|psi> (see :meth:`PureState.projector`), whose
    spectrum is 1, then d - 1 zeros; no projector is formed or decomposed."""
    if isinstance(state, PureState):
        lam = np.zeros(state.dim)
        lam[0] = 1.0
        return lam
    return spectral_decompose(state).eigenvalues


def _texture_purity(lam: np.ndarray) -> float:
    return lam.size * float(lam[0] - lam[-1])


def _renyi_purities(lam: np.ndarray, alphas: Sequence[float]) -> List[float]:
    """Renyi purities of a descending spectrum at each order, all from one
    clipped copy of it."""
    alphas = [float(a) for a in alphas]
    for alpha in alphas:
        if not math.isfinite(alpha):
            raise UsageError(f"alpha must be finite, got {alpha}")
        if alpha <= 0:
            raise UsageError(f"alpha must be positive, got {alpha}")
    d = lam.size
    lam = np.maximum(lam, 0.0)
    p = lam[lam > 0.0]
    values = {}
    far = [alpha for alpha in alphas if abs(alpha - 1.0) >= 0.5]
    if far:
        # lam_max factored out: S_alpha = -log2 lam_max + log2 t / (1 - alpha)
        # with t = lam_max sum (lam / lam_max)^alpha in [lam_max, d lam_max], so
        # no power underflows the sum to 0 (alpha = 1e308 gives log2(d lam_max),
        # the limit); the zero eigenvalues add nothing to the sums
        top = float(lam[0])  # eigenvalues are descending
        ratios = p / top
        for alpha in far:
            t = top * float((ratios ** alpha).sum())
            values[alpha] = math.log2(d * top) - math.log2(t) / (1.0 - alpha)
    near = [alpha for alpha in alphas if abs(alpha - 1.0) < 0.5]
    if near:
        # near alpha = 1 the form above cancels (-0.37 for 0.428 at 1 + 2**-52).
        # With delta = sum p - 1 and x = sum p expm1(eps ln p), sum p^alpha is
        # 1 + delta + x, so S_alpha of p / (1 + delta) takes no difference of
        # nearly equal terms; the renormalization matters once |eps| ~ 1e-16
        delta, logs = math.fsum(p) - 1.0, np.log(p)
        for alpha in near:
            eps = alpha - 1.0
            if eps == 0.0:  # the von Neumann limit of the form below
                entropy = -float((p * logs).sum()) / (1.0 + delta) + math.log1p(delta)
            else:
                x = float((p * np.expm1(eps * logs)).sum())
                entropy = -(math.log1p(delta + x) - alpha * math.log1p(delta)) / eps
            values[alpha] = math.log2(d) - entropy / math.log(2.0)
    return [values[alpha] for alpha in alphas]


def _single_shot_cost(lam: np.ndarray) -> Optional[int]:
    if lam[-1] > RANK_TOL:
        return None
    return int(math.ceil(math.log2(_texture_purity(lam)) - 1e-12))


def texture_purity(rho: StateLike) -> float:
    """``d * (lambda_max - lambda_min)`` of the state's spectrum."""
    return _texture_purity(_spectrum(rho))


def renyi_purity(rho: StateLike, alpha: float) -> float:
    """Renyi purity ``log2(d) - S_alpha`` in bits, for ``alpha`` in
    (0, inf); ``alpha = 1`` gives the von Neumann limit ``log2(d) - S``."""
    return _renyi_purities(_spectrum(rho), (alpha,))[0]


def single_shot_cost(rho: StateLike) -> Optional[int]:
    """``ceil(log2 P)`` for non-full-rank states (smallest eigenvalue at or
    below the rank tolerance 1e-10); ``None`` for full-rank states."""
    return _single_shot_cost(_spectrum(rho))


def check_renyi2_bound(rho: StateLike,
                       alphas: Sequence[float] = (2.0,)) -> PurityReport:
    """Evaluate the Renyi-2 purity against its texture-purity lower bound
    ``log2[1 + P^2 / (2d)]``; the two coincide for qubits.  One spectrum
    serves every quantity."""
    lam = _spectrum(rho)
    p = _texture_purity(lam)
    rhs = math.log2(1.0 + p * p / (2.0 * rho.dim))
    alphas = [float(a) for a in alphas]
    values = _renyi_purities(lam, alphas if 2.0 in alphas else alphas + [2.0])
    renyi = dict(zip(alphas, values))
    p2 = values[alphas.index(2.0)] if 2.0 in alphas else values[-1]
    return PurityReport(
        texture_purity=p,
        renyi_purities=renyi,
        renyi2_bound_rhs=rhs,
        bound_satisfied=p2 >= rhs - BOUND_SLACK,
        single_shot_cost=_single_shot_cost(lam),
    )
