"""Convex-roof extension of the pure-state monotones.

The roof value of a mixed state is the smallest probability-weighted average
of a pure-state monotone over decompositions ``rho = sum_i p_i |psi_i><psi_i|``.
Each monotone is ``1 - max |<phi|psi>|^2`` over the free pure states ``phi``
of its theory, and the roof runs on that theory's batched oracle from
``monotones``, which returns the maximum and a maximizer for each branch.
Decompositions are the rows ``w_i`` of ``W = U B``, with ``B = sqrt(mu) V^T``
built from the eigenpairs of ``rho`` and ``U`` an m x r isometry.  The
objective ``F(U) = 1 - sum_i max_phi |<phi|w_i>|^2`` is minimized by steepest
descent on the complex Stiefel manifold: the Euclidean gradient
``G = -(phi_i <phi_i|w_i>)_i B^+`` follows from Danskin's theorem, it is
projected onto the tangent space, and steps are retracted by a QR
factorization and sized by Armijo backtracking.  Where the maximizer switches
the gradient is only a subgradient, which the seeded restarts guard against.
The result is always an upper bound on the roof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import UsageError
from .monotones import Oracle, concurrence_two_qubit, free_state_oracle
from .states import DensityMatrix, PureState, spectral_decompose

RANK_CUTOFF = 1e-12
ARMIJO_SLOPE = 1e-4
MIN_STEP = 1e-14


@dataclass(frozen=True)
class RoofConfig:
    """Optimizer knobs: decomposition cardinality (defaults to rank squared),
    number of random restarts, the bound on the Riemannian gradient norm that
    stops a restart, the cap on descent iterations per restart, and the seed
    feeding each restart's substream."""

    cardinality: Optional[int] = None
    restarts: int = 32
    tolerance: float = 1e-6
    max_iterations: int = 2000
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.seed, (int, np.integer)):
            raise UsageError(f"seed must be an integer, got {self.seed!r}")
        if self.restarts < 1:
            raise UsageError(f"restarts must be at least 1, got {self.restarts}")
        if self.cardinality is not None and self.cardinality < 1:
            raise UsageError(f"cardinality must be at least 1, got {self.cardinality}")
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0.0):
            raise UsageError(f"tolerance must be finite and non-negative, got {self.tolerance}")
        if self.max_iterations < 1:
            raise UsageError(f"max_iterations must be at least 1, got {self.max_iterations}")


@dataclass(frozen=True, eq=False)
class ConvexRoofResult:
    value: float
    decomposition: List[Tuple[float, PureState]]
    restarts_used: int
    converged: bool
    gap_to_oracle: Optional[float] = None


def _retract(x: np.ndarray) -> np.ndarray:
    """QR retraction onto the Stiefel manifold, R's diagonal made positive
    (it is never zero: ``u^+ (u - t xi) = 1 - t A`` with ``A`` anti-Hermitian)."""
    q, r = np.linalg.qr(x)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _tangent(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Projection of ``x`` onto the Stiefel tangent space at ``u``."""
    ux = u.conj().T @ x
    return x - u @ (0.5 * (ux + ux.conj().T))


def _descend(iso: np.ndarray, base: np.ndarray, nearest: Oracle,
             cfg: RoofConfig) -> Tuple[float, np.ndarray, bool]:
    """Riemannian steepest descent from ``iso``; returns the objective, the
    final branches and whether the stopping test was met.

    The trial step is the Barzilai-Borwein step ``<s, s> / |<s, y>|`` of the
    previous iteration, halved until the Armijo condition holds.  The test is
    met when the Riemannian gradient norm falls below ``cfg.tolerance`` or
    when no step longer than ``MIN_STEP`` decreases the objective.
    """
    def evaluate(u):
        w = u @ base
        overlap, phi, _ = nearest(w)
        c = np.einsum("id,id->i", phi.conj(), w)
        xi = _tangent(u, -(phi * c[:, None]) @ base.conj().T)
        return 1.0 - float(overlap.sum()), w, xi

    value, w, xi = evaluate(iso)
    step = 1.0
    for _ in range(int(cfg.max_iterations)):
        slope = float(np.vdot(xi, xi).real)
        if slope < cfg.tolerance ** 2:
            return value, w, True
        while step > MIN_STEP:
            trial = _retract(iso - step * xi)
            t_value, t_w, t_xi = evaluate(trial)
            if value - t_value >= 2.0 * ARMIJO_SLOPE * step * slope:
                break
            step *= 0.5
        else:
            return value, w, True
        # s = -step xi and y = t_xi - (xi moved to the new tangent space)
        sy = step * abs(float(np.vdot(xi, t_xi - _tangent(trial, xi)).real))
        step = step * step * slope / sy if sy > 0.0 else 2.0 * step
        iso, value, w, xi = trial, t_value, t_w, t_xi
    return value, w, False


def convex_roof(rho: DensityMatrix, theory: str,
                config: Optional[RoofConfig] = None,
                cut=None) -> ConvexRoofResult:
    """Upper bound on the convex roof of the chosen pure-state monotone.

    Parameters
    ----------
    rho : DensityMatrix
        Mixed state to decompose (``subsystem_dims`` required for the
        entanglement theories).
    theory : str
        One of ``coherence``, ``nonstabilizerness``,
        ``entanglement_bipartite``, ``gme``.
    config : RoofConfig, optional
        Optimizer parameters; defaults per RoofConfig.
    cut : iterable of int, optional
        Bipartition for ``entanglement_bipartite``; defaults to the first
        subsystem versus the rest when exactly two subsystems are present.

    Restarts draw from independent substreams keyed by (seed, restart index)
    and are merged by minimum, so the result does not depend on the order in
    which they execute.  Restart 0 starts from the eigen-decomposition.
    """
    cfg = config or RoofConfig()
    dims = rho.subsystem_dims if rho.subsystem_dims is not None else (rho.dim,)
    nearest, _ = free_state_oracle(theory, dims, cut)

    spec = spectral_decompose(rho)
    keep = spec.eigenvalues > RANK_CUTOFF
    mu = spec.eigenvalues[keep]
    mu = mu / mu.sum()
    vecs = spec.eigenvectors[:, keep]
    r = mu.size
    m = cfg.cardinality if cfg.cardinality is not None else r * r
    if m < r:
        raise UsageError(f"cardinality {m} is below the state rank {r}")

    base = (vecs * np.sqrt(mu)).T  # r x d rows: sqrt(mu_j) e_j^T

    best_value = math.inf
    best_branches = None
    best_converged = False
    for start in range(int(cfg.restarts)):
        rng = np.random.default_rng((cfg.seed, start))
        if start == 0:
            iso = np.eye(m, r, dtype=complex)
        else:
            g = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
            iso = np.linalg.qr(g)[0]
        total, branches, converged = _descend(iso, base, nearest, cfg)
        if total < best_value:
            best_value = total
            best_branches = branches
            best_converged = converged

    probs = np.real(np.einsum("id,id->i", best_branches, best_branches.conj()))
    order = np.argsort(probs)[::-1]
    decomposition = []
    for i in order:
        p = float(probs[i])
        if p <= 1e-14:
            continue
        decomposition.append((p, PureState(best_branches[i] / math.sqrt(p), dims)))
    total_p = sum(p for p, _ in decomposition)
    decomposition = [(p / total_p, state) for p, state in decomposition]

    gap = None
    if theory == "entanglement_bipartite" and rho.dim == 4 and tuple(dims) == (2, 2):
        c = concurrence_two_qubit(rho)
        oracle = 0.5 * (1.0 - math.sqrt(max(0.0, 1.0 - c * c)))
        gap = float(best_value - oracle)

    return ConvexRoofResult(
        value=float(best_value),
        decomposition=decomposition,
        restarts_used=int(cfg.restarts),
        converged=best_converged,
        gap_to_oracle=gap,
    )
