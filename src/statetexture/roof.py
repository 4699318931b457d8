"""Convex-roof extension of the pure-state monotones.

The roof value of a mixed state is the smallest probability-weighted average
of a pure-state monotone over decompositions ``rho = sum_i p_i |psi_i><psi_i|``.
Each monotone is ``1 - max |<phi|psi>|^2`` over the free pure states ``phi``
of its theory, and the roof runs on that theory's batched oracle from
``monotones``, which returns the maximum and a maximizer for each branch.
Decompositions are the rows ``w_i`` of ``W = U B``, with ``B = sqrt(mu) V^T``
built from the eigenpairs of ``rho`` and ``U`` an m x r isometry.

A rank-one state is its own decomposition, as every decomposition of a
pure state has its monotone as its value.  Three cases of rank two or more
are solved in closed form too: two-qubit ``entanglement_bipartite``, by
Wootters' decomposition; and single-qubit ``coherence`` and
``nonstabilizerness``, whose free sets are the convex hulls of free pure
states, so that the roof is ``1 - max F(rho, sigma)`` over free ``sigma``
(Streltsov, Kampermann & Bruss, NJP 12, 123004 (2010)), maximized face by
face over the Bloch polytope of the free kets.  Each of these exact paths
also returns a lower bound on the roof, and ignores every ``RoofConfig``
field, which is still validated.

Every other case runs a descent.  The objective
``F(U) = 1 - sum_i max_phi |<phi|w_i>|^2`` is minimized by gradient
descent on the complex Stiefel manifold: the Euclidean gradient
``G = -(phi_i <phi_i|w_i>)_i B^+`` follows from Danskin's theorem, it is
projected onto the tangent space, and steps are retracted by a QR
factorization.  The trial steps alternate the two Barzilai-Borwein steps, and
a step is accepted by a nonmonotone Armijo test against a running average of
the objective (Wen & Yin, Math. Program. 142, 397 (2013); Zhang & Hager, SIAM
J. Optim. 14, 1043 (2004)).  Where the maximizer switches the gradient is only
a subgradient, which the seeded restarts guard against.  Each restart runs at
most ``MAX_ITERATIONS`` iterations and returns the best decomposition it met,
so the result is always an upper bound on the roof, never above the spectral
decomposition's average.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import UsageError
from .monotones import STABILIZER_KETS, Oracle, free_state_oracle
from .states import (SIGMA_X, SIGMA_Y, SIGMA_YY, SIGMA_Z, PureState, StateLike, _count,
                     spectral_decompose)

RANK_CUTOFF = 1e-12
ARMIJO_SLOPE = 1e-4
# weight of the past in the Zhang-Hager reference of the Armijo test
NONMONOTONE_WEIGHT = 0.85
MIN_STEP = 1e-14
# the cap on descent iterations per restart
MAX_ITERATIONS = 2000
# an exact path's result is converged when its value is within this of its lower bound
EXACT_GAP = 1e-10
# how far below 0 a barycentric coordinate may round and its point still count
# as inside its face of the Bloch polytope
BARYCENTRIC_SLACK = 1e-12

# the free kets of the single-qubit theories solved in closed form
FREE_KETS = {"coherence": STABILIZER_KETS[:2], "nonstabilizerness": STABILIZER_KETS}
PAULI = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])
# a real rotation of four vectors that gives each branch a quarter of every
# vector's z^T YY z, the cross terms cancelling
QUARTERS = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]]) / 2.0


@dataclass(frozen=True)
class RoofConfig:
    """Optimizer knobs: decomposition cardinality (defaults to rank squared),
    number of random restarts, the bound on the Riemannian gradient norm that
    stops a restart, and the seed feeding each restart's substream.  The
    closed-form paths of ``convex_roof`` ignore all four, once they are
    validated."""

    cardinality: Optional[int] = None
    restarts: int = 32
    tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.cardinality is not None:
            object.__setattr__(self, "cardinality", _count(self.cardinality, "cardinality"))
        for name, minimum in (("restarts", 1), ("seed", 0)):
            object.__setattr__(self, name, _count(getattr(self, name), name, minimum))
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0.0):
            raise UsageError(f"tolerance must be finite and non-negative, got {self.tolerance}")


@dataclass(frozen=True, eq=False)
class ConvexRoofResult:
    """``value`` is the weighted monotone of ``decomposition``'s branches, an
    upper bound on the roof.  A closed-form path runs no descent, gives a
    ``lower_bound`` (for two-qubit entanglement, the roof of the Wootters
    concurrence) and is ``converged`` when ``value - lower_bound <=
    EXACT_GAP``.  Descent runs ``RoofConfig.restarts`` restarts, gives
    ``lower_bound`` None, and is ``converged`` when the best restart met its
    stopping test."""

    value: float
    decomposition: List[Tuple[float, PureState]]
    converged: bool
    lower_bound: Optional[float]


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
    """Riemannian descent from ``iso``; returns the best objective met, its
    branches and whether the stopping test was met.

    The trial step alternates the two Barzilai-Borwein steps of the previous
    iteration, ``<s, s> / |<s, y>|`` after odd iterations and
    ``|<s, y>| / <y, y>`` after even ones, and is halved until the Armijo
    condition holds against the Zhang-Hager reference ``C``, a running
    average of the accepted objective values in which the past carries the
    weight eta = ``NONMONOTONE_WEIGHT`` (Wen & Yin, Math. Program. 142, 397
    (2013)).  The objective may rise above its last value but not above
    ``C``, so the best iterate, not the last, is returned; it is never above
    the start.  The test is met when the Riemannian gradient norm falls
    below ``cfg.tolerance`` or when no step longer than ``MIN_STEP`` passes
    the Armijo test, and missed when ``MAX_ITERATIONS`` iterations end
    first.
    """
    def evaluate(u):
        w = u @ base
        overlap, phi, _ = nearest(w)
        c = np.einsum("id,id->i", phi.conj(), w)
        xi = _tangent(u, -(phi * c[:, None]) @ base.conj().T)
        return 1.0 - float(overlap.sum()), w, xi

    best, best_w, xi = evaluate(iso)
    reference, weight = best, 1.0
    step = 1.0
    for k in range(MAX_ITERATIONS):
        slope = float(np.vdot(xi, xi).real)
        # a huge tolerance squares to inf here, where tolerance ** 2 raises OverflowError
        if slope < cfg.tolerance * cfg.tolerance:
            return best, best_w, True
        while step > MIN_STEP:
            trial = _retract(iso - step * xi)
            t_value, t_w, t_xi = evaluate(trial)
            if reference - t_value >= 2.0 * ARMIJO_SLOPE * step * slope:
                break
            step *= 0.5
        else:
            return best, best_w, True
        # s = -step xi and y = t_xi - (xi moved to the new tangent space)
        y = t_xi - _tangent(trial, xi)
        sy = step * abs(float(np.vdot(xi, y).real))
        if not sy > 0.0:
            step *= 2.0
        elif k % 2 == 0:
            step = step * step * slope / sy
        else:
            step = sy / float(np.vdot(y, y).real)
        # C <- (eta Q C + f) / (eta Q + 1), then Q <- eta Q + 1
        weight *= NONMONOTONE_WEIGHT
        reference = (weight * reference + t_value) / (weight + 1.0)
        weight += 1.0
        iso, xi = trial, t_xi
        if t_value < best:
            best, best_w = t_value, t_w
    return best, best_w, False


def _takagi(tau: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Values ``s``, descending, and a unitary ``W`` with ``tau = W diag(s)
    W^T``, for a complex symmetric ``tau``.

    The real symmetric ``[[Re tau, Im tau], [Im tau, -Re tau]]`` has the
    eigenvalues +-s, and an eigenvector ``(p; q)`` of ``s`` gives the column
    ``p + i q`` (``tau conj(p + i q) = s (p + i q)``).  ``eigh`` keeps the
    columns of a repeated value orthonormal, as for Werner states.  A zero
    value's eigenvectors may hold both ``p + i q`` and ``i (p + i q)``; the
    QR, its diagonal made positive, then completes the columns
    orthonormally, and leaves the others as they are."""
    n, re, im = len(tau), tau.real, tau.imag
    s, vec = np.linalg.eigh(np.vstack([np.hstack([re, im]), np.hstack([im, -re])]))
    top = vec[:, ::-1][:, :n]
    q, r = np.linalg.qr(top[:n] + 1j * top[n:])
    return s[::-1][:n], q * np.exp(1j * np.angle(np.diagonal(r)))


def _zero_diagonal(m: np.ndarray) -> np.ndarray:
    """A real rotation ``O`` with ``diag(O m O^T) = 0``, for a real symmetric
    ``m`` of trace 0.  Each Givens rotation zeroes the largest diagonal entry
    against one of the opposite sign, whose sum then stays on the other."""
    n = len(m)
    rotation = np.identity(n)
    for _ in range(n - 1):
        d = np.diagonal(m)
        k = int(np.argmax(np.abs(d)))
        j = int(np.argmin(d) if d[k] > 0.0 else np.argmax(d))
        a, b, c = d[k], d[j], m[k, j]
        if not a * b < 0.0:
            break
        # t = tan(angle) solves b t^2 + 2 c t + a = 0, this root the smaller
        t = -a / (c + math.copysign(math.sqrt(c * c - a * b), c))
        cos = 1.0 / math.hypot(1.0, t)
        g = np.identity(n)
        g[[k, k, j, j], [k, j, k, j]] = cos, t * cos, -t * cos, cos
        m, rotation = g @ m @ g.T, g @ rotation
    return rotation


def _triangle(a: float, b: float, w: complex) -> Tuple[complex, complex]:
    """Unit ``u``, ``v`` with ``a u + b v = w``, for ``|a - b| <= |w| <=
    a + b``, by the law of cosines."""
    size = abs(w)
    u = 1.0 + 0.0j
    if a * size > 0.0:
        cos = min(1.0, max(-1.0, (a * a + size * size - b * b) / (2.0 * a * size)))
        u = w / size * complex(cos, math.sqrt(1.0 - cos * cos))
    rest = w - a * u
    return u, (rest / abs(rest) if rest != 0.0 else 1.0 + 0.0j)


def _roof_of_concurrence(c: float) -> float:
    """The two-qubit roof ``(1 - sqrt(1 - C^2)) / 2`` of a concurrence C."""
    return 0.5 * (1.0 - math.sqrt(max(0.0, (1.0 - c) * (1.0 + c))))


def _wootters(base: np.ndarray) -> Tuple[np.ndarray, float]:
    """Branches of Wootters' optimal decomposition of the two-qubit state
    with rows ``base`` (two to four), every one with the state's concurrence
    C, and the roof of C (Wootters, PRL 80, 2245 (1998)).

    With ``x_k`` the rows of ``W^+ base`` for the Takagi factorization
    ``base YY base^T = W diag(lam) W^T``, ``x_k^T YY x_l = lam_k delta_kl``
    and ``C = max(0, lam_1 - lam_2 - lam_3 - lam_4)``, fewer than four rows
    padded with zeros.  For C > 0, ``y = (x_1, i x_2, i x_3, i x_4)`` have
    ``y_k^T YY y_l = diag(lam_1, -lam_2, -lam_3, -lam_4)``, and a real
    rotation ``z = O y`` that zeroes the diagonal of that matrix less ``C Re
    <y_k|y_l>`` (trace 0, as tr rho = 1) gives ``z_i^T YY z_i = C |z_i|^2``.
    For C = 0, phases with ``sum_k lam_k e^{2 i theta_k} = 0`` and the
    rotation ``QUARTERS`` give every ``z_i^T YY z_i = 0``."""
    r = len(base)
    s, w = _takagi(base @ SIGMA_YY @ base.T)
    lam = np.zeros(4)
    lam[:r] = np.maximum(s, 0.0)
    x = np.zeros((4, r), dtype=complex)
    x[:r] = w.conj().T
    conc = lam[0] - lam[1:].sum()
    if conc > 0.0:
        y = x * np.array([1.0, 1.0j, 1.0j, 1.0j])[:, None] @ base
        rotation = _zero_diagonal(np.diag(lam * [1.0, -1.0, -1.0, -1.0])
                                  - conc * (y.conj() @ y.T).real)
    else:
        conc = 0.0
        # a quadrilateral with sides lam, closed through a diagonal that both
        # triangles (lam_1, lam_2, L) and (lam_3, lam_4, L) admit
        diagonal = max(lam[0] - lam[1], lam[2] - lam[3])
        phases = np.array(_triangle(lam[0], lam[1], diagonal)
                          + _triangle(lam[2], lam[3], -diagonal))
        y = x * np.sqrt(phases)[:, None] @ base
        rotation = QUARTERS
    return rotation @ y, _roof_of_concurrence(conc)


@functools.lru_cache(maxsize=None)
def _faces(theory: str):
    """The Bloch vectors of ``FREE_KETS[theory]`` and every set of two to four
    of them that is affinely independent, built once per theory.

    Per set, padded to four: the ket indices, the point ``p`` of the set's
    affine hull closest to the origin, the projector onto the hull's
    directions, ``1 - |p|^2``, and the map from ``(s, 1)`` to the
    barycentric coordinates of a point ``s`` of the hull."""
    kets = FREE_KETS[theory]
    vertices = np.einsum("ki,aij,kj->ka", kets.conj(), PAULI, kets).real
    sets = []
    for size in (2, 3, 4):
        for subset in itertools.combinations(range(len(kets)), size):
            points = vertices[list(subset)]
            directions = (points[1:] - points[0]).T
            if np.linalg.matrix_rank(directions) < size - 1:
                continue
            q = np.linalg.qr(directions)[0]
            index, bary = np.zeros(4, dtype=np.intp), np.zeros((4, 4))
            index[:size] = subset
            bary[:size] = np.linalg.pinv(np.vstack([points.T, np.ones(size)]))
            sets.append((index, points[0] - q @ (q.T @ points[0]), q @ q.T, bary))
    index, closest, projector, bary = (np.array(column) for column in zip(*sets))
    table = (vertices, index, closest, projector,
             1.0 - np.einsum("fa,fa->f", closest, closest), bary)
    for array in table:
        array.setflags(write=False)  # the table is shared by every caller
    return table


def _qubit_fidelity(theory: str, base: np.ndarray, mu: np.ndarray) -> Tuple[np.ndarray, float]:
    """Branches of an optimal decomposition of the rank-2 qubit state with
    rows ``base`` and eigenvalues ``mu``, for a free set of pure qubits, and
    Alberti's lower bound on its roof.

    The roof is ``1 - max F`` over the free ``sigma``, ``F = (1 + r.s +
    sqrt((1 - |r|^2) (1 - |s|^2))) / 2`` for Bloch vectors r of rho and s of
    sigma, concave in s, over the polytope of the free kets' Bloch vectors.
    On the affine hull ``p + D`` of a set of vertices its maximum is at
    ``s = p + c r_D``, with ``r_D`` the part of r along D, ``k = 1 - |r|^2 =
    4 mu_1 mu_2`` and ``c = sqrt((1 - |p|^2) / (k + |r_D|^2))``, where
    ``1 - |s|^2 = c^2 k`` and ``F = (1 + r.p + sqrt((1 - |p|^2) (k +
    |r_D|^2))) / 2``.  The best such point inside its set's hull is the
    maximum: it lies inside a face, an edge, or (for r in the polytope, F =
    1) a tetrahedron of vertices, and never at a vertex, where F grows along
    every edge as k > 0.  For coherence ``z = r_z / sqrt(r_z^2 + k)`` and
    ``F = (1 + sqrt(1 - 4 |rho_01|^2)) / 2``.

    With ``sigma = sum_k q_k |phi_k><phi_k|`` from the barycentric
    coordinates q, ``A = sigma^-1 # rho`` (``A sigma A = rho``) is ``((1 +
    1/c) I + (r - s/c).sigma) / (2 sqrt F)``; the branches ``sqrt(q_k) A
    |phi_k>`` rebuild rho and have ``<phi_k|A|phi_k> = sqrt F``, the
    Uhlmann decomposition.  For every ``Y > 0`` the roof is at least ``1 -
    Tr(rho Y) max_k <phi_k|Y^-1|phi_k>`` over all free kets (Alberti, Lett.
    Math. Phys. 7, 25 (1983)), and ``Y = A^-1 = rho^-1 # sigma`` makes this
    ``1 - F`` when sigma is optimal; ``Tr(rho A^-1) = (c k + 1 + r.s) / (2
    sqrt F)``, as ``det A = 1 / c``."""
    vertices, index, closest, projector, room, bary = _faces(theory)
    r = np.einsum("aij,ki,kj->a", PAULI, base.conj(), base).real
    k = 4.0 * mu[0] * mu[1]  # 1 - |r|^2, without the cancellation
    along = projector @ r
    spread = k + np.einsum("fa,fa->f", along, along)
    scale = np.sqrt(room / spread)
    points = closest + scale[:, None] * along
    coords = np.einsum("fij,fj->fi", bary, np.concatenate([points, np.ones((len(points), 1))], 1))
    fidelity = 0.5 * (1.0 + closest @ r + np.sqrt(room * spread))
    f = int(np.argmax(np.where(coords.min(axis=1) >= -BARYCENTRIC_SLACK, fidelity, -np.inf)))
    fid, c, s = fidelity[f], scale[f], points[f]
    norm = 2.0 * math.sqrt(fid)
    a0, a = (1.0 + 1.0 / c) / norm, (r - s / c) / norm
    mean = a0 * np.identity(2) + np.einsum("a,aij->ij", a, PAULI)  # A
    kets = FREE_KETS[theory][index[f]]
    branches = np.sqrt(np.maximum(coords[f], 0.0))[:, None] * (kets @ mean.T)
    support = float((a0 + vertices @ a).max())
    return branches, 1.0 - (c * k + 1.0 + r @ s) / norm * support


def convex_roof(rho: StateLike, theory: str,
                config: Optional[RoofConfig] = None,
                cut=None) -> ConvexRoofResult:
    """Upper bound on the convex roof of the chosen pure-state monotone,
    exact for rank-one states, two-qubit ``entanglement_bipartite`` and
    single-qubit ``coherence`` and ``nonstabilizerness``.

    Those cases run no descent, give a ``lower_bound`` on the roof and
    ignore every ``config`` field once it is validated: a rank-one state is
    its own one branch, with its monotone as both value and bound, and
    states of rank two or more take the closed-form paths ``_wootters`` and
    ``_qubit_fidelity``.  Everything else (``gme``, entanglement beyond two
    qubits, coherence in d >= 3) runs ``config.restarts`` descents of at
    most ``MAX_ITERATIONS`` iterations each.

    Parameters
    ----------
    rho : DensityMatrix or PureState
        State to decompose (``subsystem_dims`` required for the entanglement
        theories).  A pure state is read as rank one, its amplitudes
        the one eigenvector, with no projector formed.
    theory : str
        One of ``coherence``, ``nonstabilizerness``,
        ``entanglement_bipartite``, ``gme``.
    config : RoofConfig, optional
        Descent parameters; defaults per RoofConfig.  The cardinality m
        must lie in [r, 2 d r] for rank r and dimension d: the roof needs at
        most r^2 + 1 <= 2 d r branches (Caratheodory), the default is r^2,
        and the cap keeps the m x d branch matrix within 2 d^2 r entries.
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

    if isinstance(rho, PureState):
        mu = np.ones(1)
        vecs = rho.amplitudes[:, None]
    else:
        spec = spectral_decompose(rho)
        keep = spec.eigenvalues > RANK_CUTOFF
        mu = spec.eigenvalues[keep]
        mu = mu / mu.sum()
        vecs = spec.eigenvectors[:, keep]
    r = mu.size
    m = cfg.cardinality if cfg.cardinality is not None else r * r
    if m < r:
        raise UsageError(f"cardinality {m} is below the state rank {r}")
    if m > 2 * rho.dim * r:
        raise UsageError(f"cardinality {m} exceeds 2 d r = {2 * rho.dim * r} "
                         f"(dimension {rho.dim}, rank {r})")

    base = (vecs * np.sqrt(mu)).T  # r x d rows: sqrt(mu_j) e_j^T

    two_qubits = theory == "entanglement_bipartite" and tuple(dims) == (2, 2)
    lower_bound = None
    if r == 1 or two_qubits or (theory in FREE_KETS and rho.dim == 2):
        if r == 1:  # every decomposition of a pure state has its monotone as its value
            best_branches = base
        else:
            best_branches, lower = (_wootters(base) if two_qubits
                                    else _qubit_fidelity(theory, base, mu))
        best_value = 1.0 - float(nearest(best_branches)[0].sum())
        # the roof is never negative
        lower_bound = max(best_value if r == 1 else float(lower), 0.0)
        best_converged = best_value - lower_bound <= EXACT_GAP
    else:
        best_value = math.inf
        best_branches = None
        best_converged = False
        for start in range(cfg.restarts):
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

    best_value = max(best_value, 0.0)  # a roof of zero can round below it
    return ConvexRoofResult(
        value=float(best_value),
        decomposition=decomposition,
        converged=best_converged,
        lower_bound=lower_bound,
    )
