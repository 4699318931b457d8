"""Closed-form resource monotones built on minimal texture.

Each monotone is the smallest texture the state can show over the free
unitaries of one resource theory: incoherent unitaries for coherence,
Clifford unitaries for single-qubit non-stabilizerness, local unitaries for
entanglement, bi-local unitaries for genuine multipartite entanglement.  For
a pure state it equals ``1 - max |<phi|psi>|^2`` over the free pure states
``phi`` of the theory (for entanglement, the geometric measure).  Each theory
has one batched oracle ``nearest(W) -> (overlap[m], phi[m, d], choice[m])``
that gives, for every row ``w_i`` of ``W``, that maximum, a maximizing
``phi`` and the index of the winning free ket or cut.  The closed forms apply
it to the single row ``psi``; the convex roof applies it to every branch of a
decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from .errors import ResourceLimitError, UsageError
from .states import (Cut, PureState, density_of, _cut_layout, _cut_matrices,
                     _normalize_cut)
from .texture import OrthonormalBasis, _unitary_mapping_uniform_to, texture_in_basis

THEORIES = ("coherence", "nonstabilizerness", "entanglement_bipartite", "gme")

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)

MAX_GME_PARTIES = 12

# eigenkets of Z, X and Y with both signs: the single-qubit stabilizer states
STABILIZER_KETS = (np.array([[1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j]])
                   / np.sqrt([1, 1, 2, 2, 2, 2])[:, None])

Oracle = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class MonotoneResult:
    theory: str
    value: float
    witness: Dict[str, Any]


def nearest_basis_ket(w: np.ndarray):
    """Oracle over the computational basis kets: the largest ``|w_ij|^2`` of
    each row, at its first index."""
    rows = np.arange(w.shape[0])
    best = np.argmax(np.abs(w), axis=1)
    phi = np.zeros_like(w)
    phi[rows, best] = 1.0
    return np.abs(w[rows, best]) ** 2, phi, best


def nearest_stabilizer(w: np.ndarray):
    """Oracle over the six single-qubit ``STABILIZER_KETS``."""
    amps = w @ STABILIZER_KETS.conj().T
    best = np.argmax(np.abs(amps), axis=1)
    return np.abs(amps[np.arange(w.shape[0]), best]) ** 2, STABILIZER_KETS[best], best


def _leading_pair(w: np.ndarray, dims: Tuple[int, ...], cut: Cut):
    """Largest squared Schmidt coefficient of each row across ``cut`` and
    the product of its Schmidt vectors."""
    _, _, back, permuted = _cut_layout(dims, cut)
    u, s, vh = np.linalg.svd(_cut_matrices(w, dims, cut), full_matrices=False)
    pair = (u[:, :, 0, None] * vh[:, None, 0, :]).reshape((len(w),) + permuted)
    return s[:, 0] ** 2, np.transpose(pair, back).reshape(len(w), -1)


def nearest_product(w: np.ndarray, dims: Tuple[int, ...], cuts: List[Cut]):
    """Oracle over the states that are products across one of ``cuts``: for
    each row, the leading Schmidt pair of the cut with the largest Schmidt
    coefficient.  With several cuts the winner is picked from singular values
    alone, and Schmidt vectors are computed for the winning cuts only."""
    if len(cuts) == 1:
        return (*_leading_pair(w, dims, cuts[0]), np.zeros(len(w), dtype=np.intp))
    tops = np.empty((len(cuts), len(w)))
    for k, cut in enumerate(cuts):
        tops[k] = np.linalg.svd(_cut_matrices(w, dims, cut), compute_uv=False)[:, 0]
    choice = np.argmax(tops, axis=0)
    winners = np.unique(choice)
    if len(winners) == 1:
        return (*_leading_pair(w, dims, cuts[winners[0]]), choice)
    overlap, phi = np.empty(len(w)), np.empty_like(w)
    for k in winners:
        rows = choice == k
        overlap[rows], phi[rows] = _leading_pair(w[rows], dims, cuts[k])
    return overlap, phi, choice


def _bipartitions(n_parties: int):
    # subsets containing party 0; excludes the trivial full set
    for mask in range(2 ** (n_parties - 1) - 1):
        yield (0,) + tuple(k + 1 for k in range(n_parties - 1) if (mask >> k) & 1)


def free_state_oracle(theory: str, dims: Tuple[int, ...],
                      cut: Optional[Iterable[int]] = None) -> Tuple[Oracle, List[Cut]]:
    """The oracle of ``theory`` for states with subsystem dimensions ``dims``
    (one entry for an unstructured state), and the cuts its ``choice``
    indexes (none for coherence and non-stabilizerness).

    ``cut`` is the bipartition of ``entanglement_bipartite``; it defaults to
    the first subsystem versus the second when there are exactly two."""
    if theory == "coherence":
        return nearest_basis_ket, []
    if theory == "nonstabilizerness":
        d = math.prod(dims)
        if d != 2:
            raise UsageError(f"non-stabilizerness covers single qubits only, got dimension {d}")
        return nearest_stabilizer, []
    if theory not in THEORIES:
        raise UsageError(f"unknown theory {theory!r}; pick one of {THEORIES}")
    n = len(dims)
    if n < 2:
        raise UsageError(f"theory {theory!r} requires at least two subsystems")
    if theory == "entanglement_bipartite":
        if cut is None:
            if n != 2:
                raise UsageError("an explicit cut is required for more than two subsystems")
            cut = (0,)
        cuts = [_normalize_cut(dims, cut)]
    else:
        if n > MAX_GME_PARTIES:
            raise ResourceLimitError(
                f"bipartition enumeration is limited to {MAX_GME_PARTIES} parties, got {n}"
            )
        cuts = [(a, tuple(k for k in range(n) if k not in a)) for a in _bipartitions(n)]
    return (lambda w: nearest_product(w, dims, cuts)), cuts


def pure_state_monotone(psi: PureState, theory: str, cut=None) -> MonotoneResult:
    """``1 - max |<phi|psi>|^2`` over the free pure states ``phi`` of
    ``theory``, with a witness of the maximizer: the basis index and its
    probability for coherence; the Pauli axis and ``<sigma_axis>`` for
    non-stabilizerness; the cut and the largest Schmidt probability for the
    entanglement theories."""
    dims = psi.subsystem_dims if psi.subsystem_dims is not None else (psi.dim,)
    nearest, cuts = free_state_oracle(theory, dims, cut)
    overlap, _, choice = nearest(psi.amplitudes[None, :])
    overlap, choice = float(overlap[0]), int(choice[0])
    if theory == "coherence":
        witness = {"index": choice, "probability": overlap}
    elif theory == "nonstabilizerness":
        # the stabilizer ket's overlap is (1 +- <sigma_axis>) / 2
        sign = -1.0 if choice % 2 else 1.0
        witness = {"axis": "zxy"[choice // 2], "magnetization": sign * (2.0 * overlap - 1.0)}
    else:
        witness = {"cut": cuts[choice], "largest_schmidt": overlap}
    return MonotoneResult(theory, 1.0 - overlap, witness)


def coherence_monotone(psi: PureState) -> MonotoneResult:
    """``1 - max_i |c_i|^2`` over computational amplitudes; the witness is
    the first index attaining the maximum."""
    return pure_state_monotone(psi, "coherence")


def nonstabilizerness_monotone(psi: PureState) -> MonotoneResult:
    """Single-qubit magic: ``(1 - max_k |<sigma_k>|) / 2`` over the three
    Pauli axes."""
    return pure_state_monotone(psi, "nonstabilizerness")


def entanglement_monotone(psi: PureState, cut: Iterable[int]) -> MonotoneResult:
    """``1 - lambda_1`` with ``lambda_1`` the largest Schmidt probability of
    the given bipartition."""
    return pure_state_monotone(psi, "entanglement_bipartite", cut)


def gme_monotone(psi: PureState) -> MonotoneResult:
    """Genuine multipartite entanglement: ``1 - max`` of the largest Schmidt
    probability over every nontrivial bipartition (exhaustive enumeration)."""
    return pure_state_monotone(psi, "gme")


def _schmidt_witness_basis(mat: np.ndarray) -> np.ndarray:
    """Product basis whose uniform superposition is the leading Schmidt pair
    of the cut matrix ``mat``."""
    u, _, vh = np.linalg.svd(mat)
    return np.kron(_unitary_mapping_uniform_to(u[:, 0]),
                   _unitary_mapping_uniform_to(vh[0, :]))


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def sampled_local_texture_bound(psi: PureState, cut: Iterable[int],
                                samples: int, seed: int = 0,
                                include_witness: bool = True) -> float:
    """Minimum texture over sampled product bases of the given cut: an upper
    bound on the entanglement monotone, tight when the Schmidt-aligned
    witness basis is included."""
    dims = psi.subsystem_dims
    mat = _cut_matrices(psi.amplitudes[None, :], dims, _normalize_cut(dims, cut))[0]
    d_a, d_b = mat.shape
    rho = PureState(mat.ravel(), (d_a, d_b)).projector()
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(int(samples)):
        u = np.kron(_haar_unitary(d_a, rng), _haar_unitary(d_b, rng))
        best = min(best, texture_in_basis(rho, OrthonormalBasis(u)).texture)
    if include_witness:
        w = _schmidt_witness_basis(mat)
        best = min(best, texture_in_basis(rho, OrthonormalBasis(w)).texture)
    return float(best)


def single_qubit_clifford_group() -> List[np.ndarray]:
    """The 24 single-qubit Clifford unitaries (modulo global phase),
    generated by closure of the Hadamard and phase gates."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    s = np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=complex)

    def canon(u: np.ndarray) -> Tuple:
        flat = u.ravel()
        k = np.argmax(np.abs(flat) > 1e-9)
        u = u * (np.conj(flat[k]) / abs(flat[k]))
        return tuple(np.round(u.ravel(), 9))

    group: Dict[Tuple, np.ndarray] = {}
    frontier = [np.eye(2, dtype=complex)]
    group[canon(frontier[0])] = frontier[0]
    while frontier:
        nxt = []
        for u in frontier:
            for g in (h, s):
                v = g @ u
                key = canon(v)
                if key not in group:
                    group[key] = v
                    nxt.append(v)
        frontier = nxt
    return list(group.values())


def concurrence_two_qubit(state) -> float:
    """Wootters concurrence of a two-qubit state:
    ``max(0, sqrt(nu1) - sqrt(nu2) - sqrt(nu3) - sqrt(nu4))`` from the
    eigenvalues of ``rho (sy x sy) rho* (sy x sy)`` sorted descending."""
    rho = density_of(state)
    if rho.dim != 4:
        raise UsageError(f"concurrence is defined for two qubits, got dimension {rho.dim}")
    yy = np.kron(SIGMA_Y, SIGMA_Y)
    m = rho.matrix @ yy @ rho.matrix.conj() @ yy
    nu = np.sort(np.abs(np.linalg.eigvals(m)))[::-1]
    roots = np.sqrt(nu)
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))
