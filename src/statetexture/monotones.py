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

import functools
import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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


# cuts whose matrices the GME screen stacks at a time; every cut matrix
# holds the whole row, so a chunk is a fixed multiple of the rows' size
SCREEN_CHUNK = 4
# the screen's rounding margin, in units of d * eps * |w_i|^2: the Gram
# products, the bounds and the SVD are each backward stable with errors of
# a few d * eps * |w_i|^2, which this covers with room to spare
SCREEN_MARGIN = 64.0


class _Bipartitions(Sequence):
    """The ``2**(n - 1) - 1`` nontrivial bipartitions of ``n`` parties as
    ``(side A, side B)``: side A holds party 0 and party ``j + 1`` for each
    set bit ``j`` of the index.  Each cut is built when it is asked for."""

    def __init__(self, n_parties: int):
        self.n_parties = n_parties
        self.size = 2 ** (n_parties - 1) - 1
        # kept: the convex roof asks for the same few cuts at every evaluation
        self.built: Dict[int, Cut] = {}

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, k):
        cut = self.built.get(k)
        if cut is None:
            k = operator.index(k)
            if not 0 <= k < self.size:
                raise IndexError(k)
            side_a = (0,) + tuple(j + 1 for j in range(self.n_parties - 1) if (k >> j) & 1)
            cut = self.built[k] = side_a, tuple(j for j in range(1, self.n_parties) if j not in side_a)
        return cut


@functools.lru_cache(maxsize=64)
def _digits(side: Tuple[int, ...]) -> np.ndarray:
    """Every multi-index of subsystems with dimensions ``side``, row-major,
    one per column."""
    return np.indices(side, dtype=np.min_scalar_type(max(side))).reshape(len(side), -1)


@functools.lru_cache(maxsize=32)
def _gme_table(dims: Tuple[int, ...]):
    """Every bipartition of subsystems ``dims`` and the GME screen's table
    of them (about 0.2 MB at twelve qubits), built once per ``dims``.

    The table groups the cuts by the subsystem dimensions of their smaller
    and larger sides, smallest side first; in a group, the cuts whose side A
    (holding subsystem 0) is the smaller one come first.  A group holds the
    cut positions, whether side A is the smaller one, the strides in the
    flat state of each cut's smaller-side and larger-side subsystems, and
    the two sides' digit tables, so that ``strides @ digits`` are a side's
    offsets."""
    n = len(dims)
    cuts = _Bipartitions(n)
    member = np.ones((len(cuts), n), dtype=bool)  # side A, as in _Bipartitions
    member[:, 1:] = (np.arange(len(cuts))[:, None] >> np.arange(n - 1)) & 1
    sizes = np.array(dims)
    strides = np.array([math.prod(dims[k + 1:]) for k in range(n)])
    d_a = np.where(member, sizes, 1).prod(axis=1)
    a_small = d_a * d_a <= math.prod(dims)
    small = member == a_small[:, None]
    n_small = small.sum(axis=1)
    groups = []
    for k in range(1, n):
        rows = np.flatnonzero(n_small == k)
        if not rows.size:
            continue
        parties_s = np.nonzero(small[rows])[1].reshape(len(rows), k)
        parties_l = np.nonzero(~small[rows])[1].reshape(len(rows), n - k)
        members: Dict[Tuple[int, ...], List[int]] = {}
        for j, key in enumerate(np.concatenate([sizes[parties_s], sizes[parties_l]], axis=1).tolist()):
            members.setdefault(tuple(key), []).append(j)
        for key, pick in members.items():
            pick = np.array(pick)
            pick = pick[np.argsort(~a_small[rows[pick]], kind="stable")]
            groups.append((math.prod(key[:k]), rows[pick].min(), rows[pick], a_small[rows[pick]],
                           strides[parties_s[pick]], strides[parties_l[pick]],
                           _digits(key[:k]), _digits(key[k:])))
    groups.sort(key=lambda group: group[:2])
    groups = [group[2:] for group in groups]
    for array in (array for group in groups for array in group):
        array.setflags(write=False)  # the table is shared by every caller
    return cuts, groups


def _top_singular_values(mats: np.ndarray, a_small: np.ndarray) -> np.ndarray:
    """``svd(compute_uv=False)[0]`` of smaller-side-first cut matrices
    ``mats[..., S, L]``, each taken side A first as one SVD per cut takes it;
    ``a_small`` says, along the last batch axis, where side A is side S."""
    top = np.empty(mats.shape[:-2])
    for small_first in (True, False):
        pick = a_small == small_first
        if pick.any():
            sub = mats if pick.all() else mats[..., pick, :, :]
            top[..., pick] = np.linalg.svd(sub if small_first else sub.swapaxes(-1, -2),
                                           compute_uv=False)[..., 0]
    return top


def _screened_choice(w: np.ndarray, dims: Tuple[int, ...], cuts: Sequence[Cut],
                     groups) -> np.ndarray:
    """For each row of ``w``, the first cut with the largest top singular
    value, as ``svd(compute_uv=False)`` computes it; see ``nearest_product``."""
    m, d = w.shape
    tops = np.empty((len(cuts), m))  # the singular values computed, else -1
    # the first chunk, of the smallest cuts, sets each row's best exactly
    first = groups[0][0][:SCREEN_CHUNK]
    for k in first.tolist():
        tops[k] = np.linalg.svd(_cut_matrices(w, dims, cuts[k]), compute_uv=False)[:, 0]
    if len(first) == len(cuts):
        return np.argmax(tops, axis=0)
    computed = tops[first]
    tops.fill(-1.0)
    tops[first] = computed
    flat = w.view(float)
    norm2 = np.einsum("ij,ij->i", flat, flat)
    margin = SCREEN_MARGIN * d * np.finfo(float).eps * norm2
    upper = np.empty((len(cuts), m))  # per cut and row, an upper bound
    upper[first] = computed ** 2
    best = upper[first].max(axis=0)  # per row, the largest lower bound so far
    for g, (index, a_small, strides_s, strides_l, digits_s, digits_l) in enumerate(groups):
        size = digits_s.shape[1]
        diagonal = np.arange(size)
        root = math.sqrt(max(size - 1, 1))
        mean = (norm2 / size)[:, None]  # tr G / size, as tr G = |w_i|^2
        for start in range(SCREEN_CHUNK if g == 0 else 0, len(index), SCREEN_CHUNK):
            part = slice(start, start + SCREEN_CHUNK)
            cut_ids = index[part]
            off = (strides_s[part] @ digits_s)[:, :, None] + (strides_l[part] @ digits_l)[:, None, :]
            mats = np.take(w, off, axis=1)  # (row, cut, smaller side, larger side)
            # a cut whose max_i G_ii reaches the best is a contender
            # whatever G says: it gets its singular value at once
            flat = mats.view(float)
            sure = np.einsum("...j,...j->...", flat, flat).max(-1) >= (best - margin)[:, None]
            if sure.all():
                top = _top_singular_values(mats, a_small[part])
                tops[cut_ids] = top.T
                upper[cut_ids] = (top * top).T
                best = np.maximum(best, (top * top).max(-1))
                continue
            # bounds on lambda_1(G) from G - mean I (for S = 1 both are mean)
            gram = mats @ mats.conj().swapaxes(-1, -2)
            gram[..., diagonal, diagonal] -= mean[:, :, None]
            mod = np.abs(gram)
            spread = np.sqrt(np.einsum("...ij,...ij->...", mod, mod) / size)
            hi = np.minimum(mod.sum(-1).max(-1), spread * root) + mean
            lo = spread / root + mean
            if sure.any():
                rows, cols = np.nonzero(sure)
                top = _top_singular_values(mats[rows, cols], a_small[part][cols])
                tops[cut_ids[cols], rows] = top
                hi[rows, cols] = lo[rows, cols] = top * top
            upper[cut_ids] = hi.T
            best = np.maximum(best, lo.max(-1))
    contenders = upper >= best - margin
    pending = contenders & (tops < 0.0)
    if pending.any():
        several = contenders.sum(axis=0) > 1
        for k in np.flatnonzero((pending & several).any(axis=1)):
            rows = np.flatnonzero(pending[k] & several)
            tops[k, rows] = np.linalg.svd(_cut_matrices(w[rows], dims, cuts[k]),
                                          compute_uv=False)[:, 0]
        # a row's lone contender wins without its singular value
        tops[contenders & (tops < 0.0)] = np.inf
    return np.argmax(np.where(contenders, tops, -1.0), axis=0)


def nearest_product(w: np.ndarray, dims: Tuple[int, ...], cuts: Sequence[Cut], groups=None):
    """Oracle over the states that are products across one of ``cuts``: for
    each row, the leading Schmidt pair of the cut with the largest Schmidt
    coefficient, the first such cut on ties.  With several cuts the winning
    cut comes from a screen over the cut table ``groups`` (from
    ``_gme_table``, required then), and Schmidt vectors are computed for the
    winning cuts only.

    The screen runs the groups from the smallest side up, in chunks of
    ``SCREEN_CHUNK`` cuts.  The first chunk gets its top singular values
    from ``svd(compute_uv=False)``, one SVD per cut as before, which sets
    each row's best value.  For a later cut, let M be its matrix with the
    smaller side (size S) as rows, G = M M^+ its reduced state, m = tr G / S
    and s^2 = |G - m I|_F^2 / S.  Then ``max_i G_ii <= lambda_1(G)``,
    ``m + s / sqrt(S - 1) <= lambda_1(G)`` and ``lambda_1(G) <= m +
    min(|G - m I|_inf, s sqrt(S - 1))``: Gershgorin's bound and Wolkowicz
    and Styan's bounds, the latter exact for S = 2 and never above |G|_F.
    A cut whose ``max_i G_ii`` already reaches the best skips G and gets its
    singular value at once (every cut of a GHZ state does).  The others get
    G's bounds, and the best grows with each lower bound and singular value.

    A cut is a contender for a row when its upper bound (its squared
    singular value, where computed) is within the margin
    ``SCREEN_MARGIN * d * eps * |w|^2`` of the row's best.  A lone
    contender wins.  Where there are several, each gets its singular value,
    and the first largest wins.  The margin exceeds the rounding of the
    bounds and of the SVD, each a few ``d * eps * |w|^2``, so a cut that is
    not a contender has a singular value strictly below a contender's.  The
    choice is therefore the argmax that one SVD per cut gives, ties
    included, and the outputs are bitwise those of that rule."""
    if len(cuts) == 1:
        return (*_leading_pair(w, dims, cuts[0]), np.zeros(len(w), dtype=np.intp))
    choice = _screened_choice(w, dims, cuts, groups)
    winners = np.unique(choice)
    if len(winners) == 1:
        return (*_leading_pair(w, dims, cuts[winners[0]]), choice)
    overlap, phi = np.empty(len(w)), np.empty_like(w)
    for k in winners:
        rows = choice == k
        overlap[rows], phi[rows] = _leading_pair(w[rows], dims, cuts[k])
    return overlap, phi, choice


def free_state_oracle(theory: str, dims: Tuple[int, ...],
                      cut: Optional[Iterable[int]] = None) -> Tuple[Oracle, Sequence[Cut]]:
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
        cuts, groups = _gme_table(tuple(dims))
        return (lambda w: nearest_product(w, dims, cuts, groups)), cuts
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
    probability over every nontrivial bipartition.  Every cut is considered,
    but only contenders are decomposed: bounds on each cut's reduced-state
    spectrum (``nearest_product``: Gershgorin and Wolkowicz-Styan, with a
    stated rounding margin) drop the cuts that cannot win, so the value and
    the witness cut are bitwise those of one SVD per cut."""
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
