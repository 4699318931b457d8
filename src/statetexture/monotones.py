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
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from .errors import ResourceLimitError, UsageError
from .states import (SIGMA_YY, Cut, PureState, StateLike, _cut_layout, _cut_matrices,
                     _normalize_cut, spectral_decompose)

THEORIES = ("coherence", "nonstabilizerness", "entanglement_bipartite", "gme")

MAX_GME_PARTIES = 12

# eigenkets of Z, X and Y with both signs: the single-qubit stabilizer states
STABILIZER_KETS = (np.array([[1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j]])
                   / np.sqrt([1, 1, 2, 2, 2, 2])[:, None])

Oracle = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class MonotoneResult:
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


# cuts whose matrices the GME screen forms at a time, each a transpose of
# the state tensor copied into one reused buffer; every cut matrix holds the
# whole row, so a chunk is a fixed multiple of the rows' size.  The chunks'
# Gram matrices go into blocks of as many cuts as fit in the memory of one
# chunk, and the bounds are evaluated once per block
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


@functools.lru_cache(maxsize=32)
def _gme_table(dims: Tuple[int, ...]):
    """Every bipartition of subsystems ``dims`` and the GME screen's table
    of them (about 0.4 MB at twelve qubits), built once per ``dims``.

    The table has one level per number k of subsystems on a cut's smaller
    side, k ascending.  A level holds its cut positions; for each of them,
    the positions of the k cuts whose one side is the smaller side less one
    of its subsystems T, and d_T (neither for k = 1); and its groups.  A
    group gathers the level's cuts with the same subsystem dimensions on the
    smaller and the larger side.  It holds the cut positions; each cut's
    transpose axes of the state tensor ``(row,) + dims``: 0, then 1 + the
    smaller side's subsystems, then 1 + the larger side's; the permuted
    shape, the smaller side's dimensions then the larger side's; and S, the
    smaller side's size."""
    n = len(dims)
    cuts = _Bipartitions(n)
    member = np.ones((len(cuts), n), dtype=bool)  # side A, as in _Bipartitions
    member[:, 1:] = (np.arange(len(cuts))[:, None] >> np.arange(n - 1)) & 1
    sizes = np.array(dims)
    d_a = np.where(member, sizes, 1).prod(axis=1)
    small = member == (d_a * d_a <= math.prod(dims))[:, None]
    n_small = small.sum(axis=1)
    # a side's cut position is the sum of its subsystems' weights if it
    # holds subsystem 0, else len(cuts) less that sum (its complement's)
    weight = np.concatenate([[0], 1 << np.arange(n - 1)])
    levels = []
    for k in range(1, n):
        rows = np.flatnonzero(n_small == k)
        if not rows.size:
            continue
        parties_s = np.nonzero(small[rows])[1].reshape(len(rows), k)
        parties = np.concatenate([parties_s, np.nonzero(~small[rows])[1].reshape(len(rows), -1)],
                                 axis=1)
        nested = None, None  # a one-subsystem side has no smaller side
        if k > 1:
            subs = (small[rows] @ weight)[:, None] - weight[parties_s]
            subs = np.where(small[rows, :1] & (parties_s != 0), subs, len(cuts) - subs)
            nested = subs, sizes[parties_s][:, :, None].astype(float)
        keys, group = np.unique(sizes[parties], axis=0, return_inverse=True)
        groups = []
        for g, key in enumerate(keys.tolist()):
            pick = group.ravel() == g
            axes = tuple((0, *cut) for cut in (1 + parties[pick]).tolist())
            groups.append((rows[pick], axes, tuple(key), math.prod(key[:k])))
        levels.append((rows, *nested, groups))
    for rows, subs, factor, groups in levels:
        for array in (rows, subs, factor, *(group[0] for group in groups)):
            if array is not None:
                array.setflags(write=False)  # the table is shared by every caller
    return cuts, levels


def _nested_upper(upper: np.ndarray, subs: np.ndarray, factor: np.ndarray,
                  margin: np.ndarray) -> np.ndarray:
    """Upper bounds on lambda_1 of one level's cuts from the bounds ``upper``
    on their sub-sides: ``lambda_1(rho_A) <= d_T lambda_1(rho_S)`` for
    S = A less T, as rho_A <= d_T rho_S x I_T.  A bound within ``margin``
    of lambda_1(rho_S) from below still gives one on lambda_1(rho_A), as
    the margin is multiplied through by d_T."""
    return (factor * (upper[subs] + margin)).min(axis=1)


def _nested_clears(levels, upper: np.ndarray, floor: np.ndarray, margin: np.ndarray) -> bool:
    """Whether the nested bounds, level by level, put every cut of
    ``levels`` below ``floor`` for every row; each level's bounds are
    written to ``upper``, up to the first level that is not cleared."""
    for index, subs, factor, _ in levels:
        upper[index] = _nested_upper(upper, subs, factor, margin)
        if not (upper[index] < floor).all():
            return False
    return True


def _screened_choice(w: np.ndarray, dims: Tuple[int, ...], cuts: Sequence[Cut],
                     levels) -> np.ndarray:
    """For each row of ``w``, the first cut with the largest top singular
    value, as ``svd(compute_uv=False)`` computes it; see ``nearest_product``."""
    if len(cuts) <= SCREEN_CHUNK:
        return np.argmax([np.linalg.svd(_cut_matrices(w, dims, cut), compute_uv=False)[:, 0]
                          for cut in cuts], axis=0)
    m, d = w.shape
    tensor = w.reshape((m,) + dims)
    flat = w.view(float)
    norm2 = np.einsum("ij,ij->i", flat, flat)
    margin = SCREEN_MARGIN * d * np.finfo(float).eps * norm2
    # per cut and row, an upper bound: inf until one is known, so that a
    # nested bound from a side not yet bounded is inf too
    upper = np.full((len(cuts), m), np.inf)
    best = np.zeros(m)  # per row, the largest lower bound so far
    for level, (_, _, _, groups) in enumerate(levels):
        if level and _nested_clears(levels[level:], upper, best - margin, margin):
            break
        for index, axes, shape, size in groups:
            diagonal = np.arange(size)
            root = math.sqrt(max(size - 1, 1))
            mean = (norm2 / size)[:, None]  # tr G / size, as tr G = |w_i|^2
            # a block of Gram matrices takes no more memory than one chunk
            # (a smaller side has size**2 <= d)
            width = min(d // size ** 2 * SCREEN_CHUNK, len(index))
            grams = np.empty((m, width, size, size), dtype=w.dtype)
            chunk = np.empty((m, SCREEN_CHUNK) + shape, dtype=w.dtype)
            # (row, cut, smaller side, larger side), a view of the chunk
            mats = chunk.reshape(m, SCREEN_CHUNK, size, d // size)
            for block in range(0, len(index), width):
                block_cuts = index[block:block + width]
                gram = grams[:, :len(block_cuts)]
                for start in range(0, gram.shape[1], SCREEN_CHUNK):
                    part = axes[block + start:block + start + SCREEN_CHUNK]
                    for slot, cut_axes in enumerate(part):
                        chunk[:, slot] = tensor.transpose(cut_axes)
                    formed = mats[:, :len(part)]
                    np.matmul(formed, formed.conj().swapaxes(-1, -2),
                              out=gram[:, start:start + SCREEN_CHUNK])
                # bounds on lambda_1(G) from G - mean I (for S = 1 both are mean)
                gram[..., diagonal, diagonal] -= mean[:, :, None]
                mod = np.abs(gram)
                spread = np.sqrt(np.einsum("...ij,...ij->...", mod, mod) / size)
                upper[block_cuts] = (np.minimum(mod.sum(-1).max(-1), spread * root) + mean).T
                best = np.maximum(best, (spread / root + mean).max(-1))
    contenders = upper >= best - margin
    several = contenders & (contenders.sum(axis=0) > 1)
    # a row's lone contender wins without its singular value
    tops = np.where(contenders, np.inf, -1.0)
    for k in np.flatnonzero(several.any(axis=1)):
        rows = np.flatnonzero(several[k])
        tops[k, rows] = np.linalg.svd(_cut_matrices(w[rows], dims, cuts[k]),
                                      compute_uv=False)[:, 0]
    return np.argmax(tops, axis=0)


def nearest_product(w: np.ndarray, dims: Tuple[int, ...], cuts: Sequence[Cut], table=None):
    """Oracle over the states that are products across one of ``cuts``: for
    each row, the leading Schmidt pair of the cut with the largest Schmidt
    coefficient, the first such cut on ties.  With several cuts the winning
    cut comes from a screen over the cut table ``table`` (from
    ``_gme_table``, required then), and Schmidt vectors are computed for the
    winning cuts only.

    A table of at most ``SCREEN_CHUNK`` cuts (three parties) gets one
    ``svd(compute_uv=False)`` per cut.  A larger one is screened level by
    level, from one subsystem on the smaller side up.  Each group is
    formed in chunks of ``SCREEN_CHUNK`` cuts, each cut's matrix a transpose
    of the state tensor ``(row,) + dims``, smaller side first, copied into
    one buffer per group; the chunks' Gram matrices are written into a block
    of up to ``d // S**2 * SCREEN_CHUNK`` cuts (S**2 <= d for the smaller
    side), no more memory than one chunk; the bounds below are evaluated
    once per block.  For a cut, let M be its matrix with the smaller side
    (size S) as rows, G = M M^+ its reduced state, m = tr G / S and s^2 =
    |G - m I|_F^2 / S.  Then ``m + s / sqrt(S - 1) <= lambda_1(G) <= m +
    min(|G - m I|_inf, s sqrt(S - 1))``:
    Wolkowicz and Styan's bounds, exact for S = 2 and the upper one never
    above |G|_F, and Gershgorin's.  Each row's best starts at 0 and grows
    with each lower bound.

    Larger sides are bounded from smaller ones before they are formed.
    For a side A, a subsystem T of it and S = A less T, twirling T with its
    Weyl operators gives rho_A <= d_T rho_S x I_T, so lambda_1(rho_A) <=
    d_T lambda_1(rho_S) <= d_T (upper(S) + margin), the margin (below) being
    multiplied through so that it still covers the rounding of upper(S);
    A's nested bound is the least over its subsystems T.  Before each level
    after the first, the nested bounds are carried level by level through
    all the levels left, each from the bounds of the one before.  If they
    put every cut of every level left below the best less the margin, for
    every row, the screen stops: those cuts keep their nested bounds and are
    never formed.  Otherwise the level is formed in full, as its G bounds
    are what make the next levels' nested bounds tight: skipping a level
    doubles (for qubits) the bounds above it.  On Haar states the screen
    stops before the 5-qubit sides at 12 qubits (40 of 40 states), before
    the last level at 9 to 11 qubits (40 of 40) and at 8 qubits (14 of 40).
    Ties such as GHZ, W and Dicke states never clear and form every level.

    A cut is a contender for a row when its upper bound is within the
    margin ``SCREEN_MARGIN * d * eps * |w|^2`` of the row's best.  A lone
    contender wins.  Where there are several, each gets its singular value,
    taken side A first as one SVD per cut takes it, and the first largest
    wins.  The margin exceeds the rounding of the bounds and of the SVD,
    each a few ``d * eps * |w|^2``, so a cut that is not a contender has a
    singular value strictly below a contender's.  The choice is therefore
    the argmax that one SVD per cut gives, ties included, and the outputs
    are bitwise those of that rule."""
    if len(cuts) == 1:
        return (*_leading_pair(w, dims, cuts[0]), np.zeros(len(w), dtype=np.intp))
    choice = _screened_choice(w, dims, cuts, table)
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
    the first subsystem versus the second when there are exactly two.  The
    other theories take no cut, and giving one is a usage error."""
    if theory not in THEORIES:
        raise UsageError(f"unknown theory {theory!r}; pick one of {THEORIES}")
    if cut is not None and theory != "entanglement_bipartite":
        raise UsageError(f"theory {theory!r} takes no cut")
    if theory == "coherence":
        return nearest_basis_ket, []
    if theory == "nonstabilizerness":
        d = math.prod(dims)
        if d != 2:
            raise UsageError(f"non-stabilizerness covers single qubits only, got dimension {d}")
        return nearest_stabilizer, []
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
        cuts, table = _gme_table(tuple(dims))
        return (lambda w: nearest_product(w, dims, cuts, table)), cuts
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
    # clamped, as a unit state's overlap with a free state can round above
    # 1, and every witness is bounded by 1
    overlap, choice = min(max(float(overlap[0]), 0.0), 1.0), int(choice[0])
    if theory == "coherence":
        witness = {"index": choice, "probability": overlap}
    elif theory == "nonstabilizerness":
        # the stabilizer ket's overlap is (1 +- <sigma_axis>) / 2
        sign = -1.0 if choice % 2 else 1.0
        witness = {"axis": "zxy"[choice // 2], "magnetization": sign * (2.0 * overlap - 1.0)}
    else:
        witness = {"cut": cuts[choice], "largest_schmidt": overlap}
    return MonotoneResult(1.0 - overlap, witness)


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
    the witness cut are bitwise those of one SVD per cut.  The bounds run
    once per block of Gram matrices, a block sized by the memory of one
    chunk of ``SCREEN_CHUNK`` cut matrices, each a transpose of the state
    tensor.  A larger side is
    bounded by ``lambda_1(rho_A) <= d_T (upper(A less T) + margin)`` from
    its one-subsystem-smaller sides first; once these nested bounds clear
    every larger cut, the screen stops, so at 9 to 12 qubits the cuts with
    the largest sides are never formed."""
    return pure_state_monotone(psi, "gme")


def concurrence_two_qubit(state: StateLike) -> float:
    """Wootters concurrence of a two-qubit state, ``max(0, s_1 - s_2 - s_3 -
    s_4)`` for the singular values ``s``, descending, of ``tau = B YY B^T``
    (Wootters, PRL 80, 2245 (1998)).

    ``B^T conj(B)`` is the state: for a density matrix, B's four rows are
    ``sqrt(mu_i) v_i^T`` from the spectrum that validated it, ``mu`` clamped
    at 0; for a pure state, ``B = psi^T``, and no projector is formed.  The
    singular values of the complex symmetric ``tau`` are its Takagi values,
    whose squares are the eigenvalues of ``rho YY rho* YY``, so the
    concurrence takes no eigenvalue of that non-Hermitian product."""
    if state.dim != 4:
        raise UsageError(f"concurrence is defined for two qubits, got dimension {state.dim}")
    if isinstance(state, PureState):
        base = state.amplitudes[None, :]
    else:
        spec = spectral_decompose(state)
        base = (spec.eigenvectors * np.sqrt(np.maximum(spec.eigenvalues, 0.0))).T
    s = np.linalg.svd(base @ SIGMA_YY @ base.T, compute_uv=False)
    return float(max(0.0, s[0] - s[1:].sum()))
