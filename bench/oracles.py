"""Independent oracles for the benchmark's correctness checks.

Nothing here imports ``statetexture``: every value is computed from numpy
and scipy alone, so a fault in the package cannot hide in its own check.
Run this file directly to check each oracle on hand-worked states.
"""

from __future__ import annotations

import functools
import math

import numpy as np

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

TWO_OVER_PI = 2.0 / math.pi

_R = 1.0 / math.sqrt(2.0)
# the six single-qubit stabilizer kets: +-z, +-x, +-y
STABILIZER_KETS = np.array([
    [1.0, 0.0], [0.0, 1.0],
    [_R, _R], [_R, -_R],
    [_R, 1j * _R], [_R, -1j * _R],
], dtype=complex)


# ----------------------------------------------------------------------
# States and resource monotones
# ----------------------------------------------------------------------

def wootters_concurrence(rho: np.ndarray) -> float:
    """Two-qubit concurrence from the spin-flip spectrum."""
    yy = np.kron(SY, SY)
    m = rho @ yy @ rho.conj() @ yy
    roots = np.sqrt(np.sort(np.abs(np.linalg.eigvals(m)))[::-1])
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


def entanglement_roof_of_concurrence(c: float) -> float:
    """Exact two-qubit roof of ``1 - lambda_1``: f(C) = (1 - sqrt(1 - C^2)) / 2."""
    return 0.5 * (1.0 - math.sqrt(max(0.0, 1.0 - c * c)))


def qubit_coherence_roof(rho: np.ndarray) -> float:
    """Exact qubit roof of ``1 - max|c_i|^2``: (1 - sqrt(1 - 4|rho_01|^2)) / 2."""
    return 0.5 * (1.0 - math.sqrt(max(0.0, 1.0 - 4.0 * abs(rho[0, 1]) ** 2)))


def coherence_pure(psi: np.ndarray) -> float:
    return float(1.0 - np.max(np.abs(psi) ** 2))


def magic_pure(psi: np.ndarray) -> float:
    """``1 - max |<s|psi>|^2`` over the six stabilizer kets."""
    return float(1.0 - np.max(np.abs(STABILIZER_KETS.conj() @ psi) ** 2))


def reduced_state(psi: np.ndarray, dims, keep) -> np.ndarray:
    """Reduced density matrix on the subsystems ``keep``: the amplitudes as
    a (kept, traced) matrix M, contracted with einsum into M M^dag."""
    keep = sorted(keep)
    rest = [k for k in range(len(dims)) if k not in keep]
    d = int(np.prod([dims[k] for k in keep]))
    m = np.transpose(psi.reshape(dims), keep + rest).reshape(d, -1)
    return np.einsum("ij,kj->ik", m, m.conj())


def schmidt_probabilities(psi: np.ndarray, dims, side_a) -> np.ndarray:
    """Squared Schmidt coefficients across a cut, descending: the spectrum of
    the reduced state of the smaller side (both sides share it)."""
    side_b = [k for k in range(len(dims)) if k not in side_a]
    size = lambda side: np.prod([dims[k] for k in side])
    small = side_a if size(side_a) <= size(side_b) else side_b
    return np.linalg.eigvalsh(reduced_state(psi, dims, small))[::-1]


def top_reduced_eigenvalue(psi: np.ndarray, dims, side_a) -> float:
    return float(schmidt_probabilities(psi, dims, side_a)[0])


def entanglement_pure(psi: np.ndarray, dims, side_a) -> float:
    return 1.0 - top_reduced_eigenvalue(psi, dims, side_a)


def bipartitions(n: int):
    """Every nontrivial cut, as the side that holds subsystem 0."""
    for mask in range(2 ** (n - 1) - 1):
        yield [0] + [k + 1 for k in range(n - 1) if (mask >> k) & 1]


def gme_pure(psi: np.ndarray, dims) -> float:
    return min(entanglement_pure(psi, dims, cut) for cut in bipartitions(len(dims)))


def pure_monotone(psi: np.ndarray, theory: str, dims) -> float:
    if theory == "coherence":
        return coherence_pure(psi)
    if theory == "nonstabilizerness":
        return magic_pure(psi)
    if theory == "entanglement_bipartite":
        return entanglement_pure(psi, dims, [0])
    if theory == "gme":
        return gme_pure(psi, dims)
    raise ValueError(theory)


def spectral_average(rho: np.ndarray, theory: str, dims) -> float:
    """Pure-state monotone averaged over the eigen-decomposition of rho."""
    w, v = np.linalg.eigh(rho)
    return float(sum(p * pure_monotone(v[:, i], theory, dims)
                     for i, p in enumerate(w) if p > 1e-12))


def texture(rho: np.ndarray, unitary: np.ndarray) -> float:
    """One minus the normalized grand sum of ``U^dag rho U``."""
    d = rho.shape[0]
    return float(1.0 - np.sum(unitary.conj().T @ rho @ unitary).real / d)


def rugosity_pure(psi: np.ndarray) -> float:
    return float(-math.log(abs(np.sum(psi)) ** 2 / psi.size))


def uniform_overlap(psi: np.ndarray) -> float:
    """``|<u|psi>|`` with u the uniform superposition.  Rugosity is
    ``-2 ln`` of it; where it is tiny, two exact solvers differ in the
    rugosity by far more than in the overlap, so large-n checks use this."""
    return float(abs(np.sum(psi)) / math.sqrt(psi.size))


def partial_trace(rho: np.ndarray, dims, keep) -> np.ndarray:
    n = len(dims)
    letters = "abcdefghijklmnopqrstuvwxyz"
    row = [letters[k] for k in range(n)]
    col = [letters[k].upper() if k in keep else letters[k] for k in range(n)]
    out = "".join(letters[k] for k in keep) + "".join(letters[k].upper() for k in keep)
    red = np.einsum("".join(row) + "".join(col) + "->" + out, rho.reshape(tuple(dims) * 2))
    d = int(np.prod([dims[k] for k in keep]))
    return red.reshape(d, d)


def renyi_purity(lam: np.ndarray, alpha: float) -> float:
    """Renyi purity ``log2(d) - S_alpha`` in bits from a spectrum."""
    d = lam.size
    lam = np.clip(lam, 0.0, None)
    lam = lam[lam > 0.0] if alpha < 1 else lam
    return math.log2(d) - math.log2(float(np.sum(lam ** alpha))) / (1.0 - alpha)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ----------------------------------------------------------------------
# Ising chain: H = -(1/2) sum sx sx - (h/2) sum sz + (g/2) sum sx, periodic
# ----------------------------------------------------------------------

def _site_op(op: np.ndarray, site: int, n: int) -> np.ndarray:
    mat = np.array([[1.0]])
    for j in range(n - 1, -1, -1):
        mat = np.kron(mat, op if j == site else np.eye(2))
    return mat


@functools.lru_cache(maxsize=2)
def kron_ising_terms(n: int):
    """Dense bond, transverse and longitudinal sums assembled from Kronecker
    products (n <= 10): H = -bonds/2 - h*zs/2 + g*xs/2.  Cached: a check
    needs them for several g at one n."""
    sx, sz = SX.real, SZ.real
    xs = [_site_op(sx, j, n) for j in range(n)]
    bonds = sum(xs[j] @ xs[(j + 1) % n] for j in range(n))
    zs = sum(_site_op(sz, j, n) for j in range(n))
    return bonds, zs, sum(xs)


def sparse_ising_hamiltonian(n: int, h: float, g: float):
    """The chain Hamiltonian as a scipy sparse matrix, built from bit flips."""
    from scipy import sparse

    dim = 1 << n
    idx = np.arange(dim)
    bits = (idx[:, None] >> np.arange(n)) & 1
    rows = [idx]
    vals = [-(h / 2.0) * np.sum(1 - 2 * bits, axis=1).astype(float)]
    for j in range(n):
        rows.append(idx ^ ((1 << j) | (1 << ((j + 1) % n))))
        vals.append(np.full(dim, -0.5))
        if g != 0.0:
            rows.append(idx ^ (1 << j))
            vals.append(np.full(dim, g / 2.0))
    cols = np.tile(idx, len(rows))
    return sparse.csr_matrix((np.concatenate(vals), (np.concatenate(rows), cols)),
                             shape=(dim, dim))


def sparse_ground(n: int, h: float, g: float):
    """Ground energy and vector from scipy's sparse Lanczos.

    At g = 0 the solve is restricted to the even spin-flip-parity sector,
    which holds the ground state: the odd partner can lie within 1e-4, which
    would limit the vector's accuracy to about 1e-10 in the full space.
    """
    from scipy.sparse.linalg import eigsh

    ham = sparse_ising_hamiltonian(n, h, g)
    keep = np.arange(ham.shape[0])
    if g == 0.0:
        keep = keep[np.sum((keep[:, None] >> np.arange(n)) & 1, axis=1) % 2 == 0]
        ham = ham[keep][:, keep]
    start = np.random.default_rng(97 + n).standard_normal(keep.size)
    w, v = eigsh(ham, k=1, which="SA", v0=start, tol=1e-13)
    vec = np.zeros(1 << n)
    vec[keep] = v[:, 0]
    return float(w[0]), vec


def ising_matvec(psi: np.ndarray, n: int, h: float, g: float) -> np.ndarray:
    """H psi by flipping tensor axes: sx on a site reverses that site's axis."""
    t = psi.reshape((2,) * n)
    out = np.zeros_like(t)
    sign = np.array([1.0, -1.0])
    for j in range(n):
        k = (j + 1) % n
        out -= 0.5 * np.flip(np.flip(t, axis=j), axis=k)
        shape = [1] * n
        shape[j] = 2
        out -= (h / 2.0) * sign.reshape(shape) * t
        if g != 0.0:
            out += (g / 2.0) * np.flip(t, axis=j)
    return out.reshape(-1)


def residual(psi: np.ndarray, energy: float, n: int, h: float, g: float) -> float:
    return float(np.linalg.norm(ising_matvec(psi, n, h, g) - energy * psi))


# ----------------------------------------------------------------------
# Hand-worked checks of the oracles themselves
# ----------------------------------------------------------------------

def self_check() -> None:
    """Raise AssertionError unless every oracle gives the hand-worked value."""
    def close(got, want, label, tol=1e-12):
        if abs(got - want) > tol:
            raise AssertionError(f"oracle {label}: got {got!r}, want {want!r}")

    bell = np.array([_R, 0.0, 0.0, _R], dtype=complex)
    prod = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    plus = np.array([_R, _R], dtype=complex)
    bell_rho = np.outer(bell, bell.conj())
    close(wootters_concurrence(bell_rho), 1.0, "concurrence(Bell)")
    close(wootters_concurrence(np.outer(prod, prod)), 0.0, "concurrence(|00>)")
    close(wootters_concurrence(np.eye(4) / 4), 0.0, "concurrence(I/4)")
    close(entanglement_roof_of_concurrence(1.0), 0.5, "f(1)")
    close(entanglement_roof_of_concurrence(0.0), 0.0, "f(0)")
    close(entanglement_pure(bell, (2, 2), [0]), 0.5, "entanglement(Bell)")
    close(entanglement_pure(prod, (2, 2), [1]), 0.0, "entanglement(|00>)")
    close(np.max(np.abs(partial_trace(bell_rho, (2, 2), [0]) - np.eye(2) / 2)), 0.0,
          "partial trace(Bell)")
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = _R
    close(gme_pure(ghz, (2, 2, 2)), 0.5, "gme(GHZ)")
    close(gme_pure(np.kron(bell, plus), (2, 2, 2)), 0.0, "gme(Bell x |+>)")
    plus_rho = np.outer(plus, plus.conj())
    close(coherence_pure(plus), 0.5, "coherence(|+>)")
    close(qubit_coherence_roof(plus_rho), 0.5, "coherence roof(|+><+|)", 1e-7)
    close(qubit_coherence_roof(np.diag([0.3, 0.7])), 0.0, "coherence roof(diagonal)")
    close(magic_pure(plus), 0.0, "magic(|+>)")
    t_ket = np.array([1.0, np.exp(1j * math.pi / 4)]) * _R
    close(magic_pure(t_ket), 0.5 * (1.0 - _R), "magic(T state)")
    close(texture(plus_rho, np.eye(2)), 0.0, "texture(|+>)")
    close(texture(np.diag([1.0, 0.0]), np.eye(2)), 0.5, "texture(|0>)")
    close(rugosity_pure(plus), 0.0, "rugosity(|+>)")
    # two-site chain at h = g = 0: H = -sx sx, ground energy -1
    bonds, zs, xs = kron_ising_terms(2)
    close(float(np.linalg.eigvalsh(-0.5 * bonds)[0]), -1.0, "kron Ising n=2")
    # the three Hamiltonian constructions agree on a random vector
    rng = np.random.default_rng(5)
    vec = rng.standard_normal(16)
    bonds, zs, xs = kron_ising_terms(4)
    dense = -0.5 * bonds - 0.35 * zs + 0.1 * xs
    close(float(np.max(np.abs(dense @ vec - ising_matvec(vec, 4, 0.7, 0.2)))), 0.0,
          "matvec vs kron", 1e-12)
    close(float(np.max(np.abs(dense @ vec - sparse_ising_hamiltonian(4, 0.7, 0.2) @ vec))),
          0.0, "sparse vs kron", 1e-12)
    # all-+x is the h = g = 0 ground state: each of the 4 bonds gives -1/2
    close(residual(np.full(16, 0.25), -2.0, 4, 0.0, 0.0), 0.0, "residual(|++++>)")
    lam = np.array([0.5, 0.5])
    close(renyi_purity(lam, 2.0), 0.0, "renyi(I/2)")
    close(renyi_purity(np.array([1.0, 0.0]), 0.5), 1.0, "renyi(|0>)")


if __name__ == "__main__":
    self_check()
    print("oracles: all hand-worked checks pass")
