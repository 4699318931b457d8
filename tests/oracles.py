"""Independent oracles used by the test suite.

Everything here is implemented without calling the code paths it checks:
a hand-rolled Jacobi eigensolver, a Wootters concurrence built from the
spin-flip spectrum, and a kron-assembled Ising Hamiltonian.
"""

import numpy as np

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def jacobi_eigenvalues(matrix, sweeps=100, tol=1e-14):
    """Eigenvalues of a Hermitian matrix by cyclic complex Jacobi rotations,
    sorted descending."""
    a = np.array(matrix, dtype=complex)
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.abs(a - np.diag(np.diag(a))) ** 2))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-300:
                    continue
                app, aqq = a[p, p].real, a[q, q].real
                # annihilate a[p,q] with a complex Givens rotation
                phase = apq / abs(apq)
                theta = 0.5 * np.arctan2(2.0 * abs(apq), aqq - app)
                c = np.cos(theta)
                s = np.sin(theta) * phase
                rot = np.eye(n, dtype=complex)
                rot[p, p] = c
                rot[p, q] = s
                rot[q, p] = -np.conj(s)
                rot[q, q] = c
                a = rot.conj().T @ a @ rot
    return np.sort(np.real(np.diag(a)))[::-1]


def wootters_concurrence(rho):
    """Two-qubit concurrence from the spin-flip spectrum."""
    yy = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))
    m = rho @ yy @ np.conj(rho) @ yy
    ev = np.sort(np.abs(np.linalg.eigvals(m)))[::-1]
    roots = np.sqrt(ev)
    return max(0.0, roots[0] - roots[1] - roots[2] - roots[3])


def entanglement_value_of_concurrence(c):
    """Convex roof of 1 - lambda_1 for two qubits as a function of the
    concurrence: f(C) = (1 - sqrt(1 - C^2)) / 2, convex and increasing."""
    return 0.5 * (1.0 - np.sqrt(max(0.0, 1.0 - c * c)))


def _chain_op(ops, n):
    """Kronecker product with ops[site] on each listed site and the identity
    elsewhere; site j is bit j of the basis index."""
    mat = np.array([[1.0]], dtype=complex)
    for j in range(n - 1, -1, -1):
        mat = np.kron(mat, ops.get(j, np.eye(2, dtype=complex)))
    return mat


def kron_ising_hamiltonian(n, h, g):
    """Dense periodic-chain Hamiltonian assembled from Kronecker products:
    H = -(1/2) sum sx sx - (h/2) sum sz + (g/2) sum sx.

    Site j maps to bit j of the basis index (little-endian), matching the
    package's amplitude convention.
    """
    dim = 2 ** n
    ham = np.zeros((dim, dim), dtype=complex)
    for j in range(n):
        k = (j + 1) % n
        ham -= 0.5 * _chain_op({j: SX, k: SX}, n)
        ham -= (h / 2.0) * _chain_op({j: SZ}, n)
        ham += (g / 2.0) * _chain_op({j: SX}, n)
    return ham


def haar_unitary(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return 0.5 * (rho + rho.conj().T)


def gme_product_oracle(w, dims):
    """One SVD per bipartition: for each row of ``w``, the first cut (side A
    holding party 0 and the parties of the set bits of the cut index) with
    the largest top singular value, that value squared and the product of
    the leading Schmidt vectors."""
    n, d = len(dims), int(np.prod(dims))
    cuts = []
    for mask in range(2 ** (n - 1) - 1):
        side_a = [0] + [k + 1 for k in range(n - 1) if (mask >> k) & 1]
        cuts.append((side_a, [k for k in range(n) if k not in side_a]))

    def matrices(rows, side_a, side_b):
        shaped = rows.reshape((len(rows),) + tuple(dims))
        perm = [0] + [1 + k for k in side_a + side_b]
        d_a = int(np.prod([dims[k] for k in side_a]))
        return np.transpose(shaped, perm).reshape(len(rows), d_a, -1)

    tops = np.array([np.linalg.svd(matrices(w, *cut), compute_uv=False)[:, 0] for cut in cuts])
    choice = np.argmax(tops, axis=0)
    overlap, phi = np.empty(len(w)), np.empty((len(w), d), dtype=complex)
    for i, k in enumerate(choice):
        side_a, side_b = cuts[k]
        u, s, vh = np.linalg.svd(matrices(w[i:i + 1], side_a, side_b), full_matrices=False)
        pair = np.outer(u[0, :, 0], vh[0, 0, :]).reshape([dims[j] for j in side_a + side_b])
        # np.square, as on arrays: a NumPy scalar's ** 2 can differ in the last bit
        overlap[i] = np.square(s[0, 0])
        phi[i] = np.transpose(pair, np.argsort(side_a + side_b)).ravel()
    return overlap, phi, choice
