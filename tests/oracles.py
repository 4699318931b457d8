"""Independent oracles used by the test suite; none calls the code it checks.

The Pauli matrices ``SX``, ``SY``, ``SZ``, ``haar_unitary``,
``wootters_concurrence``, ``entanglement_roof_of_concurrence``,
``qubit_coherence_roof``, ``kron_ising_terms`` and the chain's eigenpair
``residual`` are the benchmark's, loaded from ``bench/oracles.py``, which
imports numpy and scipy only.  The single-qubit Clifford group is closed
here from H and S, and the Bogoliubov angle of the free-fermion chain is
built here with ``arctan2``, independently of the kets and the
cancellation-free half sums that the package uses.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

# by path, under its own name: a plain ``import oracles`` finds this file
_spec = importlib.util.spec_from_file_location(
    "bench_oracles", Path(__file__).resolve().parents[1] / "bench" / "oracles.py")
sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sys.modules[_spec.name])
from bench_oracles import (SX, SY, SZ, entanglement_roof_of_concurrence,  # noqa: E402, F401
                           haar_unitary, kron_ising_terms, qubit_coherence_roof, residual,
                           wootters_concurrence)


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


def single_qubit_cliffords():
    """The 24 single-qubit Clifford unitaries modulo global phase: the
    closure of {H, S} under products, each element with its first nonzero
    entry made real and positive."""
    generators = [np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0), np.diag([1.0, 1.0j])]
    group = [np.eye(2, dtype=complex)]
    for u in group:  # the list grows while it is read: a breadth-first closure
        for g in generators:
            v = g @ u
            first = v.flat[np.argmax(np.abs(v.ravel()) > 1e-9)]
            v = v * (abs(first) / first)
            if not any(np.allclose(v, w, rtol=0, atol=1e-12) for w in group):
                group.append(v)
    return group


def bogoliubov_angles(n, h):
    """Momenta phi_p = (2p-1) pi / N, p = 1..N/2, of the antiperiodic sector
    and the Bogoliubov angles theta_p in [pi/2, pi] that diagonalize their
    blocks, from cos 2theta = (h - cos phi) / lam and sin 2theta =
    -sin phi / lam, as 2 theta = 2 pi - arctan2(sin phi, h - cos phi)."""
    phi = np.arange(1, n, 2) * np.pi / n
    return phi, np.pi - 0.5 * np.arctan2(np.sin(phi), h - np.cos(phi))


def kron_ising_hamiltonian(n, h, g):
    """Dense periodic-chain Hamiltonian H = -(1/2) sum sx sx - (h/2) sum sz
    + (g/2) sum sx from the Kronecker terms; site j is bit j of the basis
    index (little-endian), matching the package's amplitude convention."""
    bonds, z_sum, x_sum = kron_ising_terms(n)
    return -0.5 * bonds - (h / 2.0) * z_sum + (g / 2.0) * x_sum


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
