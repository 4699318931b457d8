"""The spectral path, bit for bit, against reference forms of its formulas.

The package reads a state's descending spectrum as eigh's ascending output
reversed, takes the witness phase from ``arctan2`` and the witness norms from
the array's own ``sum``, and sums the Renyi purities over the positive part of
the spectrum.  The references below take the long way: an ``argsort``-ordered
eigh, ``np.angle``, ``np.sum``, and a copy of the spectrum clipped at 0.  Every
output must equal theirs exactly, compared by array bytes and ``float.hex``,
which tells -0.0 from 0.0.  Degenerate spectra are where an ordering could
differ: I/d, rank-one projectors and Werner states.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as strat

from statetexture import (DensityMatrix, PureState, check_renyi2_bound, computational_basis,
                          fourier_basis, renyi_purity, spectral_decompose, texture_extrema,
                          texture_in_basis)

ORDERS = (2.0, 3.0, 0.5, 1.0, 1.3)
# witness unitaries are d x d each; above this they cost more than they show
MAX_WITNESS_DIM = 256


def _reference_spectrum(mat):
    w, v = np.linalg.eigh(mat)
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def _reference_witnesses(target):
    d = target.shape[-1]
    uniform = np.full(d, 1.0 / math.sqrt(d))
    phase = np.exp(1j * np.angle(target @ uniform))[..., None]
    w = phase * uniform + target
    scale = 2.0 * phase / np.sum(w.real ** 2 + w.imag ** 2, axis=-1, keepdims=True)
    u = (scale * w)[..., :, None] * w[..., None, :].conj()
    u.reshape(u.shape[:-2] + (d * d,))[..., :: d + 1] -= phase
    return u


def _reference_renyi(lam, alpha):
    d = lam.size
    lam = np.maximum(lam, 0.0)
    p = lam[lam > 0.0]
    if abs(alpha - 1.0) >= 0.5:
        top = float(lam[0])
        t = top * float(((p / top) ** alpha).sum())
        return math.log2(d * top) - math.log2(t) / (1.0 - alpha)
    delta, logs = math.fsum(p) - 1.0, np.log(p)
    eps = alpha - 1.0
    if eps == 0.0:
        entropy = -float((p * logs).sum()) / (1.0 + delta) + math.log1p(delta)
    else:
        x = float((p * np.expm1(eps * logs)).sum())
        entropy = -(math.log1p(delta + x) - alpha * math.log1p(delta)) / eps
    return math.log2(d) - entropy / math.log(2.0)


def _hex(x):
    return float(x).hex()


def _same_arrays(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _check_witnesses(ext):
    if ext.witness_targets.shape[-1] <= MAX_WITNESS_DIM:
        want = _reference_witnesses(ext.witness_targets)
        assert all(_same_arrays(got, w) for got, w in zip(ext.witness_unitaries, want))


def _check_textures(state, d):
    for basis in (computational_basis(d), fourier_basis(d)):
        s = basis.unitary @ np.full(d, 1.0 / math.sqrt(d), dtype=complex)
        if isinstance(state, PureState):
            grand = d * abs(np.vdot(s, state.amplitudes)) ** 2
        else:
            grand = d * np.vdot(s, state.matrix @ s)
        report = texture_in_basis(state, basis)
        assert _hex(report.grand_sum) == _hex(min(max(float(grand.real), 0.0), float(d)))
        assert _hex(report.imag_residual) == _hex(abs(grand.imag))


def _check_state(mat):
    rho = DensityMatrix(mat)
    d = rho.dim
    w, v = _reference_spectrum(rho.matrix)
    spec = spectral_decompose(rho)
    assert _same_arrays(spec.eigenvalues, w) and _same_arrays(spec.eigenvectors, v)

    ext = texture_extrema(rho)
    assert (_hex(ext.t_max), _hex(ext.t_min)) == (_hex(1.0 - w[-1]), _hex(1.0 - w[0]))
    assert _same_arrays(ext.witness_targets, v[:, [-1, 0]].T)
    _check_witnesses(ext)

    report = check_renyi2_bound(rho, ORDERS)
    want = [_hex(_reference_renyi(w, a)) for a in ORDERS]
    assert [_hex(report.renyi_purities[a]) for a in ORDERS] == want
    assert [_hex(renyi_purity(rho, a)) for a in ORDERS] == want
    p = d * float(w[0] - w[-1])
    assert _hex(report.texture_purity) == _hex(p)
    assert _hex(report.renyi2_bound_rhs) == _hex(math.log2(1.0 + p * p / (2.0 * d)))
    _check_textures(rho, d)


@strat.composite
def ginibre(draw):
    """Ginibre states of dimension 1..32 and any rank."""
    d = draw(strat.integers(1, 32))
    rank = draw(strat.integers(1, d))
    rng = np.random.default_rng(draw(strat.integers(0, 2 ** 32 - 1)))
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return 0.5 * (rho + rho.conj().T)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(ginibre())
def test_ginibre_states(mat):
    _check_state(mat)


@pytest.mark.parametrize("d", [1, 2, 3, 16, 17, 64, 1024])
def test_maximally_mixed(d):
    _check_state(np.eye(d, dtype=complex) / d)


@pytest.mark.parametrize("d", [2, 3, 16, 17, 64, 256])
def test_rank_one_projectors(d):
    rng = np.random.default_rng(d)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    _check_state(np.outer(v, v.conj()))


def test_basis_projector_in_dimension_1024():
    mat = np.zeros((1024, 1024), dtype=complex)
    mat[700, 700] = 1.0
    _check_state(mat)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.6, 1.0])
def test_werner_states(p):
    bell = np.zeros((4, 4))
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    _check_state(p * bell + (1.0 - p) * np.eye(4) / 4)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(strat.integers(1, 32), strat.integers(0, 2 ** 32 - 1))
def test_pure_states(d, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi = PureState(v / np.linalg.norm(v))
    _check_witnesses(texture_extrema(psi))
    _check_textures(psi, d)
    lam = np.zeros(d)
    lam[0] = 1.0
    report = check_renyi2_bound(psi, ORDERS)
    assert [_hex(report.renyi_purities[a]) for a in ORDERS] == \
        [_hex(_reference_renyi(lam, a)) for a in ORDERS]
