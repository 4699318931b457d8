import math
import os

# one BLAS thread, as in the benchmark, set before numpy loads OpenBLAS: on a
# 2-core VM its default two threads made the suite slower (~28 s against
# ~24.5 s), and a 0.04 s test took 1.2 s after the hypothesis screen test
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

import statetexture.ising as ising
from statetexture import DensityMatrix, PureState


@pytest.fixture
def bell_state():
    v = np.zeros(4)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    return PureState(v, (2, 2))


@pytest.fixture
def ghz3():
    v = np.zeros(8)
    v[0] = v[7] = 1.0 / math.sqrt(2.0)
    return PureState(v, (2, 2, 2))


@pytest.fixture
def w3():
    v = np.zeros(8)
    v[1] = v[2] = v[4] = 1.0 / math.sqrt(3.0)
    return PureState(v, (2, 2, 2))


@pytest.fixture
def maximally_mixed():
    def make(d, dims=None):
        return DensityMatrix(np.eye(d, dtype=complex) / d, dims)
    return make


@pytest.fixture
def pair_amplitudes():
    """sin^2(theta_p - phi_p / 2) of the N/2 modes of a chain as the rugosity
    kernel forms them: exp of its log remainders at |h|, with the chord term
    ln(4 sin^2(phi_p / 2)) that it subtracts at |h| > 1 added back, and
    reversed at h < 0, as h -> -h maps phi to pi - phi."""
    def amplitudes(n, h):
        table = ising._momentum_table(n)
        if abs(h) > 1.0:
            table += (ising._chord_terms(n),)
        log_amp = ising._log_pair_remainders(table, abs(h), ising._field_scale(h))
        if len(table) > 2:
            log_amp += table[2]
        return np.exp(log_amp)[::1 if h >= 0.0 else -1]
    return amplitudes
