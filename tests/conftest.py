import math
import os

# one BLAS thread, as in the benchmark, set before numpy loads OpenBLAS: on a
# 2-core VM its default two threads made the suite slower (~28 s against
# ~24.5 s), and a 0.04 s test took 1.2 s after the hypothesis screen test
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

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
