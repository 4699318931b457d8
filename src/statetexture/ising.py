"""Transverse/longitudinal-field Ising chains: ground states and rugosity.

The spin Hamiltonian on a periodic chain of N sites is

    H = -(1/2) sum_j sx_j sx_{j+1}  -  (h/2) sum_j sz_j  +  (g/2) sum_j sx_j,

in units of the nearest-neighbor coupling; h and g are dimensionless.  With
this orientation a negative longitudinal field g pins the chain onto the
all-+x product state, so the ground-state rugosity stays small for g < 0 and
jumps across g = 0.  At g = 0 the model maps to free fermions; the
antiperiodic momentum sector hosts the even-parity ground state and yields
closed forms for the rugosity and the nearest-neighbor correlators.

Those closed forms are algebraic in cos phi_p and sin phi_p of the momenta
phi_p = (2p-1) pi / N, p = 1..N/2; the Bogoliubov angle theta_p is never
formed.  With delta = cos phi - h and lam = sqrt(delta^2 + sin^2 phi), the
eigenvector of the momentum block gives

    cos theta = -sqrt((lam - delta) / 2 lam),  sin theta = sqrt((lam + delta) / 2 lam),

so sin^2 theta = (lam + delta) / (2 lam), -sin theta cos theta =
sqrt(lam^2 - delta^2) / (2 lam) = sin phi / (2 lam), and, through
cos 2theta = -delta / lam and sin 2theta = -sin phi / lam, the rugosity
amplitude sin^2(theta - phi/2) = (lam + 1 - h cos phi) / (2 lam).  Each
numerator lam + x has lam^2 - x^2 = y^2 with y = sin phi for x = delta and
y = h sin phi for x = 1 - h cos phi; where x < 0 it is evaluated as
y^2 / (lam - x), which does not cancel.

Every summand is 2 pi-periodic in phi and analytic in the strip
|Im phi| < |ln|h||, as lam^2 = (1 - h e^{i phi})(1 - h e^{-i phi}), so the
trapezoidal rule converges exponentially: the N/2-mode sum is N/M times
the sum over the K = M/2 modes of an antiperiodic grid of M sites, with K
the smallest power of two >= max(8, 60 / |ln|h||), at most N/2, and an
aliasing error of order N exp(-2K |ln|h||) <= N e^-120, far below
rounding.  The full sum is the grid with M = N and weight 1; it is the
one taken at h = +-1, for |h -+ 1| below about 120/N and for every chain of
up to 16 sites (see :func:`_grid_modes`).  Every sum reads one cached
table of cos phi_p and sin phi_p per grid, in consecutive blocks (see
:data:`_MODE_BLOCK`).  One evaluator, :func:`_free_fermion`, serves points
and h-scans alike: it sums the fields that share a grid and a field scale
as the rows of one block, and a lone field on its own row, bitwise alike.
Every sum is numpy's own pairwise sum, not a BLAS dot product, so no
free-fermion value depends on the BLAS thread count.  The rugosity is even
in h and is taken at |h|.  At |h| > 1 its pair amplitude has a double zero
at phi = 0, so its terms subtract ln(4 sin^2(phi/2)), tabulated from
sin(phi/2) itself and built only for those fields, whose N/2-mode sum is
ln 2 in exact arithmetic, and sum the analytic remainder.  Every term is
relatively accurate, ln(1 - q) being taken as log1p(-q), since the N/M
factor would amplify an absolute error.  Fields too large to square are
first scaled by a power of two (see :func:`_field_scale`), which every
kernel takes as an argument.

For g != 0 the chain is solved by exact diagonalization, which works in the
symmetry sector that holds the ground state: states symmetric under
rotations and reversal of the ring, restricted to even spin-flip parity at
g = 0 (see :func:`ed_ground`).  How a sector is solved and how its matrix
is stored are two size limits.  A sector of up to ``MAX_DENSE_SECTOR`` =
128 orbits gets its eigenvalues from ``eigvalsh`` and its ground vector
from one inverse-iteration solve; larger ones are solved by the module's
own Lanczos with full reorthogonalization (see :func:`_lanczos`).  The
matrix is a dense numpy array up to ``_MAX_DENSE_MATRIX`` = 256 orbits,
every sector of up to 12 sites, and a ``scipy.sparse`` CSR array above,
the one part of scipy the package loads.  So the one sector of up to 12
sites above 128 orbits, n = 12 at g != 0 with 224, is solved by Lanczos
on its dense array, and its output is bitwise the same under one and two
BLAS threads.  One cached table per chain length holds the orbits and the
rows of the matrix over all orbits, from which every sector matrix is
formed; a point only forms the matrix values of its fields.

Every cached table is read-only and held in one least-recently-used store,
keyed by builder and size and bounded in bytes by ``_TABLE_BUDGET`` =
12 MiB.  The tables are the momentum tables, 8M bytes for a grid of M
sites; the chord columns, 4M bytes; and the ED chain tables, 4 bytes per
basis state, 5 per matrix entry and 20 per orbit: 0.9 MiB for all lengths
up to 16 sites together, 2.5 MiB at 18 sites and 9.8 MiB at
``MAX_ED_SITES``.  Before a momentum table or chord column is built, the
least recently used tables are dropped until it fits beside the rest, as
its size is known in advance; after any table is built, until the rest
fit.  The budget holds the full table at ``MAX_ANALYTIC_SITES`` with its
chord column, 12 MB, or the chain table of 20 sites, and no table exceeds
it, so the store never holds more than 12 MiB once a call returns; while
a chain table is built, the store and the new table together take at
most 12 + 9.8 MiB.
"""

from __future__ import annotations

import collections
import functools
import math
import threading
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import ConvergenceError, ResourceLimitError, UsageError, warn_caller
from .states import SIGMA_X, SIGMA_Y, SIGMA_Z, DensityMatrix, PureState, _count
from .texture import _rugosity as _overlap_rugosity, rugosity_pure

MAX_ED_SITES = 20
# sectors of up to this many orbits are solved by eigvalsh and one linear
# solve, larger ones by _lanczos; dense against _lanczos per sector solve,
# matrix included (h in {0.2, 0.5, 1, 1.5}, 2-core machine, one BLAS
# thread): 78 orbits 0.4-0.7 against 0.7-2.0 ms, 102 orbits 0.6 against
# 0.8-1.5 ms, 122 orbits 1.0 against 0.9-2.1 ms, 224 orbits 3.7-5.8
# against 1.9-3.7 ms
MAX_DENSE_SECTOR = 128
# sector matrices of up to this many orbits are dense numpy arrays, larger
# ones CSR; 256 keeps every sector of n <= 12 dense, so no solve of up to
# 12 sites imports scipy, and makes every sector of n >= 14 CSR
_MAX_DENSE_MATRIX = 256
MAX_ANALYTIC_SITES = 10 ** 6
# bytes of cached tables kept, in one store; see the module docstring
_TABLE_BUDGET = 12 * 2 ** 20
# the free-fermion kernels stream their temporaries through blocks of this
# many modes, 128 KiB per float64 array, which stay in L2; blocks of 8192,
# 16384 and 32768 modes took 7.5, 5.9 and 9.8 ms per analytic_rugosity at
# n = 1e6 (2-core VM, table cached) against 13.9 ms on the whole arrays.
# Grids of up to 2 * _MODE_BLOCK sites are one block and sum exactly as
# unblocked code
_MODE_BLOCK = 16384
# an analytic scan evaluates the fields that share a grid as the rows of
# blocks of at most this many terms; blocks of _MODE_BLOCK terms were as
# fast but raised the ising-analytic benchmark's peak RSS by 0.2-0.4 MB over
# the point-by-point scan, against 0-0.2 MB at this size (2-core VM)
_ROW_BLOCK = _MODE_BLOCK // 2
DEGENERACY_GAP = 1e-8
# Lanczos (see _lanczos): the Ritz residual tolerance relative to ||T||, the
# cap on the Krylov dimension, and the decades per step by which a failed
# Ritz check extrapolates the residuals to place the next one
LANCZOS_TOL = 1e-13
MAX_LANCZOS_STEPS = 300
_RITZ_DECADES = 0.4
_SQRT_HALF = math.sqrt(0.5)
_UNSCALED_FIELD = 2.0 ** 256  # see _field_scale

# the Pauli products of the pair state: sz on either site, then xx, yy, zz
_Z_SUM = np.kron(SIGMA_Z, np.eye(2)) + np.kron(np.eye(2), SIGMA_Z)
_XX = np.kron(SIGMA_X, SIGMA_X)
_YY = np.kron(SIGMA_Y, SIGMA_Y)
_ZZ = np.kron(SIGMA_Z, SIGMA_Z)


def _pair_rugosity(c_xx: float) -> float:
    """-ln[(1 + Cxx)/4], the rugosity of the pair state (see :class:`PairObservables`)."""
    return _overlap_rugosity((1.0 + c_xx) / 4.0)


@dataclass(frozen=True)
class ChainSpec:
    """Periodic chain parameters: even site count, transverse field h,
    longitudinal field g."""

    n: int
    h: float
    g: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "n", _count(self.n, "site count", 2))
        if self.n % 2 != 0:
            raise UsageError(f"site count must be even and >= 2, got {self.n}")
        if not (math.isfinite(self.h) and math.isfinite(self.g)):
            raise UsageError(f"fields must be finite, got h = {self.h}, g = {self.g}")


@dataclass(frozen=True, eq=False)
class PairObservables:
    """Nearest-neighbor correlators and the pair rugosity.

    The pair state (1 + m_z (sz 1 + 1 sz) + Cxx sx sx + Cyy sy sy + Czz sz sz)/4
    has grand sum 1 + Cxx in the computational basis, since only the
    identity and sx sx have a nonzero sum of entries; so its rugosity is
    -ln[(1 + Cxx)/4] in closed form (infinite at Cxx = -1).  ``rho_pair``
    builds and validates that state on first access only.
    """

    m_z: float
    c_xx: float
    c_yy: float
    c_zz: float

    @property
    def pair_rugosity(self) -> float:
        return _pair_rugosity(self.c_xx)

    @functools.cached_property
    def rho_pair(self) -> DensityMatrix:
        """The 4 x 4 pair state, ordered |site+1, site>."""
        return DensityMatrix((np.eye(4, dtype=complex) + self.m_z * _Z_SUM + self.c_xx * _XX
                              + self.c_yy * _YY + self.c_zz * _ZZ) / 4.0, (2, 2))


@dataclass(frozen=True, eq=False)
class EDGroundState:
    """The exact-diagonalization ground state of a chain (see :func:`ed_ground`).

    ``gap`` is, at g = 0, the distance from the ground energy to the lowest
    level of the odd-parity sector, so that a quasi-degenerate parity
    partner is reported, and elsewhere the distance to the next level of
    the symmetric sector.  ``degenerate`` means a gap below
    ``DEGENERACY_GAP`` = 1e-8.
    """

    state: PureState
    energy: float
    gap: float
    degenerate: bool


@dataclass(frozen=True, eq=False)
class ScanGrid:
    """Rugosity observable over a parameter grid with central differences.

    ``rugosity`` and ``normalized_rugosity`` (divided by the site count) hold
    one entry per grid point; ``first_derivative`` and ``second_derivative``
    act on the normalized rugosity and are two (respectively four) entries
    shorter than the grid; ``kink_estimate`` is the grid point of largest
    curvature magnitude inside the requested window, or None when no window
    was given.
    """

    rugosity: np.ndarray
    normalized_rugosity: np.ndarray
    first_derivative: np.ndarray
    second_derivative: np.ndarray
    kink_estimate: Optional[float]


# ----------------------------------------------------------------------
# Cached tables
# ----------------------------------------------------------------------

# the one table store: (builder, size) -> (table, bytes), least recently used first
_TABLES = collections.OrderedDict()
_TABLES_LOCK = threading.Lock()
_tables_nbytes = 0


def _drop_tables(limit: int, keep: int) -> None:
    """Drop the least recently used tables until the store holds at most
    ``limit`` bytes or ``keep`` tables.  Called under ``_TABLES_LOCK``."""
    global _tables_nbytes
    while _tables_nbytes > limit and len(_TABLES) > keep:
        _tables_nbytes -= _TABLES.popitem(last=False)[1][1]


def _stored(bytes_per_size: int = 0):
    """Decorator for a builder of a read-only table (an array or a tuple of
    arrays) of one integer argument, the size, whose tables are held in the
    one store (see the module docstring); one lock guards it, so threads may
    share it.  ``bytes_per_size`` times the size is what a table takes,
    where that is known before it is built."""
    def decorate(build):
        @functools.wraps(build)
        def stored(size: int):
            global _tables_nbytes
            key = build, size
            with _TABLES_LOCK:
                entry = _TABLES.get(key)
                if entry is not None:
                    _TABLES.move_to_end(key)
                    return entry[0]
                _drop_tables(_TABLE_BUDGET - bytes_per_size * size, keep=0)
                table = build(size)
                columns = (table,) if isinstance(table, np.ndarray) else table
                nbytes = sum(column.nbytes for column in columns)
                _TABLES[key] = table, nbytes
                _tables_nbytes += nbytes
                _drop_tables(_TABLE_BUDGET, keep=1)
                return table
        return stored
    return decorate


# ----------------------------------------------------------------------
# Analytic (free-fermion) branch, g = 0
# ----------------------------------------------------------------------

@_stored(bytes_per_size=8)
def _momentum_table(m: int) -> Tuple[np.ndarray, np.ndarray]:
    """cos phi_p and sin phi_p of the momenta phi_p = (2p-1) pi / M, p = 1..M/2,
    of an antiperiodic grid of M sites, the chain's own (M = N) or a reduced
    one (see :func:`_grid_modes`).

    This is the only part of the free-fermion formulas that depends on the
    grid alone.  Its arrays are read-only, take 8M bytes and are cached
    (see the module docstring).
    """
    # both as sines of exact multiples of pi / 2M in [-pi/2, pi/2]:
    # cos phi = sin(pi/2 - phi) is exactly odd and sin phi exactly even under
    # phi -> pi - phi, the image of h -> -h, and both keep their relative
    # accuracy where they are small (phi near pi/2, and near 0 or pi)
    k = np.arange(m - 2.0, -m, -4.0)  # M - 2(2p - 1), so that pi/2 - phi_p = k pi / 2M
    scale = np.pi / (2 * m)
    sin_phi = np.abs(k)
    np.subtract(m, sin_phi, out=sin_phi)
    sin_phi *= scale
    k *= scale
    table = np.sin(k, out=k), np.sin(sin_phi, out=sin_phi)
    for column in table:
        column.flags.writeable = False
    return table


@_stored(bytes_per_size=4)
def _chord_terms(m: int) -> np.ndarray:
    """ln(4 sin^2(phi_p / 2)) of the modes of a grid of M sites, the term
    that :func:`_log_pair_remainders` subtracts at |h| > 1.

    Built only for those fields, as no other sum reads it.  Read-only,
    4M bytes, and cached like the table.
    """
    chord = np.arange(1.0, m, 2.0)
    chord *= np.pi / (2 * m)
    np.sin(chord, out=chord)
    chord *= 2.0
    log_chord2 = np.log(chord, out=chord)
    log_chord2 *= 2.0
    log_chord2.flags.writeable = False
    return log_chord2


def _grid_modes(n: int, h: float) -> int:
    """Modes K = M/2 of the grid the kernels sum for field h: at most N/2,
    where the grid is the chain's own and the sum the full one.

    K is the smallest power of two >= max(8, 60 / |ln|h||), so that the
    aliasing error of the trapezoidal rule, of order N exp(-2K |ln|h||) <=
    N e^-120, is far below rounding.  K = N/2 covers h = +-1 and every
    chain of up to 16 sites.
    """
    half = n // 2
    if not h:
        return min(8, half)
    gap = abs(math.log(abs(h)))
    if gap == 0.0:
        return half
    # 2^j gap >= 60 = 0.9375 * 2^6 holds exactly in floating point, a power of
    # two times gap being exact; with gap = m 2^e, m in [0.5, 1), the least
    # such j is 6 - e, one more where m < 0.9375
    m, e = math.frexp(gap)
    return min(half, 1 << max(3, 6 - e + (m < 0.9375)))


def _sum_grid(n: int, modes: int, chord: bool = False) -> Tuple[tuple, float]:
    """The momentum table of the grid of M = 2 ``modes`` sites whose modes the
    kernels sum for a chain of n sites, with the chord column if ``chord``,
    and the weight N/M of each of its terms, 1 for the full sum (see
    :func:`_grid_modes`)."""
    m = 2 * modes
    table = _momentum_table(m)
    if chord:
        table += (_chord_terms(m),)
    return table, n / m


def _blocks(table: tuple):
    """Consecutive slices of at most ``_MODE_BLOCK`` modes of a momentum table."""
    for start in range(0, table[0].size, _MODE_BLOCK):
        yield tuple(column[start:start + _MODE_BLOCK] for column in table)


def _table_sum(terms, table: tuple, h, s: float):
    """Sum of ``terms(block, h, s)`` over the blocks of a table; for a column
    of fields, a row block of :func:`_free_fermion` on a table of one block,
    the sum of each row."""
    # the block sums accumulate from -0.0, the exact identity of +, so one
    # block gives bitwise the unblocked sum, and a row of a C-ordered block
    # sums in the order of a 1-D array of its length
    total = -0.0
    for block in _blocks(table):
        total += np.sum(terms(block, h, s), axis=-1)
    return total


def _field_scale(h: float) -> float:
    """1 for |h| <= 2^256, else the power of two s with 1 <= |h|/s < 2.

    Below 2^256 no square or product in the free-fermion formulas leaves the
    float range.  Above it they are evaluated on delta, lam and a divided by
    s and on sin^2 phi and h^2 sin^2 phi divided by s^2: every ratio they
    take is unchanged, nothing overflows, and since dividing by a power of
    two is exact, the results are bitwise those of unscaled arithmetic
    wherever that stayed in range.
    """
    if abs(h) <= _UNSCALED_FIELD:
        return 1.0
    return math.ldexp(1.0, math.frexp(h)[1] - 1)


def _dispersion(table: tuple, h, s: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """delta_p = cos phi_p - h, sin^2 phi_p and lam_p = sqrt(delta_p^2 + sin^2 phi_p),
    divided by s, s^2 and s, for the scale s = :func:`_field_scale` (h).

    h is one field, or a (P, 1) column of fields of one scale for the P rows
    of a block of :func:`_free_fermion`.
    """
    cos_phi, sin_phi = table[0], table[1]
    delta = cos_phi - h
    if s == 1.0:
        sin2 = np.multiply(sin_phi, sin_phi, out=np.empty_like(delta))
    else:
        delta /= s
        sin2 = np.divide(sin_phi, s, out=np.empty_like(delta))
        sin2 *= sin2
    lam = delta * delta
    lam += sin2
    return delta, sin2, np.sqrt(lam, out=lam)


def _ratio(lam: np.ndarray, x: np.ndarray, y2: np.ndarray) -> tuple:
    """r = y2 / (2 lam (lam + |x|)) and the modes with x < 0 and with
    x >= 0: slices of one row, or masks of a block of rows.

    x is cos phi - h or 1 - h cos phi, monotone along every row, so on one
    row the modes with x < 0 are a prefix or a suffix of it, found by
    bisection; the masks of a block pick the same modes of each row.
    """
    if x.ndim == 1:
        if x[0] <= x[-1]:
            split = int(np.searchsorted(x, 0.0))
            negative, rest = slice(0, split), slice(split, None)
        else:
            split = x.size - int(np.searchsorted(x[::-1], 0.0))
            negative, rest = slice(split, None), slice(0, split)
    else:
        negative = x < 0.0
        rest = ~negative
    # |x| + lam is lam + x, or lam - x where x < 0, bit for bit
    r = np.abs(x)
    r += lam
    r *= lam
    r *= 2.0
    np.divide(y2, r, out=r)
    return r, negative, rest


def _in_place(ufunc, x: np.ndarray, modes, *first) -> None:
    """x = ufunc(*first, x) on the modes of :func:`_ratio`: through the view
    of a slice, or under a mask."""
    if isinstance(modes, slice):
        view = x[modes]
        ufunc(*first, view, out=view)
    else:
        ufunc(*first, x, out=x, where=modes)


def _half_sum(lam: np.ndarray, x: np.ndarray, y2: np.ndarray) -> np.ndarray:
    """(lam + x) / (2 lam) for lam = sqrt(x^2 + y2), without cancellation.

    Since lam^2 - x^2 = y2, it equals r = y2 / (2 lam (lam + |x|)) on the
    modes with x < 0, on which it cancels, and 1 - r on the others.
    """
    r, _, rest = _ratio(lam, x, y2)
    _in_place(np.subtract, r, rest, 1.0)
    return r


def _require_analytic(spec: ChainSpec) -> None:
    if spec.g != 0.0:
        raise UsageError("the free-fermion branch requires g = 0")
    if spec.n > MAX_ANALYTIC_SITES:
        raise ResourceLimitError(f"analytic branch limited to {MAX_ANALYTIC_SITES} sites")


def _pair_terms(table: tuple, h, s: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """lam, a = 1 - h cos phi and h^2 sin^2 phi of every mode, divided by s,
    s and s^2 (see :func:`analytic_rugosity`)."""
    delta, sin2, lam = _dispersion(table, h, s)
    hs = h / s
    a = np.multiply(table[0], -hs, out=delta)
    a += 1.0 / s
    if s != 1.0:
        np.multiply(table[1], table[1], out=sin2)
    sin2 *= hs * hs
    return lam, a, sin2


def _log_pair_remainders(table: tuple, h, s: float) -> np.ndarray:
    """ln sin^2(theta_p - phi_p / 2) of every mode of a table, at h >= 0,
    less its third column, ln(4 sin^2(phi_p / 2)), if it has one, as it
    does at h > 1.

    At h > 1 the pair amplitude has a double zero at phi = 0, which the
    subtracted term removes; what is left is analytic in the strip
    |Im phi| < ln h.  Each logarithm is relatively accurate, as a reduced
    sum is scaled by N/M: ln(1 - q) is taken as log1p(-q).
    """
    q, negative, rest = _ratio(*_pair_terms(table, h, s))
    _in_place(np.log, q, negative)
    _in_place(np.negative, q, rest)
    _in_place(np.log1p, q, rest)
    if len(table) > 2:
        q -= table[2]
    return q


def _rugosity_sum(table: tuple, weight: float, h, s: float):
    """The rugosity at |h| from the terms of a grid table of weight N/M, for
    one field or for each of a column of fields of scale s."""
    # the amplitudes are even in h; at |h| > 1 the table holds the chord
    # column and the terms leave out ln(4 sin^2(phi_p / 2)), whose sum over
    # the N/2 modes is ln 2, as prod_p 2 sin((2p - 1) pi / 2N) = sqrt(2);
    # that leaves no large term to cancel against the sum
    base = 0.0 if len(table) > 2 else math.log(2.0)
    return base - weight * _table_sum(_log_pair_remainders, table, abs(h), s)


def analytic_rugosity(spec: ChainSpec) -> float:
    """Ground-state rugosity of the g = 0 chain in closed form.

    The even-parity ground state is a paired Bogoliubov state; its overlap
    with the uniform superposition gives

        R = ln 2 - sum_p ln sin^2(theta_p - phi_p / 2),

    where sin^2(theta_p - phi_p / 2) equals the pair amplitude
    ``|v_p cos(phi/2) - i u_p sin(phi/2)|^2`` with u_p = cos theta_p and
    v_p = i sin theta_p.  The angle itself is never formed.  With
    delta = cos phi - h and lam = sqrt(delta^2 + sin^2 phi), cos theta =
    -sqrt((lam - delta) / 2 lam) and sin theta = sqrt((lam + delta) / 2 lam)
    give cos 2theta = cos^2 theta - sin^2 theta = -delta / lam and
    sin 2theta = 2 sin theta cos theta = -sin phi / lam, so

        sin^2(theta - phi/2) = (1 - cos 2theta cos phi - sin 2theta sin phi) / 2
                             = (lam + delta cos phi + sin^2 phi) / (2 lam)
                             = (lam + a) / (2 lam),   a = 1 - h cos phi.

    Since lam^2 - a^2 = h^2 sin^2 phi, the amplitude is
    q = h^2 sin^2 phi / (2 lam (lam + |a|)) where a < 0, the modes on which
    lam + a cancels (|h| > 1), and 1 - q elsewhere.  At h = 0 every q is
    exactly 0 and R = ln 2.  The sum is taken at |h| on the grid of
    :func:`_grid_modes`, a reduced one away from h = +-1.
    """
    _require_analytic(spec)
    return float(_free_fermion(spec.n, np.array([spec.h], dtype=float), True)[0, 0])


def _pair_correlators(table: tuple, h, s: float):
    """m_z at |h| and the correlators G(+1) and G(-1) from the sums over a
    grid table, for one field or for each of a column of fields of scale s.

    They are the two-point contractions of the even-sector ground state,

        G(r) = (4/N) sum_p [sin^2 theta cos(phi r) - sin theta cos theta sin(phi r)]
               - [r = 0],

    needed at r = 0, +1 and -1 only, so three sums: of sin^2 theta =
    (lam + delta) / (2 lam), of sin^2 theta cos phi, and of
    -sin theta cos theta sin phi = sin^2 phi / (2 lam).  Each sum over a
    reduced grid of M sites is M/N times the chain's, so the same formulas
    with M for N give the chain's values.

    The correlators are even in h and m_z is odd, as the table is symmetric
    under phi -> pi - phi, so all are taken at |h|: for h << 0 every
    sin^2 theta is near 1 and the hopping sum would cancel to its rounding.
    """
    sites = 2 * table[0].size
    diagonal = hopping = pairing = -0.0
    for cos_phi, sin_phi in _blocks(table):
        delta, sin2, lam = _dispersion((cos_phi, sin_phi), abs(h), s)
        sin2_t = _half_sum(lam, delta, sin2)
        diagonal += np.sum(sin2_t, axis=-1)
        # a product and a sum, not a dot product, whose BLAS kernel sums in
        # an order that depends on its thread count
        sin2_t *= cos_phi
        hopping += np.sum(sin2_t, axis=-1)
        if s != 1.0:
            np.multiply(sin_phi, sin_phi, out=sin2)
        sin2 /= lam
        pairing += np.sum(sin2, axis=-1)
    pairing = 0.5 * pairing / s
    m_z = 1.0 - 4.0 * diagonal / sites
    return m_z, 4.0 * (hopping + pairing) / sites, 4.0 * (hopping - pairing) / sites


def _free_fermion(n: int, fields: np.ndarray, full: bool) -> np.ndarray:
    """The rugosity (``full``), or m_z at |h|, G(+1) and G(-1) (see
    :func:`_pair_correlators`), at every field of an array: one row per
    quantity, one column per field.

    The fields that share a grid, a scale (see :func:`_field_scale`) and,
    for the rugosity, a side of |h| = 1 are evaluated together, as the rows
    of blocks of at most ``_ROW_BLOCK`` terms.  Each row sums its terms in
    the order of a lone field's single block, so every value is bitwise the
    same whichever fields share its block.  A block of one field, as every
    field of a grid above ``_ROW_BLOCK`` modes is, is evaluated on that
    field's slices (see :func:`_ratio`), which beat a one-row mask.
    """
    values = np.empty((1 if full else 3, fields.size))
    listed = fields.tolist()
    groups = {}
    for k, h in enumerate(listed):
        key = _grid_modes(n, h), full and abs(h) > 1.0, _field_scale(h)
        groups.setdefault(key, []).append(k)
    for (modes, chord, s), group in groups.items():
        table, weight = _sum_grid(n, modes, chord)
        column = fields[group, None] if len(group) > 1 else None
        rows = max(1, _ROW_BLOCK // modes)
        for start in range(0, len(group), rows):
            at = group[start:start + rows]
            if len(at) == 1:
                at, h = at[0], listed[at[0]]
            else:
                h = column[start:start + rows]
            values[:, at] = (_rugosity_sum(table, weight, h, s) if full
                             else _pair_correlators(table, h, s))
    return values


def pair_observables(spec: ChainSpec) -> PairObservables:
    """Magnetization, nearest-neighbor correlators and pair rugosity of the
    g = 0 ground state, from the fermionic two-point contractions (see
    :func:`_pair_correlators`)."""
    _require_analytic(spec)
    m_z, g_plus, g_minus = _free_fermion(spec.n, np.array([spec.h], dtype=float),
                                         False)[:, 0].tolist()
    return PairObservables(-m_z if spec.h < 0.0 else m_z, g_plus, g_minus,
                           m_z * m_z - g_plus * g_minus)


# ----------------------------------------------------------------------
# Exact diagonalization branch
# ----------------------------------------------------------------------

class _ChainTable(NamedTuple):
    """The orbits of a chain length and the rows of its orbit matrix.

    ``orbit`` is the orbit number of each of the 2^n basis states under
    rotations and reversal of the ring, and ``size`` each orbit's size.  Row
    a of the matrix over all orbits holds its diagonal entry, then one entry
    per flip term: n bond flips, then n site flips.  ``index`` holds each
    entry's column, ``code`` its value as an index into the table that
    :func:`_sector_hamiltonian` forms for the point's fields:

        code                    value
        p, popcount of a        -(h/2) (n - 2p)
        n + 1 + pair            -sqrt(N_a / N_b) / 2     (bond flip into b)
        n + 1 + D^2 + pair      (g/2) sqrt(N_a / N_b)    (site flip into b)

    where ``pair`` numbers (N_a, N_b) among the D^2 pairs of the D distinct
    orbit sizes, whose sqrt(N_a / N_b) are ``ratios``; D <= 8 up to 20
    sites, so every code fits a byte.  Bond flips keep the spin-flip parity,
    so the g = 0 matrix of one parity is formed from the first 1 + n
    entries of its rows, the orbits ``even`` or ``odd``, with each column
    renumbered to its ``position`` within that parity.
    """

    orbit: np.ndarray
    size: np.ndarray
    index: np.ndarray
    code: np.ndarray
    ratios: np.ndarray
    even: np.ndarray
    odd: np.ndarray
    position: np.ndarray


def _orbits(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The representative (smallest member) of each orbit of the 2^n basis
    states under rotations and reversal of the ring, and the orbit number
    of every state; the 2^n temporaries are freed on return."""
    dim = 1 << n
    # int32 holds the states of up to 30 sites and halves the memory traffic
    states = np.arange(dim, dtype=np.int32)
    mirror = np.zeros(dim, dtype=np.int32)
    for j in range(n):
        mirror |= ((states >> j) & 1) << (n - 1 - j)
    rep = states.copy()
    for image in (states, mirror):
        for _ in range(n):
            np.minimum(rep, image, out=rep)
            image = ((image << 1) | (image >> (n - 1))) & (dim - 1)
    # a representative is its own orbit minimum, so numbering the states that
    # equal their minimum, in order, numbers the orbits without a sort
    is_rep = rep == states
    orbit = (np.cumsum(is_rep, dtype=np.int32) - 1)[rep]
    return states[is_rep], orbit


@_stored()
def _chain_table(n: int) -> _ChainTable:
    """The orbit table and matrix rows of a chain of n sites (see :class:`_ChainTable`).

    Read-only and cached (see the module docstring).
    """
    reps, orbit = _orbits(n)
    size = np.bincount(orbit)
    distinct, size_code = np.unique(size, return_inverse=True)
    size_code = size_code.astype(np.uint8)
    pop = sum((reps >> j) & 1 for j in range(n))
    masks = [(1 << j) | (1 << ((j + 1) % n)) for j in range(n)] + [1 << j for j in range(n)]
    targets = orbit[reps[:, None] ^ np.array(masks, dtype=np.int32)]
    index = np.empty((reps.size, 1 + 2 * n), dtype=np.int32)
    index[:, 0] = np.arange(reps.size)
    index[:, 1:] = targets
    code = np.empty(index.shape, dtype=np.uint8)
    code[:, 0] = pop
    code[:, 1:] = size_code[:, None] * distinct.size + size_code[targets]
    code[:, 1:] += n + 1
    code[:, n + 1:] += distinct.size ** 2
    even, odd = np.flatnonzero(pop % 2 == 0), np.flatnonzero(pop % 2 == 1)
    position = np.empty(reps.size, dtype=np.int32)
    position[even] = np.arange(even.size)
    position[odd] = np.arange(odd.size)
    table = _ChainTable(orbit, size, index, code, np.sqrt(distinct[:, None] / distinct).ravel(),
                        even, odd, position)
    for column in table:
        column.flags.writeable = False
    return table


def _sector_hamiltonian(spec: ChainSpec, table: _ChainTable, scale: float,
                        parity: Optional[int] = None):
    """Chain Hamiltonian divided by ``scale`` on the symmetric states of all
    orbits, or at g = 0 of the orbits of one spin-flip ``parity``, 0 or 1
    (see :class:`_ChainTable`).

    Orbit state |a> is the normalized uniform superposition of its N_a
    members, so <b|H|a> = sum c sqrt(N_a / N_b) over the flip terms c that
    take the representative of a into orbit b.  The matrix is affine in h
    and g, so a point only forms the few values its entries take and looks
    up the cached codes.  Dense up to ``_MAX_DENSE_MATRIX`` orbits, a CSR
    array above.  The scale is a power of two (see :func:`_field_scale`), so
    dividing by it is exact and keeps the entries of fields up to the float
    maximum finite.
    """
    n, ratios = spec.n, table.ratios
    index, code = table.index, table.code
    if parity is not None:
        rows = table.odd if parity else table.even
        index = table.position[index[rows, :n + 1]]
        code = code[rows, :n + 1]
    m = index.shape[0]
    # row a holds <b|H|a> = <a|H|b>: the diagonal, then one entry per flip
    # term; entries that land on the same orbit b add up
    values = np.concatenate((np.multiply(n - 2.0 * np.arange(n + 1), -(spec.h / scale / 2.0)),
                             ratios * (-0.5 / scale), ratios * (spec.g / scale / 2.0)))
    value = np.take(values, code, mode="clip").ravel()
    if m <= _MAX_DENSE_MATRIX:
        flat = (np.arange(0, m * m, m)[:, None] + index).ravel()
        return np.bincount(flat, weights=value, minlength=m * m).reshape(m, m)
    from scipy.sparse import csr_array
    indptr = np.arange(0, index.size + 1, index.shape[1], dtype=np.int32)
    return csr_array((value, index.ravel(), indptr), shape=(m, m))


def _ground_vector(ham: np.ndarray, evals: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The lowest eigenvector of a dense sector matrix by one step of inverse
    iteration, which overwrites ``ham``.

    The shift sits four ulps of |H| = max |eigenvalue| below the computed
    E_0, so H - shift is never singular to rounding, not even where huge
    scaled fields leave subnormal off-diagonals and a diagonal entry equal
    to E_0.  The solution is rescaled by its largest entry before it is
    normalized, so its norm cannot overflow.
    """
    m = ham.shape[0]
    shift = evals[0] - 4.0 * np.spacing(max(-evals[0], evals[-1]))
    ham.reshape(-1)[::m + 1] -= shift
    vec = np.linalg.solve(ham, start)
    vec /= np.max(np.abs(vec))
    return vec / np.linalg.norm(vec)


def _lanczos(ham, k: int, start: np.ndarray, vector: bool
             ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The k lowest eigenvalues and, if ``vector``, the lowest eigenvector
    (None otherwise) of a symmetric matrix, a dense array or a CSR array, by
    Lanczos with full reorthogonalization from ``start``; the matrix enters
    only through ``ham @ v``.

    Each step takes the three-term recurrence, then reorthogonalizes the new
    vector against the whole basis by classical Gram-Schmidt, with a second
    pass (DGKS) only where the first cancels more than 1/sqrt(2) of its
    norm.  The solve stops once the k lowest Ritz residuals beta_j |s_ji|
    are at most ``LANCZOS_TOL`` times ||T|| = max |theta|, and forms the
    Ritz vector then, once.  The tridiagonal matrix T is diagonalized as
    soon as the basis holds k vectors, then log10(r) / ``_RITZ_DECADES``
    steps (at least one) after each check that failed by the factor r; the
    residuals rarely fall faster than that over a skipped stretch.  Over 84
    sector solves at 14 and 16 sites, and over the 90 solves of the
    224-orbit sector of 12 sites on the README and benchmark g-scans
    (h = 0.5, 40 to 55 steps), the solve stopped at most one step later than
    a check at every step would have; at g = 8.9e-16 that sector stopped
    three steps later.  Where the Krylov space turns invariant to rounding,
    T is diagonalized at once.

    The basis is filled in place in one array of at most
    ``MAX_LANCZOS_STEPS`` rows, and never more than the m rows of the
    matrix.  Its pages are touched only as the steps fill it, so a solve of
    j steps holds 8 j m bytes of basis, at most 8 MAX_LANCZOS_STEPS m:
    65 MB for the 27 012 orbits of the g != 0 sector of ``MAX_ED_SITES``.
    A solve that has not converged within that many steps raises
    ``ConvergenceError``.
    """
    m = start.size
    steps = min(MAX_LANCZOS_STEPS, m)
    basis = np.empty((steps, m))
    np.divide(start, np.linalg.norm(start), out=basis[0])
    # T's lower triangle: alpha on the diagonal, beta below it
    tri = np.zeros((steps + 1, steps))
    beta = largest = 0.0
    check = k - 1
    for j in range(steps):
        w = ham @ basis[j]
        if j:
            w -= beta * basis[j - 1]
        alpha = basis[j] @ w
        w -= alpha * basis[j]
        head = basis[:j + 1]
        before = np.linalg.norm(w)
        c = head @ w
        w -= c @ head
        beta = np.linalg.norm(w)
        if beta < before * _SQRT_HALF:
            d = head @ w
            w -= d @ head
            c += d
            beta = np.linalg.norm(w)
        alpha += c[j]
        tri[j, j], tri[j + 1, j] = alpha, beta
        # max |alpha| <= ||T||: below half the tolerance of it, beta leaves
        # every Ritz residual converged, and w is rounding noise
        largest = max(largest, abs(alpha))
        invariant = beta <= 0.5 * LANCZOS_TOL * largest
        if j >= check or (invariant and j + 1 >= k):
            theta, s = np.linalg.eigh(tri[:j + 1, :j + 1])
            excess = beta * np.max(np.abs(s[-1, :k])) / (LANCZOS_TOL * max(-theta[0], theta[-1]))
            if excess <= 1.0:
                return theta[:k], (s[:, 0] @ head if vector else None)
            check = j + max(1, int(math.log10(excess) / _RITZ_DECADES))
        if invariant or j + 1 == steps:
            break
        np.divide(w, beta, out=basis[j + 1])
    raise ConvergenceError(f"Lanczos did not converge to {k} eigenpairs in {j + 1} steps "
                           f"on a sector of {m} orbits")


def _lowest(spec: ChainSpec, table: _ChainTable, k: int, scale: float,
            parity: Optional[int] = None, vector: bool = True
            ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The k lowest eigenvalues and, if ``vector``, the lowest eigenvector
    (None otherwise) of a sector matrix (see :func:`_sector_hamiltonian`).

    A sector of up to ``MAX_DENSE_SECTOR`` orbits gets its eigenvalues from
    ``eigvalsh`` and its vector from one inverse-iteration solve (see
    :func:`_ground_vector`).  That solve starts from the sign pattern of the
    ground vector, which is positive in the orbit basis up to the gauge
    (-1)^popcount at g > 0 (see :func:`ed_ground`); its overlap with the
    ground vector is then at least 1/sqrt(m), where a random start can be
    orthogonal to it.  A larger
    sector, a dense array up to ``_MAX_DENSE_MATRIX`` orbits and a CSR array
    above, is solved by :func:`_lanczos` from a normal start vector seeded
    by n, to Ritz residuals of at most ``LANCZOS_TOL`` ||T||.
    """
    ham = _sector_hamiltonian(spec, table, scale, parity)
    m = ham.shape[0]
    if m <= MAX_DENSE_SECTOR:
        evals = np.linalg.eigvalsh(ham)
        if not vector:
            return evals[:k], None
        start = np.ones(m)
        if spec.g > 0.0:
            # at g != 0 the rows are those of all orbits
            start[table.odd] = -1.0
        return evals[:k], _ground_vector(ham, evals, start)
    start = np.random.default_rng(0x1517 + spec.n).standard_normal(m)
    return _lanczos(ham, k, start, vector)


def ed_ground(spec: ChainSpec) -> EDGroundState:
    """Ground state, energy and spectral gap by exact diagonalization.

    The solve runs in the sector that holds the ground state: symmetric
    superpositions over the orbits of basis states under rotations and
    reversal of the ring.  In the sz basis the off-diagonal elements are
    -1/2 (bond flips) and g/2 (site flips), and the gauge prod sz maps g to
    -g, so by Perron-Frobenius the ground state is positive up to that gauge
    and hence invariant under translation and reflection.  At g = 0 the
    Hamiltonian also conserves spin-flip parity, and the solve keeps only
    the even-popcount orbits, which selects the even ground state even when
    the odd partner is quasi-degenerate; the odd sector supplies only its
    lowest eigenvalue, for the gap.

    A sector of up to ``MAX_DENSE_SECTOR`` = 128 orbits (every sector of
    n <= 10, and the parity sectors of n = 12) is solved densely:
    ``eigvalsh`` gives the reported eigenvalues and one inverse-iteration
    solve the ground vector, as only one vector is reported.  Larger
    sectors are solved by Lanczos with full reorthogonalization (see
    :func:`_lanczos`): at n = 12 and g != 0 on the dense array of its 224
    orbits, for n >= 14 on a CSR matrix, which loads ``scipy.sparse`` and
    no other part of scipy; a solve that does not converge within
    ``MAX_LANCZOS_STEPS`` steps raises ``ConvergenceError``.
    The orbits and the matrix rows of a chain length are one cached table
    (see :func:`_chain_table`), from whose rows a point forms its sector
    matrix with the values for its h and g.

    Amplitudes are real with the largest-magnitude entry positive; basis
    index bit j holds chain site j, so subsystem axis k of the returned
    state corresponds to site n-1-k.
    """
    if spec.n > MAX_ED_SITES:
        raise ResourceLimitError(f"exact diagonalization limited to {MAX_ED_SITES} sites")
    s = _field_scale(max(abs(spec.h), abs(spec.g)))
    table = _chain_table(spec.n)
    if spec.g == 0.0:
        evals, coef = _lowest(spec, table, 1, s, parity=0)
        odd, _ = _lowest(spec, table, 1, s, parity=1, vector=False)
        e0, gap = float(evals[0]), float(odd[0] - evals[0])
        amplitude = np.zeros(table.size.size)
        amplitude[table.even] = coef / np.sqrt(table.size[table.even])
    else:
        evals, coef = _lowest(spec, table, 2, s)
        e0, gap = float(evals[0]), float(evals[1] - evals[0])
        amplitude = coef / np.sqrt(table.size)
    e0, gap = e0 * s, gap * s
    degenerate = gap < DEGENERACY_GAP
    if degenerate:
        warn_caller(f"near-degenerate ground space (gap {gap:.3e}) for {spec}")
    # one 2^n array with its largest entry made positive; PureState normalizes it
    vec = amplitude[table.orbit]
    if vec[np.argmax(np.abs(vec))] < 0:
        np.negative(vec, out=vec)
    state = PureState(vec, (2,) * spec.n)
    return EDGroundState(state=state, energy=e0, gap=gap, degenerate=degenerate)


def ed_rugosity(spec: ChainSpec) -> float:
    """Rugosity of the exact-diagonalization ground state."""
    return rugosity_pure(ed_ground(spec).state)


def ed_pair_observables(spec: ChainSpec) -> PairObservables:
    """Nearest-neighbor observables of the exact-diagonalization ground
    state; the state is translation invariant, so sites (0, 1) stand for
    every pair.  Their state is ``M M^+`` over its trace, for the
    4 x 2^(n-2) matrix M of the amplitudes, ordered |1, 0> like the pair
    state: sites 1 and 0 are the last two subsystem axes, the
    fastest-varying index."""
    mat = ed_ground(spec).state.amplitudes.reshape(-1, 4).T
    rho = mat @ mat.conj().T
    rho /= np.trace(rho).real
    z_sum, c_xx, c_yy, c_zz = (float(np.real(np.trace(rho @ op)))
                               for op in (_Z_SUM, _XX, _YY, _ZZ))
    return PairObservables(0.5 * z_sum, c_xx, c_yy, c_zz)


def dispersion_ground_energy(spec: ChainSpec) -> float:
    """Free-fermion ground energy ``-sum_p lam_p`` of the g = 0 chain."""
    _require_analytic(spec)
    table, weight = _sum_grid(spec.n, _grid_modes(spec.n, spec.h))
    s = _field_scale(spec.h)
    total = _table_sum(lambda block, h, s: _dispersion(block, h, s)[2], table, spec.h, s)
    # in Python floats, which overflow to -inf silently, as ED's energies do
    return -float(total) * s * weight


# ----------------------------------------------------------------------
# Criticality scans
# ----------------------------------------------------------------------

def scan(spec: ChainSpec, axis: str, grid: Sequence[float], observable: str = "full",
         method: str = "analytic",
         kink_window: Optional[Tuple[float, float]] = None) -> ScanGrid:
    """Evaluate the rugosity observable over a sorted parameter grid and
    differentiate it.

    An analytic scan runs one array pass per momentum grid and field scale
    through the evaluator of the point functions (see :func:`_free_fermion`),
    so each value is bitwise the one of :func:`analytic_rugosity` or
    :func:`pair_observables`.  An ED scan solves one chain per grid point.

    Parameters
    ----------
    spec : ChainSpec
        Template chain; the swept parameter is replaced per grid point.
    axis : str
        'h' or 'g'.
    grid : sequence of float
        Sorted sweep values, at least 5 points.
    observable : str
        'full' for the ground-state rugosity, 'pair' for the
        nearest-neighbor pair rugosity.
    method : str
        'analytic' (free fermion, g = 0 only) or 'ed'.
    kink_window : (lo, hi), optional
        Window in which to locate the curvature extremum.
    """
    if axis not in ("h", "g"):
        raise UsageError(f"axis must be 'h' or 'g', got {axis!r}")
    if method not in ("analytic", "ed"):
        raise UsageError(f"method must be 'analytic' or 'ed', got {method!r}")
    if observable not in ("full", "pair"):
        raise UsageError(f"observable must be 'full' or 'pair', got {observable!r}")
    try:
        pts = np.asarray(list(grid), dtype=float)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"scan grid must be a one-dimensional sequence of numbers: {exc}") from exc
    if pts.ndim != 1:
        raise UsageError(f"scan grid must be one-dimensional, got shape {pts.shape}")
    if pts.size < 5:
        raise UsageError("scan grid needs at least 5 points")
    if not np.all(np.isfinite(pts)):
        raise UsageError("scan grid must be finite")
    if np.any(np.diff(pts) <= 0):
        raise UsageError("scan grid must be strictly increasing")

    x2 = pts[2:-2]
    window = None
    if kink_window is not None:
        if np.shape(kink_window) != (2,):
            raise UsageError(f"kink window must be two numbers (lo, hi), got {kink_window!r}")
        lo, hi = float(kink_window[0]), float(kink_window[1])
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise UsageError(f"kink window bounds must be finite, got [{lo}, {hi}]")
        window = (x2 >= lo) & (x2 <= hi)
        if not np.any(window):
            raise UsageError(f"kink window [{lo}, {hi}] contains no interior grid point")

    if method == "analytic":
        if axis == "g" or spec.g != 0.0:
            raise UsageError("the analytic method requires g = 0 and an h-axis scan")
        _require_analytic(spec)
        values = _free_fermion(spec.n, pts, observable == "full")
        values = values[0] if observable == "full" else np.array(
            [_pair_rugosity(c_xx) for c_xx in values[1].tolist()])
    else:
        values = np.empty(pts.size)
        for k, x in enumerate(pts):
            point = ChainSpec(spec.n, h=x if axis == "h" else spec.h,
                              g=spec.g if axis == "h" else x)
            values[k] = (ed_rugosity(point) if observable == "full"
                         else ed_pair_observables(point).pair_rugosity)

    normalized = values / spec.n
    d1 = (normalized[2:] - normalized[:-2]) / (pts[2:] - pts[:-2])
    x1 = pts[1:-1]
    d2 = (d1[2:] - d1[:-2]) / (x1[2:] - x1[:-2])

    kink = None
    if window is not None:
        inside = window & np.isfinite(d2)
        if not np.any(inside):
            raise UsageError(f"kink window [{lo}, {hi}] holds no finite curvature")
        sub = np.where(inside)[0]
        kink = float(x2[sub[np.argmax(np.abs(d2[sub]))]])

    return ScanGrid(rugosity=values, normalized_rugosity=normalized, first_derivative=d1,
                    second_derivative=d2, kink_estimate=kink)
