import contextlib
import functools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as strat

import statetexture
import statetexture.ising as ising
from oracles import (SX, SY, SZ, bogoliubov_angles, kron_ising_hamiltonian, kron_ising_terms,
                     residual, sparse_ising_hamiltonian)
from statetexture import (ChainSpec, ConvergenceError, ResourceLimitError, UsageError,
                          analytic_rugosity,
                          computational_basis, dispersion_ground_energy,
                          ed_ground, ed_pair_observables,
                          ed_rugosity, pair_observables, partial_trace,
                          rugosity_pure, scan,
                          texture_in_basis)


def _held(build) -> dict:
    """The tables of one stored builder that the table store holds, by size."""
    return {size: table for (builder, size), (table, _) in ising._TABLES.items()
            if builder is build.__wrapped__}


def _same_tables(before: dict, after: dict) -> bool:
    """Whether two ``_held`` readings hold the same table objects: none was
    built in between."""
    return before.keys() == after.keys() and all(after[m] is t for m, t in before.items())


def _empty_store() -> None:
    with ising._TABLES_LOCK:
        ising._TABLES.clear()
        ising._tables_nbytes = 0


class TestChainSpec:
    def test_odd_site_count_rejected(self):
        with pytest.raises(UsageError):
            ChainSpec(5, 1.0)

    def test_analytic_requires_zero_g(self):
        with pytest.raises(UsageError):
            analytic_rugosity(ChainSpec(4, 1.0, g=0.5))

    def test_ed_size_limit(self):
        with pytest.raises(ResourceLimitError):
            ed_ground(ChainSpec(22, 1.0)).state

    @pytest.mark.parametrize("h, g", [(math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0),
                                      (0.5, math.nan), (0.5, math.inf), (0.5, -math.inf)])
    def test_non_finite_fields_rejected(self, h, g):
        with pytest.raises(UsageError):
            ChainSpec(16, h, g)


class TestBogoliubovModes:
    """The modes as the kernels see them: the momentum table, the
    dispersion, and sin^2 theta and cos^2 theta as the half sums
    (lam +- delta) / (2 lam).  The kernels never form the angle; the
    tests compare with the angles that ``oracles`` builds by arctan2."""

    def test_momenta_and_flat_dispersion_at_zero_field(self):
        table = ising._momentum_table(4)
        assert np.allclose(np.arctan2(table[1], table[0]), [np.pi / 4, 3 * np.pi / 4],
                           rtol=0, atol=1e-15)
        assert np.allclose(ising._dispersion(table, 0.0, 1.0)[2], [1.0, 1.0], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("h", [0.0, 0.2, 1.0, 1.5, 3.0, 50.0])
    @pytest.mark.parametrize("n", [4, 12, 64])
    def test_angle_norm_and_domain(self, n, h):
        delta, sin2, lam = ising._dispersion(ising._momentum_table(n), h, 1.0)
        sin2_theta = ising._half_sum(lam, delta, sin2)
        cos2_theta = ising._half_sum(lam, -delta, sin2)
        for half in (sin2_theta, cos2_theta):
            assert np.all((half >= 0.0) & (half <= 1.0))
        assert np.max(np.abs(sin2_theta + cos2_theta - 1.0)) < 1e-12
        # against theta in [pi/2, pi] from arctan2
        _, theta = bogoliubov_angles(n, h)
        assert np.all((theta >= math.pi / 2) & (theta <= math.pi + 1e-12))
        assert np.max(np.abs(sin2_theta - np.sin(theta) ** 2)) < 1e-12


class TestAnalyticRugosity:
    def test_strong_field_plateau(self):
        spec = ChainSpec(512, 50.0)
        assert abs(analytic_rugosity(spec) / 512 - math.log(2)) / math.log(2) < 0.02

    def test_zero_field_value(self):
        # even-parity ground state at h = 0 overlaps the uniform state at 1/2
        assert abs(analytic_rugosity(ChainSpec(512, 0.0)) - math.log(2)) < 1e-9
        assert analytic_rugosity(ChainSpec(512, 0.0)) / 512 <= math.log(2) / 512 + 1e-6

    @pytest.mark.parametrize("h", [0.2, 0.5, 1.0, 1.5, 3.0])
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_matches_ed(self, n, h):
        spec = ChainSpec(n, h)
        assert abs(analytic_rugosity(spec) - ed_rugosity(spec)) < 1e-8

    @pytest.mark.parametrize("h", [-1.7, -0.3, 0.0, 0.2, 1.0, 1.5, 3.0])
    @pytest.mark.parametrize("n", [4, 12, 64, 512])
    def test_pair_amplitude_forms_agree(self, n, h, pair_amplitudes):
        # the kernel's pair amplitudes, which it forms from lam and
        # 1 - h cos(phi) without the angle, against sin^2(theta - phi/2)
        phi, theta = bogoliubov_angles(n, h)
        assert np.max(np.abs(pair_amplitudes(n, h) - np.sin(theta - phi / 2.0) ** 2)) < 1e-10

    @pytest.mark.parametrize("h", [1.5, 2.0, -1.5])
    def test_pair_amplitudes_match_mpmath(self, h):
        # the modes nearest phi = 0 and phi = pi; at h > 1 (h < -1) the first
        # (last) ones are those on which lam + 1 - h cos(phi) cancels and whose
        # double zero the chord term 4 sin^2(phi/2) (4 cos^2(phi/2)) removes.
        # The kernel runs at |h|, and h -> -h maps phi to pi - phi, so at
        # h < -1 its terms come back reversed
        mpmath = pytest.importorskip("mpmath")
        n = 10 ** 6
        table = ising._momentum_table(n) + (ising._chord_terms(n),)
        got = np.exp(ising._log_pair_remainders(table, abs(h), 1.0))[::1 if h > 0 else -1]
        with mpmath.workdps(40):
            for p in [*range(1, 11), *range(n // 2 - 9, n // 2 + 1)]:
                phi = (2 * p - 1) * mpmath.pi / n
                lam = mpmath.sqrt((h - mpmath.cos(phi)) ** 2 + mpmath.sin(phi) ** 2)
                chord = 4 * mpmath.sin((phi if h > 0 else mpmath.pi - phi) / 2) ** 2
                want = float((lam + 1 - h * mpmath.cos(phi)) / (2 * lam * chord))
                assert abs(got[p - 1] - want) <= 1e-12 * want

    @pytest.mark.parametrize("n", [2, 6, 64, 1000])
    def test_mode_amplitudes_even_in_h(self, n):
        # h -> -h maps phi to pi - phi, the table's cos phi to -cos phi and
        # its sin phi to itself, so the mode terms and the amplitude ratios
        # come back reversed; this is why the kernels may run at |h|
        table = ising._momentum_table(n)
        for h in (0.3, 1.0, 1.5, 50.0, 1e300):
            s = ising._field_scale(h)
            terms, mirror = ising._pair_terms(table, h, s), ising._pair_terms(table, -h, s)
            for column, image in zip(terms, mirror):
                assert np.array_equal(column, image[::-1])
            assert np.array_equal(ising._ratio(*terms)[0], ising._ratio(*mirror)[0][::-1])

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(k=strat.integers(1, 5 * 10 ** 5),
           h=strat.one_of(strat.floats(0.98, 1.02), strat.floats(allow_nan=False,
                                                                  allow_infinity=False)))
    def test_values_exactly_even_in_h(self, k, h):
        # the grid depends on |ln|h|| and every kernel runs at |h|, so
        # h -> -h leaves the rugosity and correlators bitwise and flips m_z
        spec, mirror = ChainSpec(2 * k, h), ChainSpec(2 * k, -h)
        assert analytic_rugosity(spec) == analytic_rugosity(mirror)
        obs, other = pair_observables(spec), pair_observables(mirror)
        assert (obs.c_xx, obs.c_yy, obs.c_zz) == (other.c_xx, other.c_yy, other.c_zz)
        assert obs.m_z == -other.m_z

    @pytest.mark.parametrize("h", [1.5, 2.0])
    def test_total_matches_mpmath(self, h):
        mpmath = pytest.importorskip("mpmath")
        n = 16384
        with mpmath.workdps(40):
            terms = []
            for p in range(1, n // 2 + 1):
                phi = (2 * p - 1) * mpmath.pi / n
                lam = mpmath.sqrt((h - mpmath.cos(phi)) ** 2 + mpmath.sin(phi) ** 2)
                terms.append(mpmath.log((lam + 1 - h * mpmath.cos(phi)) / (2 * lam)))
            want = float(mpmath.log(2) - mpmath.fsum(terms))
        assert abs(analytic_rugosity(ChainSpec(n, h)) - want) <= 1e-13 * want

    def test_even_in_h(self):
        for n in (8, 512):
            for h in (0.3, 1.0, 1.7):
                assert analytic_rugosity(ChainSpec(n, h)) == analytic_rugosity(ChainSpec(n, -h))


class TestPairObservables:
    def test_strong_field_limit(self):
        obs = pair_observables(ChainSpec(512, 50.0))
        assert abs(obs.c_xx) < 0.02
        assert abs(obs.pair_rugosity - math.log(4)) / math.log(4) < 0.02
        assert obs.m_z > 0.99

    @pytest.mark.parametrize("h", [0.2, 1.0, 3.0])
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_matches_ed_partial_trace(self, n, h):
        ana = pair_observables(ChainSpec(n, h))
        ed = ed_pair_observables(ChainSpec(n, h))
        assert abs(ana.m_z - ed.m_z) < 1e-8
        assert abs(ana.c_xx - ed.c_xx) < 1e-8
        assert abs(ana.c_yy - ed.c_yy) < 1e-8
        assert abs(ana.c_zz - ed.c_zz) < 1e-8

    @pytest.mark.parametrize("h", [0.2, 1.0, 3.0])
    def test_two_rugosity_forms_agree(self, h):
        obs = pair_observables(ChainSpec(64, h))
        # the closed form against the grand sum of the pair state itself
        direct = texture_in_basis(obs.rho_pair, computational_basis(4)).rugosity
        assert abs(obs.pair_rugosity - direct) < 1e-10
        assert obs.pair_rugosity == -math.log((1.0 + obs.c_xx) / 4.0)

    @pytest.mark.parametrize("h", [0.2, 1.0, 3.0])
    def test_closed_form_matches_ed_pair_state(self, h):
        obs = ed_pair_observables(ChainSpec(8, h))
        direct = texture_in_basis(obs.rho_pair, computational_basis(4)).rugosity
        assert abs(obs.pair_rugosity - direct) < 1e-8

    def test_reduced_state_is_valid(self):
        obs = pair_observables(ChainSpec(16, 0.7))
        assert obs.rho_pair.subsystem_dims == (2, 2)
        assert abs(np.trace(obs.rho_pair.matrix) - 1.0) < 1e-12

    def test_pair_state_is_built_on_request_only(self):
        obs = pair_observables(ChainSpec(16, 0.7))
        assert "rho_pair" not in vars(obs)
        assert obs.rho_pair is obs.rho_pair

    @pytest.mark.parametrize("h", [-3.0, -1e10, -1e100])
    def test_correlators_even_and_magnetization_odd_in_h(self, h):
        # c_xx and c_yy fall like 1/|h|: at large negative h they must not
        # cancel to a rounding residue that +h does not show
        neg, pos = pair_observables(ChainSpec(64, h)), pair_observables(ChainSpec(64, -h))
        for name in ("c_xx", "c_yy", "c_zz"):
            assert abs(getattr(neg, name) - getattr(pos, name)) <= 1e-12 * abs(getattr(pos, name))
        assert abs(neg.m_z + pos.m_z) <= 1e-12 * abs(pos.m_z)


class TestHugeFields:
    """Fields too large to square are scaled by a power of two."""

    @pytest.mark.parametrize("h", [1e160, -1e160, 1.7976931348623157e308, -2.0 ** 1000])
    def test_every_finite_field_gives_finite_values(self, h):
        spec = ChainSpec(64, h)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rugosity = analytic_rugosity(spec)
            obs = pair_observables(spec)
            delta, sin2, lam = ising._dispersion(ising._momentum_table(64), h,
                                                 ising._field_scale(h))
            halves = [ising._half_sum(lam, x, sin2) for x in (delta, -delta)]
        # the fully polarized limit: a computational basis state, R = N ln 2
        assert abs(rugosity - 64 * math.log(2)) < 1e-9
        assert abs(obs.pair_rugosity - math.log(4)) < 1e-12
        assert abs(abs(obs.m_z) - 1.0) < 1e-12
        assert all(np.all(np.isfinite(x)) for x in (lam, *halves))

    @pytest.mark.parametrize("h", [1e308, -1e308, 1.7976931348623157e308,
                                   -1.7976931348623157e308])
    def test_energy_beyond_the_float_range_is_minus_inf(self, h):
        # both ground energies are about -N|h|/2, beyond the float range: each
        # is -inf, without a warning, while the rugosity stays finite
        spec = ChainSpec(8, h)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            energy = dispersion_ground_energy(spec)
            res = ed_ground(spec)
            rugosity = analytic_rugosity(spec)
        assert energy == res.energy == -math.inf
        assert res.gap > 0.0 and not res.degenerate
        assert abs(rugosity - 8 * math.log(2)) < 1e-9

    def test_gap_beyond_the_float_range_is_inf(self):
        spec = ChainSpec(8, 0.5, -1.7976931348623157e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = ed_ground(spec)
        assert res.energy == -math.inf and res.gap == math.inf
        assert math.isfinite(rugosity_pure(res.state))

    def test_scaling_is_exact(self, monkeypatch):
        # forcing the scaled path on fields the unscaled one handles gives
        # bitwise the same numbers
        fields = (1.5, -3.0, 50.0, 1e5, -1e40, 1e100, 1e150)

        def values():
            out = []
            for h in fields:
                spec = ChainSpec(256, h)
                obs = pair_observables(spec)
                s = ising._field_scale(h)
                delta, sin2, lam = ising._dispersion(ising._momentum_table(256), h, s)
                out.append((analytic_rugosity(spec), obs.m_z, obs.c_xx, obs.c_yy, obs.c_zz,
                            dispersion_ground_energy(spec), (lam * s).tolist(),
                            ising._half_sum(lam, delta, sin2).tolist(),
                            ising._half_sum(lam, -delta, sin2).tolist()))
            return out

        unscaled = values()
        monkeypatch.setattr(ising, "_UNSCALED_FIELD", 1.0)
        assert ising._field_scale(1e100) != 1.0
        assert values() == unscaled

    @pytest.mark.parametrize("h, g", [(1.7976931348623157e308, 0.0), (-1e308, 0.0),
                                      (1e300, 5e-324), (0.5, -1.7976931348623157e308)])
    def test_ed_every_finite_field_gives_finite_values(self, h, g):
        spec = ChainSpec(8, h, g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = ed_ground(spec)
            obs = ed_pair_observables(spec)
        # polarized along z (a basis state) or, for g << 0, along +x (uniform)
        want, pair = (0.0, math.log(2)) if g < 0.0 else (8 * math.log(2), math.log(4))
        assert abs(rugosity_pure(res.state) - want) < 1e-9
        assert abs(obs.pair_rugosity - pair) < 1e-12
        assert not res.degenerate

    def test_ed_scaling_matches_unscaled(self, monkeypatch):
        specs = [ChainSpec(8, 0.7, 0.3), ChainSpec(8, 1.5), ChainSpec(8, -3.0, -0.2)]
        unscaled = [ed_ground(spec) for spec in specs]
        monkeypatch.setattr(ising, "_UNSCALED_FIELD", 0.25)
        for spec, want in zip(specs, unscaled):
            got = ed_ground(spec)
            assert abs(got.energy - want.energy) <= 1e-12 * abs(want.energy)
            assert abs(got.gap - want.gap) <= 1e-10 * want.gap
            assert np.max(np.abs(got.state.amplitudes - want.state.amplitudes)) < 1e-12


def _mode_terms(n, h):
    """The per-mode arrays of the whole chain: ln of the pair amplitudes,
    sin^2 theta, cos phi and sin^2 phi / lam, all at |h|, then lam at h, the
    last two with the field scale undone.

    ln(1 - q) is log1p(-q) where the pair amplitude is 1 - q, so that every
    term is relatively accurate."""
    table = ising._momentum_table(n)
    s = ising._field_scale(h)
    lam, a, y2 = ising._pair_terms(table, abs(h), s)
    q = y2 / (2.0 * lam * (lam + np.abs(a)))
    log_amp = np.log1p(-q)
    cancels = a < 0.0
    log_amp[cancels] = np.log(q[cancels])
    delta, sin2, lam = ising._dispersion(table, abs(h), s)
    return (log_amp, ising._half_sum(lam, delta, sin2), table[0], table[1] ** 2 / lam / s,
            ising._dispersion(table, h, s)[2] * s)


def _kernels_from_modes(n, h, total, inner, chord=False):
    """Rugosity, m_z, c_xx, c_yy, c_zz and ground energy from the per-mode
    arrays of the whole chain, summed by ``total`` and ``inner``.

    The rugosity is ln 2 less the sum of the log amplitudes; with ``chord``
    it is summed as the kernel sums it, which at |h| > 1 subtracts
    ln(4 sin^2(phi_p / 2)) from every term and drops ln 2, their sum."""
    log_amp, sin2_t, cos_phi, pairing, lam = _mode_terms(n, h)
    base = math.log(2.0)
    if chord and abs(h) > 1.0:
        log_amp -= ising._chord_terms(n)
        base = 0.0
    diagonal, hopping = float(total(sin2_t)), float(inner(sin2_t, cos_phi))
    pairing = 0.5 * float(total(pairing))
    m_z = 1.0 - 4.0 * diagonal / n
    g_plus, g_minus = 4.0 * (hopping + pairing) / n, 4.0 * (hopping - pairing) / n
    return (float(base - total(log_amp)), -m_z if h < 0.0 else m_z, g_plus, g_minus,
            m_z * m_z - g_plus * g_minus, -float(total(lam)))


def _run_python(code, **env):
    """Standard output of a fresh interpreter that runs ``code`` on this
    package, with ``env`` added to the environment."""
    src = os.path.dirname(os.path.dirname(statetexture.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path, **env), check=True).stdout


def _sum_of_products(x, y):
    # the hopping sum's order: a product, then numpy's pairwise sum
    return np.sum(x * y)


def _kernel_values(n, h):
    spec = ChainSpec(n, h)
    obs = pair_observables(spec)
    return (analytic_rugosity(spec), obs.m_z, obs.c_xx, obs.c_yy, obs.c_zz,
            dispersion_ground_energy(spec))


class TestBlockedKernels:
    """The analytic kernels run on blocks of ``ising._MODE_BLOCK`` modes of a
    momentum table cached per grid."""

    @pytest.mark.parametrize("n", [2, 64, 2 * ising._MODE_BLOCK])
    def test_one_block_is_bitwise_one_slice(self, n):
        # the fields at which the chain keeps the full N/2-mode sum
        fields = {2: (0.0, 0.3, 1.0, -1.2, 50.0), 64: (0.3, 1.0, -1.2),
                  2 * ising._MODE_BLOCK: (1.0, 0.996, -1.004)}[n]
        for h in fields:
            assert ising._grid_modes(n, h) == n // 2
            assert _kernel_values(n, h) == _kernels_from_modes(n, h, np.sum, _sum_of_products,
                                                               chord=True)

    def test_independent_of_blas_threads(self):
        # every sum is numpy's own, none a BLAS kernel that splits its work
        # among threads; at h = 1 every sum is the full one, over 2 and 31 blocks
        code = ("import numpy as np, statetexture as st\n"
                "for n in (65536, 999166):\n"
                "    o = st.pair_observables(st.ChainSpec(n, 1.0))\n"
                "    print(repr((o.m_z, o.c_xx, o.c_yy, o.c_zz)))\n"
                "grid = np.linspace(0.9, 1.1, 41)\n"
                "out = st.scan(st.ChainSpec(65536, 0.0), 'h', grid, observable='pair',\n"
                "              method='analytic')\n"
                "print(repr(out.rugosity.tolist()))\n")
        one, two = (_run_python(code, OPENBLAS_NUM_THREADS=k, OMP_NUM_THREADS=k)
                    for k in ("1", "2"))
        assert one == two

    @pytest.mark.parametrize("h", [0.3, 1.0, 1.5, -1.2, 50.0])
    def test_many_blocks_match_fsum(self, h):
        n = 10 ** 6
        want = _kernels_from_modes(n, h, math.fsum, lambda x, y: math.fsum(x * y))
        for got, ref in zip(_kernel_values(n, h), want):
            assert abs(got - ref) <= 2e-15 * max(1.0, abs(ref))

    def test_multi_block_scan_equals_point_values(self):
        n = 65540
        grid = np.linspace(0.6, 1.4, 5)
        full = scan(ChainSpec(n, 0.0), "h", grid, method="analytic")
        pair = scan(ChainSpec(n, 0.0), "h", grid, observable="pair", method="analytic")
        for k, h in enumerate(grid):
            assert full.rugosity[k] == analytic_rugosity(ChainSpec(n, h))
            assert pair.rugosity[k] == pair_observables(ChainSpec(n, h)).pair_rugosity

    def test_table_is_cached_and_read_only(self):
        table = ising._momentum_table(64)
        assert ising._momentum_table(64) is table
        for column in table:
            with pytest.raises(ValueError):
                column[0] = 0.0

    def test_scan_and_points_build_one_table(self):
        # one table per grid, the chain's own (h = 1) and the reduced ones
        # alike, built once for the scan and every later point and kernel
        _empty_store()
        n = 4096
        grid = np.linspace(0.5, 1.5, 5)
        sites = {2 * ising._grid_modes(n, h) for h in (*grid, 0.7)}
        assert sites == {256, 512, 1024, n}
        rounds = []
        for _ in range(2):
            scan(ChainSpec(n, 0.0), "h", grid, method="analytic")
            for h in (1.0, 0.7):
                spec = ChainSpec(n, h)
                analytic_rugosity(spec)
                pair_observables(spec)
                dispersion_ground_energy(spec)
            rounds.append(_held(ising._momentum_table))
        assert set(rounds[0]) == sites
        assert _same_tables(*rounds)

    @pytest.mark.parametrize("kernel", [analytic_rugosity, pair_observables,
                                        dispersion_ground_energy])
    def test_peak_memory_is_a_few_blocks(self, kernel):
        spec = ChainSpec(10 ** 6, 1.0)  # the full sum, over 31 blocks
        kernel(spec)  # the table is built here, outside the measurement
        tracemalloc.start()
        try:
            kernel(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_length_sweep_keeps_one_lengths_tables(self):
        # the store keeps 12 MiB of the most recently used tables, so a
        # finite-size sweep holds one full table (8 MB) and one chord column
        # (4 MB), not one of each per length; and it drops the previous
        # length's tables before it builds the next (the peak was 19.1 MiB
        # when it dropped them after)
        full_table = 8 * ising.MAX_ANALYTIC_SITES
        tracemalloc.start()
        try:
            for n in range(ising.MAX_ANALYTIC_SITES - 60, ising.MAX_ANALYTIC_SITES + 1, 4):
                for h in (1.0, -1.0001):
                    assert ising._grid_modes(n, h) == n // 2
                    analytic_rugosity(ChainSpec(n, h))
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current <= 2 * full_table + 2 ** 20
        assert peak <= ising._TABLE_BUDGET + 2 ** 20

    def test_cache_is_shared_by_threads(self, monkeypatch):
        # two builders share a store that holds about a third of the tables
        # asked for, so that threads evict each other's, from more threads
        # than cores with a short switch interval: every call gets a table of
        # its size, tables are evicted and built again, and the store keeps
        # its budget and its count of the bytes it holds.  The builders are
        # shaped like the momentum table (8M bytes) and the chord column (4M)
        budget = 4096
        monkeypatch.setattr(ising, "_TABLE_BUDGET", budget)
        builds = []  # appended to under the store's lock

        @ising._stored(bytes_per_size=8)
        def pair(m):
            builds.append(m)
            return np.zeros(m // 2), np.zeros(m // 2)

        @ising._stored(bytes_per_size=4)
        def column(m):
            builds.append(m)
            return np.zeros(m // 2)

        builders = (pair, column)
        requests = [(build, m) for build in builders for m in range(16, 64, 2)]
        errors, calls = [], 4 * 3000

        def work(seed):
            try:
                for k in np.random.default_rng(seed).integers(0, len(requests), calls // 4):
                    build, m = requests[k]
                    if np.shape(build(m))[-1] != m // 2:
                        errors.append(m)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(builds) > len(requests)
        held = [nbytes for (build, _), (_, nbytes) in ising._TABLES.items()
                if build in (pair.__wrapped__, column.__wrapped__)]
        assert sum(held) <= ising._tables_nbytes <= budget
        assert ising._tables_nbytes == sum(nbytes for _, nbytes in ising._TABLES.values())

    def test_benchmark_rounds_build_no_table_twice(self):
        # two rounds of the ising-analytic benchmark operations at seed 11 in
        # one process: 401-point scans at n = 16 290, and points at
        # n = 999 744 on a grid of 65 536 modes beside the 8 MB full table of
        # h = 1; the tables of a round fit the store, so the second builds none
        grid = np.round(np.arange(0.0, 2.0 + 1e-9, 0.005), 10)
        n_scan, n_point, h = 16290, 999744, 0.998845
        assert ising._grid_modes(n_point, h) == 65536
        builders = (ising._momentum_table, ising._chord_terms)

        def benchmark_round():
            for observable in ("full", "pair"):
                scan(ChainSpec(n_scan, 0.0), "h", grid, observable=observable,
                     method="analytic", kink_window=(0.8, 1.2))
            for field in (h, -h):
                analytic_rugosity(ChainSpec(n_point, field))
            for field in (h, -h, 1.0):
                pair_observables(ChainSpec(n_point, field))

        benchmark_round()
        tables = [_held(build) for build in builders]
        benchmark_round()
        assert all(_same_tables(held, _held(build)) for held, build in zip(tables, builders))

    @pytest.mark.parametrize("observable", ["full", "pair"])
    def test_scan_peak_memory_is_a_few_blocks(self, observable):
        # grids below one block in row blocks of _ROW_BLOCK terms, the full
        # sums at h = 1 in blocks, over 31 of them
        spec, grid = ChainSpec(10 ** 6, 0.0), np.linspace(0.0, 2.0, 401)
        scan(spec, "h", grid, observable=observable, method="analytic")  # builds the tables
        tracemalloc.start()
        try:
            scan(spec, "h", grid, observable=observable, method="analytic")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20


class TestSummationOrder:
    """A scan sums each row of a C-ordered (P, K) block with ``np.sum(axis=-1)``;
    its values are bitwise the points' only if that sums every row in the
    order of ``np.sum`` over a 1-D array of its K terms."""

    @pytest.mark.parametrize("k", [8, 16, 64, 256, 1000, 4096, 8192, 8229, 16384])
    def test_row_sums_are_one_dimensional_sums(self, k):
        rng = np.random.default_rng(k)
        rows = max(2, ising._ROW_BLOCK // k)
        # magnitudes over 16 decades, so that any other order rounds apart
        block = rng.standard_normal((rows, k)) * 10.0 ** rng.uniform(-8.0, 8.0, (rows, k))
        assert block.flags.c_contiguous
        want = [float(np.sum(np.array(row))) for row in block]
        assert np.sum(block, axis=1).tolist() == want
        assert np.sum(block, axis=-1).tolist() == want


def _fsum(x):
    return math.fsum(x.tolist())


def _fsum_dot(x, y):
    return math.fsum((x * y).tolist())


@functools.lru_cache(maxsize=1)
def _mp_modes(n):
    """cos phi_p and sin^2 phi_p of the N/2 momenta, at 40 digits."""
    import mpmath
    with mpmath.workdps(40):
        phis = [(2 * p - 1) * mpmath.pi / n for p in range(1, n // 2 + 1)]
        return [(mpmath.cos(phi), mpmath.sin(phi) ** 2) for phi in phis]


# near +-1 (either route), near 0, negative, and up to 1e300
_GRID_FIELDS = strat.one_of(strat.floats(0.98, 1.02), strat.floats(-1.02, -0.98),
                            strat.floats(-1e-3, 1e-3), strat.floats(-1e3, -1e-3),
                            strat.floats(1e-3, 1e300))


class TestReducedGrid:
    """Away from h = +-1 the kernels sum a reduced grid of M sites, scaled by N/M."""

    def test_grid_rule(self):
        n = 10 ** 6
        assert ising._grid_modes(n, 0.0) == 8
        assert ising._grid_modes(n, 1e300) == 8
        # 60 / |ln 0.7| = 168.2, the same for -0.7 and +-1/0.7
        for h in (0.7, -0.7, 1 / 0.7, -1 / 0.7):
            assert ising._grid_modes(n, h) == 256
        for h in (1.0, -1.0, 1.0 + 2 ** -52, 1.0001):
            assert ising._grid_modes(n, h) == n // 2
        # every chain of up to 16 sites keeps the full sum
        assert all(ising._grid_modes(m, 0.0) == m // 2 for m in range(2, 18, 2))

    def test_grid_rule_matches_the_doubling_loop(self):
        # the closed form against the rule it replaced, a doubling loop of
        # float products, on 1e5 fields: 0, +-1, subnormals, +-2^+-1000, the
        # extremes, fields a few ulps either side of |ln|h|| = 60/K for every
        # K, and log-uniform ones, each with chain lengths from 2 to 1e6
        def looped(n, h):
            gap = abs(math.log(abs(h))) if h else math.inf
            modes = 8
            while modes < n // 2 and modes * gap < 60.0:
                modes *= 2
            return min(modes, n // 2)

        tiny, huge = 5e-324, 1.7976931348623157e308
        fields = [0.0, 1.0, tiny, 2.2250738585072014e-308, 2.0 ** -1000, 2.0 ** 1000, huge,
                  math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 1e300]
        for j in range(3, 21):
            for h in (math.exp(60.0 / 2 ** j), math.exp(-60.0 / 2 ** j)):
                for _ in range(5):
                    h = math.nextafter(h, 0.0)
                for _ in range(10):
                    h = math.nextafter(h, 2.0)
                    fields.append(h)
        rng = np.random.default_rng(3)
        fields += list(10.0 ** rng.uniform(-320, 308, 10 ** 5 // 2 - len(fields)))
        fields += [-h for h in fields]
        assert len(fields) >= 10 ** 5
        lengths = [2, 4, 6, 8, 14, 16, 18, 30, 254, 256, 258, 10 ** 6, *range(2, 10 ** 6, 4462)]
        for k, h in enumerate(fields):
            n = lengths[k % len(lengths)]
            assert ising._grid_modes(n, h) == looped(n, h), (n, h)
        for n in lengths:
            for h in fields[:10]:
                assert ising._grid_modes(n, h) == looped(n, h), (n, h)

    @pytest.mark.parametrize("n", [2, 6, 100, 16458, 2 ** 19])
    def test_chord_sum(self, n):
        # sum_p ln(4 sin^2(phi_p / 2)) = ln 2 over the N/2 modes, which the
        # reduced rugosity adds back at |h| > 1; to the rounding of its terms
        half = np.arange(1, n, 2) * np.pi / (2 * n)
        terms = 2.0 * np.log(2.0 * np.sin(half))
        if n == 2 ** 19:
            assert np.array_equal(ising._chord_terms(n), terms)
        tol = 4 * np.finfo(float).eps * _fsum(np.abs(terms))
        assert abs(_fsum(terms) - math.log(2.0)) <= tol

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(k=strat.integers(1, 5 * 10 ** 5), h=_GRID_FIELDS)
    def test_matches_fsum_over_every_mode(self, k, h):
        n = 2 * k
        want = _kernels_from_modes(n, h, _fsum, _fsum_dot)
        for got, ref in zip(_kernel_values(n, h), want):
            assert abs(got - ref) <= 2e-15 * max(1.0, abs(ref))

    @pytest.mark.parametrize("h", [0.01, 0.1, 0.3, 0.6, 0.9, 1.03, 1.2, 1.5, 2.0, 3.0, 50.0,
                                   -3.0])
    def test_rugosity_matches_mpmath(self, h):
        mpmath = pytest.importorskip("mpmath")
        n = 4000
        with mpmath.workdps(40):
            product = mpmath.mpf(1)
            for cos_phi, sin2 in _mp_modes(n):
                lam = mpmath.sqrt((h - cos_phi) ** 2 + sin2)
                product *= (lam + 1 - h * cos_phi) / (2 * lam)
            want = float(mpmath.log(2) - mpmath.log(product))
        assert abs(analytic_rugosity(ChainSpec(n, h)) - want) <= 1e-15 * want

    def test_reduced_tables_are_cached_apart_and_read_only(self):
        # a reduced grid's table sits in the one cache under its own size,
        # and the chord column is built only when |h| > 1 asks for it
        _empty_store()
        analytic_rugosity(ChainSpec(10 ** 6, 0.7))
        tables = _held(ising._momentum_table)
        assert len(tables) == 1 and _held(ising._chord_terms) == {}
        analytic_rugosity(ChainSpec(10 ** 6, -1 / 0.7))
        assert _same_tables(tables, _held(ising._momentum_table))
        assert len(_held(ising._chord_terms)) == 1
        table = ising._momentum_table(512)
        assert table is tables[512]
        for column in (*table, ising._chord_terms(512)):
            with pytest.raises(ValueError):
                column[0] = 0.0


class TestEdGroundState:
    def test_two_site_ground_space(self):
        # h = g = 0: H = -sx sx (each bond counted once around the ring),
        # ground space spanned by the two symmetric Bell-like sx sx = +1 states
        with pytest.warns(RuntimeWarning, match="near-degenerate"):
            res = ed_ground(ChainSpec(2, 0.0))
        assert abs(res.energy - (-1.0)) < 1e-12
        assert res.degenerate
        amp = res.state.amplitudes
        sxsx = np.zeros((4, 4))
        sxsx[0, 3] = sxsx[3, 0] = sxsx[1, 2] = sxsx[2, 1] = 1.0
        assert abs(np.real(amp @ sxsx @ amp) - 1.0) < 1e-10

    def test_strong_field_polarized(self):
        state = ed_ground(ChainSpec(8, 50.0)).state
        fidelity = abs(state.amplitudes[0]) ** 2
        assert fidelity > 0.999

    @pytest.mark.parametrize("entry", ["ed_ground", "ed_rugosity", "ed_pair_observables", "scan"])
    def test_near_degeneracy_warning_names_the_callers_line(self, entry):
        # the warning named ising.py's own line unless ed_ground was called directly
        spec = ChainSpec(12, 0.2)  # gap 6.8e-10
        call = {"ed_ground": lambda: ed_ground(spec),
                "ed_rugosity": lambda: ed_rugosity(spec),
                "ed_pair_observables": lambda: ed_pair_observables(spec),
                "scan": lambda: scan(spec, "h", [0.2, 0.21, 0.22, 0.23, 0.24], method="ed")}[entry]
        with pytest.warns(RuntimeWarning, match="near-degenerate") as records:
            call()
        assert all(record.filename == __file__ for record in records)

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_energy_matches_dispersion_sum(self, n):
        # at n = 12, h = 0.2 the odd-parity partner lies 6.8e-10 above the ground state
        with (pytest.warns(RuntimeWarning, match="near-degenerate") if n == 12
              else contextlib.nullcontext()):
            for h in (0.2, 1.0, 3.0):
                res = ed_ground(ChainSpec(n, h))
                want = dispersion_ground_energy(ChainSpec(n, h))
                assert abs(res.energy - want) <= 1e-9 * abs(want)

    def test_matches_kron_oracle(self):
        for (h, g) in [(0.7, 0.0), (0.5, 0.3), (1.2, -0.4)]:
            ham = kron_ising_hamiltonian(6, h, g)
            evals, evecs = np.linalg.eigh(ham)
            res = ed_ground(ChainSpec(6, h, g))
            assert abs(res.energy - evals[0]) < 1e-10
            overlap = abs(np.vdot(evecs[:, 0], res.state.amplitudes))
            if res.gap > 1e-8:
                assert overlap > 1.0 - 1e-9

    def test_near_degenerate_flagged_and_even(self):
        with pytest.warns(RuntimeWarning):
            res = ed_ground(ChainSpec(12, 0.2))
        assert res.degenerate
        # parity projection makes the rugosity match the analytic even state
        assert abs(rugosity_pure(res.state) - analytic_rugosity(ChainSpec(12, 0.2))) < 1e-8

    def test_canonical_sign(self):
        state = ed_ground(ChainSpec(6, 0.9)).state
        amp = state.amplitudes
        assert amp[np.argmax(np.abs(amp))].real > 0

    def test_deterministic(self):
        # dense sector (n = 12) and Lanczos sectors (n = 16), with and without parity
        for spec in (ChainSpec(12, 0.9), ChainSpec(16, 0.5), ChainSpec(16, 0.5, g=0.3)):
            a, b = ed_ground(spec), ed_ground(spec)
            assert np.array_equal(a.state.amplitudes, b.state.amplitudes)
            assert (a.energy, a.gap) == (b.energy, b.gap)

    def test_lanczos_non_convergence_is_convergence_error(self, monkeypatch, capsys):
        from statetexture.cli import main
        monkeypatch.setattr(ising, "MAX_LANCZOS_STEPS", 8)
        with pytest.raises(ConvergenceError, match="did not converge to 2 eigenpairs in 8 steps"):
            ed_ground(ChainSpec(14, 0.5, 0.1))
        argv = ["ising", "point", "--n", "14", "--h", "0.5", "--g", "0.1", "--method", "ed"]
        assert main(argv) == 1
        assert "Lanczos" in capsys.readouterr().err


def _sparse_lowest(ham, even: np.ndarray, by_parity: bool):
    """The lowest eigenvalues, as a sorted array, their eigenvectors and the
    gap of a sparse chain Hamiltonian, by scipy's eigsh.  ``by_parity``
    solves the even and odd spin-flip blocks apart: the lowest level of
    each, the even ground vector, and the gap from it to the odd level."""
    from scipy.sparse.linalg import eigsh

    def lowest(block, k):
        start = np.random.default_rng(block.shape[0]).standard_normal(block.shape[0])
        w, v = eigsh(block, k=k, which="SA", v0=start)
        order = np.argsort(w)
        return w[order], v[:, order]

    if not by_parity:
        evals, evecs = lowest(ham, 2)
        return evals, evecs, evals[1] - evals[0]
    (e_even,), v_even = lowest(ham[even][:, even], 1)
    (e_odd,), _ = lowest(ham[~even][:, ~even], 1)
    evecs = np.zeros((even.size, 1))
    evecs[even] = v_even
    return np.array([min(e_even, e_odd)]), evecs, e_odd - e_even


class TestSymmetrySector:
    """The sector solve against full-space references."""

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_matches_kron_oracle_grid(self, n):
        # up to 8 sites the Kronecker Hamiltonian, affine in h and g, from its
        # terms built once, solved densely; at 10 sites the bit-flip sparse
        # one, solved by scipy's eigsh (at g = 0 on each parity block)
        if n <= 8:
            bonds, z_sum, x_sum = kron_ising_terms(n)
            base, dz, dx = -0.5 * bonds, -0.5 * z_sum, 0.5 * x_sum
        even = np.array([bin(s).count("1") % 2 == 0 for s in range(1 << n)])
        for h in (-0.7, 0.2, 0.5, 1.0, 1.5, 3.0):
            for g in (-0.5, 0.0, 0.05, 0.3, 0.8):
                if n <= 8:
                    ham = base + h * dz + g * dx
                    evals, evecs = scipy.linalg.eigh(ham, subset_by_index=[0, 1])
                    if g == 0.0:
                        # gap to the lowest odd-parity level
                        odd = np.linalg.eigvalsh(ham[np.ix_(~even, ~even)])[0]
                        gap = odd - np.linalg.eigvalsh(ham[np.ix_(even, even)])[0]
                    else:
                        gap = evals[1] - evals[0]
                else:
                    evals, evecs, gap = _sparse_lowest(sparse_ising_hamiltonian(n, h, g), even,
                                                       g == 0.0)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    res = ed_ground(ChainSpec(n, h, g))
                assert abs(res.energy - evals[0]) < 1e-10
                assert abs(res.gap - gap) < 1e-8
                assert res.degenerate == (gap < 1e-8)
                if gap > 1e-8:
                    assert abs(evecs[:, 0] @ res.state.amplitudes) > 1.0 - 1e-9

    @pytest.mark.parametrize("n", [14, 16, 18])
    def test_residual_in_full_space(self, n):
        for h, g in ((0.5, 0.05), (1.2, -0.4), (0.8, 0.0)):
            res = ed_ground(ChainSpec(n, h, g))
            psi = res.state.amplitudes.real
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
            assert residual(psi, res.energy, n, h, g) <= 1e-8

    @pytest.mark.parametrize("n", [14, 16])
    def test_quasi_degenerate_lanczos_sector_is_even(self, n):
        # h = 0.2: the odd partner lies far below the degeneracy threshold
        with pytest.warns(RuntimeWarning):
            res = ed_ground(ChainSpec(n, 0.2))
        assert res.degenerate
        assert abs(rugosity_pure(res.state) - analytic_rugosity(ChainSpec(n, 0.2))) < 1e-8

    @pytest.mark.parametrize("h", [0.2, 0.5, 1.0, 1.5])
    @pytest.mark.parametrize("g, sector, n", [
        *(pytest.param(g, sector, 14, id=f"{g}-{sector}")
          for g, sector in [(0.0, "even"), (0.0, "odd"), (1e-9, "all"), (-1e-9, "all"),
                            (0.3, "all"), (-0.3, "all")]),
        *(pytest.param(g, "all", 12, id=f"n12-{g}-all") for g in (1e-9, -1e-9, 0.3, -0.3))])
    def test_lanczos_matches_eigh(self, h, g, sector, n):
        # the two lowest levels of every Lanczos sector of n = 14, a CSR
        # matrix, and of the one of n = 12, the 224 orbits at g != 0, a dense
        # array, against a dense eigh of the same matrix; at |g| = 1e-9 the
        # odd partner of the g = 0 ground state lies just above it
        spec = ChainSpec(n, h, g)
        ham, table, parity = _sector_matrix(spec, sector)
        assert ham.shape[0] > ising.MAX_DENSE_SECTOR
        assert isinstance(ham, np.ndarray) == (n == 12)
        evals, evecs = np.linalg.eigh(ham if n == 12 else ham.toarray())
        got, vec = ising._lowest(spec, table, 2, 1.0, parity)
        scale = max(1.0, abs(evals[0]))
        assert np.max(np.abs(got - evals[:2])) <= 1e-12 * scale
        assert abs((got[1] - got[0]) - (evals[1] - evals[0])) <= 1e-12 * scale
        assert np.linalg.norm(ham @ vec - got[0] * vec) <= 1e-12 * max(1.0, abs(got[0]))
        if evals[1] - evals[0] > 1e-8:
            assert abs(vec @ evecs[:, 0]) > 1.0 - 1e-9

    @pytest.mark.parametrize("h, g", [(1e308, 0.0), (-1e308, 0.0),
                                      (0.5, -1.7976931348623157e308)])
    def test_lanczos_huge_fields(self, h, g):
        # the scaled matrix is all but diagonal, so the Krylov space turns
        # invariant within a few steps; the ground energy lies beyond the
        # float range, the gap, |h| or |g| to rounding, does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = ed_ground(ChainSpec(14, h, g))
        field = max(abs(h), abs(g))
        assert res.energy == -math.inf
        assert abs(res.gap - field) <= 1e-12 * field and not res.degenerate

    def test_lanczos_solves_leave_scipy_linalg_unloaded(self):
        # only scipy.sparse, for the CSR matrix, is loaded above 12 sites
        code = ("import sys, statetexture as st\n"
                "for n in (14, 16):\n"
                "    st.ed_ground(st.ChainSpec(n, 0.5, 0.3)); st.ed_ground(st.ChainSpec(n, 0.5))\n"
                "print('scipy.sparse' in sys.modules, sorted(m for m in sys.modules\n"
                "      if m.startswith(('scipy.sparse.linalg', 'scipy.linalg'))))\n")
        assert _run_python(code).strip() == "True []"

    def test_lanczos_serves_the_sectors_above_the_dense_size(self, monkeypatch):
        # of the sectors of up to 12 sites only the 224 orbits of n = 12 at
        # g != 0 exceed MAX_DENSE_SECTOR = 128 orbits; the g = 0 parity
        # sectors of n = 12, 122 and 102 orbits, stay with eigvalsh
        lanczos, sizes = ising._lanczos, []

        def counted(ham, *args):
            sizes.append(ham.shape[0])
            return lanczos(ham, *args)

        monkeypatch.setattr(ising, "_lanczos", counted)
        for n in range(2, 14, 2):
            for g in (0.0, 0.3, -0.6, 1e-9):
                sizes.clear()
                ed_ground(ChainSpec(n, 0.5, g))
                assert sizes == ([224] if n == 12 and g else []), (n, g)

    def test_n12_output_is_independent_of_blas_threads(self, tmp_path):
        # the 224 orbits of n = 12 at g != 0 are solved by _lanczos on their
        # dense array, whose products come out bitwise alike under one and two
        # BLAS threads; the README g-scan writes the same bytes, its g = 0
        # point's parity solves differing at most below the printed digits
        code = ("import hashlib, statetexture as st\n"
                "from statetexture.cli import main\n"
                "main(['ising', 'scan', '--n', '12', '--axis', 'g', '--from', '-1', '--to', '1',\n"
                "      '--step', '0.05', '--h', '0.5', '--method', 'ed', '--out', {out!r}])\n"
                "for h in (0.2, 0.5, 1.0, 1.5, 3.0):\n"
                "    for g in (-0.9, -0.3, -0.05, -1e-9, 1e-9, 0.05, 0.3, 0.9):\n"
                "        r = st.ed_ground(st.ChainSpec(12, h, g))\n"
                "        print(repr((r.energy, r.gap)),\n"
                "              hashlib.sha256(r.state.amplitudes.tobytes()).hexdigest())\n")
        outputs = []
        for k in ("1", "2"):
            csv = tmp_path / f"gscan{k}.csv"
            stdout = _run_python(code.format(out=str(csv)), OPENBLAS_NUM_THREADS=k,
                                 OMP_NUM_THREADS=k)
            points = [line for line in stdout.splitlines() if line.startswith("(")]
            outputs.append((csv.read_bytes(), points))
        rows = outputs[0][0].splitlines()
        assert rows[0].startswith(b"point,rugosity,") and rows[41].startswith(b"1,")
        assert len(outputs[0][1]) == 40
        assert outputs[0] == outputs[1]

    def test_import_and_small_solves_leave_scipy_unloaded(self):
        code = ("import sys, statetexture as st\n"
                "st.ed_ground(st.ChainSpec(12, 0.5, 0.3)); st.ed_ground(st.ChainSpec(12, 0.5))\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        assert _run_python(code).strip() == "[]"


def _sector_matrix(spec, sector):
    """The unscaled matrix of a sector, "even" or "odd" at g = 0 and "all"
    elsewhere, with the chain table and the parity it is formed from."""
    assert (sector == "all") == (spec.g != 0.0)
    table, parity = ising._chain_table(spec.n), {"even": 0, "odd": 1, "all": None}[sector]
    return ising._sector_hamiltonian(spec, table, 1.0, parity), table, parity


class TestDenseSolve:
    """The solves of the dense sector matrices, every one of n <= 12,
    against a full eigh of the same matrix.  Sectors of up to
    ``MAX_DENSE_SECTOR`` = 128 orbits take eigvalsh and one inverse-iteration
    solve; the largest are the even sector of n = 12 (122 orbits) and n = 10
    over all orbits (78).  The one larger dense sector, n = 12 at g != 0
    (224 orbits), is solved by _lanczos on its dense array."""

    @pytest.mark.parametrize("n, h, g, sector", [
        # inverse iteration: m = 1, 2, 2, 3, 6, 122, 78, 78, 78
        (2, 0.7, 0.0, "odd"), (2, 0.7, 0.0, "even"), (4, 0.7, 0.0, "odd"),
        (2, 0.3, 0.5, "all"), (4, 1.5, -0.4, "all"), (12, 0.2, 0.0, "even"),
        (10, 0.2, 1e-9, "all"), (10, 0.2, -1e-9, "all"), (10, 0.5, 0.3, "all"),
        # _lanczos on the dense array: m = 224
        (12, 0.2, 1e-9, "all"), (12, 0.2, -1e-9, "all"),
        (12, 0.2, 1e-300, "all"), (12, 0.2, -1e-300, "all")])
    def test_matches_eigh(self, n, h, g, sector):
        spec = ChainSpec(n, h, g)
        ham, table, parity = _sector_matrix(spec, sector)
        assert isinstance(ham, np.ndarray)
        assert (ham.shape[0] > ising.MAX_DENSE_SECTOR) == (n == 12 and g != 0.0)
        evals, evecs = np.linalg.eigh(ham)
        k = min(2, evals.size)
        got, vec = ising._lowest(spec, table, k, 1.0, parity)
        assert np.max(np.abs(got - evals[:k])) <= 1e-12
        assert abs((got[-1] - got[0]) - (evals[k - 1] - evals[0])) <= 1e-12
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-14
        assert np.linalg.norm(ham @ vec - got[0] * vec) <= 1e-12 * max(1.0, abs(got[0]))
        if k == 1 or evals[1] - evals[0] > 1e-8:
            assert abs(vec @ evecs[:, 0]) > 1.0 - 1e-9

    @pytest.mark.parametrize("g", [1e-9, -1e-9, 1e-300, -1e-300])
    def test_ed_ground_matches_eigh_near_degeneracy(self, g):
        # the odd partner of the g = 0 ground state lies 6.8e-10 above it,
        # split to 1.2e-8 at |g| = 1e-9 and left below the threshold at 1e-300;
        # the 224-orbit sector is solved by _lanczos on its dense array
        spec = ChainSpec(12, 0.2, g)
        ham, table, _ = _sector_matrix(spec, "all")
        evals, evecs = np.linalg.eigh(ham)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = ed_ground(spec)
        assert abs(res.energy - evals[0]) <= 1e-12
        assert abs(res.gap - (evals[1] - evals[0])) <= 1e-12
        assert res.degenerate == (abs(g) < 1e-100)
        psi = res.state.amplitudes.real
        assert residual(psi, res.energy, 12, 0.2, g) <= 1e-12 * max(1.0, abs(res.energy))
        if not res.degenerate:
            want = (evecs[:, 0] / np.sqrt(table.size))[table.orbit]
            assert abs(want @ psi) > 1.0 - 1e-9

    def test_residual_at_rounding_level_over_a_field_grid(self):
        # the start vector has the sign pattern of the ground vector, so its
        # overlap with it is at least 1/sqrt(m); a random start can be all
        # but orthogonal to it, and left residuals of 3e-12 on this grid
        for h in np.linspace(-3.0, 3.0, 13):
            for g in np.linspace(-1.0, 1.0, 9):
                spec = ChainSpec(10, float(h), float(g))
                ham, table, parity = _sector_matrix(spec, "all" if g else "even")
                evals, vec = ising._lowest(spec, table, 1, 1.0, parity)
                resid = np.linalg.norm(ham @ vec - evals[0] * vec)
                assert resid <= 1e-13 * max(1.0, abs(evals[0])), (h, g)

    @pytest.mark.parametrize("n", range(2, 16, 2))
    def test_parity_matrices_are_blocks_of_the_all_orbit_matrix(self, n):
        # bond flips keep the parity: each g = 0 parity matrix, formed from
        # the first 1 + n entries of its rows, is that parity's block of the
        # matrix over all orbits, whose site flips then contribute zeros
        spec = ChainSpec(n, 0.7)
        table = ising._chain_table(n)
        matrices = [ising._sector_hamiltonian(spec, table, 1.0, parity)
                    for parity in (None, 0, 1)]
        # stored dense up to n = 12 (_MAX_DENSE_MATRIX = 256 orbits), CSR at
        # n = 14; solved by eigvalsh up to MAX_DENSE_SECTOR = 128 orbits, so at
        # n = 12 the parity blocks (122 and 102 orbits) take eigvalsh and the
        # all-orbit matrix (224) _lanczos on its dense array, as do all at n = 14
        assert all(isinstance(ham, np.ndarray) == (n <= 12) for ham in matrices)
        full, even, odd = (ham if n <= 12 else ham.toarray() for ham in matrices)
        assert np.array_equal(even, full[np.ix_(table.even, table.even)])
        assert np.array_equal(odd, full[np.ix_(table.odd, table.odd)])
        assert not np.any(full[np.ix_(table.even, table.odd)])
        assert not np.any(full[np.ix_(table.odd, table.even)])

    def test_huge_field_shift_is_not_singular(self):
        # at h = 1e308 the scaled off-diagonals are subnormal and a diagonal
        # entry equals E_0, so a shift of exactly E_0 leaves a zero pivot
        spec = ChainSpec(4, 1e308)
        scale = ising._field_scale(spec.h)
        table = ising._chain_table(4)
        ham = ising._sector_hamiltonian(spec, table, scale, 0)
        evals = np.linalg.eigvalsh(ham)
        assert evals[0] == np.min(np.diag(ham))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vec = ising._lowest(spec, table, 1, scale, 0)[1]
        assert np.all(np.isfinite(vec)) and abs(abs(vec[0]) - 1.0) <= 1e-15


class TestEdCaches:
    """One table per chain length, built once."""

    def test_alternating_lengths_rebuild_nothing(self):
        _empty_store()
        for n in (8, 10, 12):
            ed_ground(ChainSpec(n, 0.5, 0.3))
        tables = _held(ising._chain_table)
        assert sorted(tables) == [8, 10, 12]
        ed_ground(ChainSpec(8, 0.5, 0.3))
        assert _same_tables(tables, _held(ising._chain_table))

    def test_structure_is_read_only(self):
        for n in (12, 14):
            for column in ising._chain_table(n):
                with pytest.raises(ValueError):
                    column[0] = 0

    def test_length_sweep_holds_the_stated_bound(self):
        # the store keeps the most recently used tables within its budget:
        # after the sweep, the 20-site table (9.8 MiB) alone, as the 18-site
        # one (2.5 MiB) does not fit beside it; under 11 MiB in all.  The
        # sectors of n >= 14 load scipy.sparse for their CSR matrix, whose
        # module objects (1.3 MB) are loaded here, outside the measurement
        import scipy.sparse  # noqa: F401
        _empty_store()
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                for n in range(2, ising.MAX_ED_SITES + 1, 2):
                    for g in (0.0, 0.3):
                        ed_ground(ChainSpec(n, 0.5, g))
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        [table] = _held(ising._chain_table).values()
        assert sum(column.nbytes for column in table) <= ising._TABLE_BUDGET
        assert current <= 11 * 2 ** 20


class TestEdRugosity:
    def test_negative_longitudinal_field_stays_flat(self):
        spec = ChainSpec(8, 0.5, g=-0.5)
        assert ed_rugosity(spec) / 8 < 0.02

    def test_positive_longitudinal_field_grows(self):
        base = ed_rugosity(ChainSpec(8, 0.5, g=0.0)) / 8
        plus = ed_rugosity(ChainSpec(8, 0.5, g=0.5)) / 8
        assert plus > base + 0.5
        grid = [0.2, 0.4, 0.6, 0.8, 1.0]
        vals = [ed_rugosity(ChainSpec(8, 0.5, g=g)) / 8 for g in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 14, 16])
    def test_matches_analytic_at_zero_g(self, n):
        for h in (0.5, 1.5):
            assert abs(ed_rugosity(ChainSpec(n, h))
                       - analytic_rugosity(ChainSpec(n, h))) < 1e-8


def _pair_state(state, site):
    """The state of chain sites (site, site + 1) by partial trace, in the
    order of their axes; subsystem axis k of the packed amplitudes is chain
    site n-1-k."""
    n = len(state.subsystem_dims)
    return partial_trace(state.projector(), keep=[n - 1 - site, n - 1 - (site + 1) % n]).matrix


class TestReducedPair:
    def test_matches_partial_trace(self):
        spec = ChainSpec(6, 0.8)
        # sites (0, 1), ordered |1, 0> as the pair state is
        rho = _pair_state(ed_ground(spec).state, 0)
        obs = ed_pair_observables(spec)
        want = (0.5 * np.trace(rho @ (np.kron(SZ, np.eye(2)) + np.kron(np.eye(2), SZ))),
                np.trace(rho @ np.kron(SX, SX)), np.trace(rho @ np.kron(SY, SY)),
                np.trace(rho @ np.kron(SZ, SZ)))
        got = (obs.m_z, obs.c_xx, obs.c_yy, obs.c_zz)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12

    def test_translation_invariance(self):
        # so sites (0, 1) stand for every pair; the pair (7, 0) comes out in
        # the order |7, 0>, which the reflection symmetry of the ring allows
        state = ed_ground(ChainSpec(8, 1.1)).state
        base = _pair_state(state, 0)
        for site in range(1, 8):
            assert np.max(np.abs(_pair_state(state, site) - base)) < 1e-10


class TestScan:
    def test_grid_validation(self):
        spec = ChainSpec(8, 0.0)
        with pytest.raises(UsageError):
            scan(spec, "h", [0.0, 0.1, 0.2], method="analytic")
        with pytest.raises(UsageError):
            scan(spec, "h", [0.3, 0.2, 0.1, 0.4, 0.5], method="analytic")
        with pytest.raises(UsageError):
            scan(spec, "x", [0.1, 0.2, 0.3, 0.4, 0.5], method="analytic")

    @pytest.mark.parametrize("option, message", [({"method": "dense"}, "method must be"),
                                                 ({"observable": "half"}, "observable must be")])
    def test_bad_option_rejected(self, option, message):
        with pytest.raises(UsageError, match=message):
            scan(ChainSpec(8, 0.0), "h", np.linspace(0.0, 1.0, 5), **option)

    def test_kink_window_without_finite_curvature_rejected(self, monkeypatch):
        # no chain gives such values, so a nan rugosity stands in for them
        monkeypatch.setattr(ising, "ed_rugosity", lambda spec: math.nan)
        with pytest.raises(UsageError, match="holds no finite curvature"):
            scan(ChainSpec(8, 0.5), "g", np.linspace(-0.2, 0.2, 5), method="ed",
                 kink_window=(-0.1, 0.1))

    def test_analytic_rejects_g_axis(self):
        with pytest.raises(UsageError):
            scan(ChainSpec(8, 0.5), "g", [-0.2, -0.1, 0.0, 0.1, 0.2], method="analytic")

    def test_derivative_shapes(self):
        grid = np.linspace(0.5, 1.5, 11)
        out = scan(ChainSpec(64, 0.0), "h", grid, method="analytic")
        assert out.first_derivative.size == 9
        assert out.second_derivative.size == 7
        assert out.kink_estimate is None

    def test_kink_location_h(self):
        grid = np.arange(0.0, 2.0 + 1e-12, 0.01)
        out = scan(ChainSpec(256, 0.0), "h", grid, method="analytic",
                   kink_window=(0.8, 1.2))
        assert 0.95 <= out.kink_estimate <= 1.05

    def test_kink_window_must_contain_points(self):
        grid = np.linspace(0.0, 2.0, 21)
        with pytest.raises(UsageError):
            scan(ChainSpec(64, 0.0), "h", grid, method="analytic", kink_window=(5.0, 6.0))

    @pytest.mark.parametrize("window", [(math.nan, 1.0), (0.2, math.inf), (0.8, 0.2),
                                        (5.0, 6.0)])
    @pytest.mark.parametrize("method", ["analytic", "ed"])
    def test_bad_kink_window_rejected_before_any_point(self, monkeypatch, window, method):
        calls = []
        for name in ("_free_fermion", "ed_ground"):
            kernel = getattr(ising, name)
            monkeypatch.setattr(ising, name,
                                lambda *args, kernel=kernel: calls.append(1) or kernel(*args))
        with pytest.raises(UsageError):
            scan(ChainSpec(8, 0.0), "h", np.linspace(0.0, 1.0, 11), method=method,
                 kink_window=window)
        assert calls == []

    def test_kink_stable_under_refinement(self):
        coarse = scan(ChainSpec(128, 0.0), "h", np.arange(0.0, 2.0 + 1e-12, 0.02),
                      method="analytic", kink_window=(0.8, 1.2))
        fine = scan(ChainSpec(128, 0.0), "h", np.arange(0.0, 2.0 + 1e-12, 0.01),
                    method="analytic", kink_window=(0.8, 1.2))
        assert abs(coarse.kink_estimate - fine.kink_estimate) <= 0.02 + 1e-12

    def test_ed_scan_over_g(self):
        grid = np.arange(-0.3, 0.3 + 1e-12, 0.1)
        out = scan(ChainSpec(6, 0.5), "g", grid, method="ed")
        assert out.rugosity.size == 7
        assert np.all(np.isfinite(out.rugosity))

    def test_pair_observable_scan(self):
        grid = np.linspace(0.5, 1.5, 11)
        out = scan(ChainSpec(128, 0.0), "h", grid, observable="pair", method="analytic")
        want = pair_observables(ChainSpec(128, 1.0)).pair_rugosity
        k = int(np.argmin(np.abs(grid - 1.0)))
        assert abs(out.rugosity[k] - want) < 1e-12

    def test_analytic_scan_equals_point_values(self):
        grid = np.linspace(-2.5, 2.5, 51)
        full = scan(ChainSpec(256, 0.0), "h", grid, method="analytic")
        pair = scan(ChainSpec(256, 0.0), "h", grid, observable="pair", method="analytic")
        for k, h in enumerate(grid):
            assert full.rugosity[k] == analytic_rugosity(ChainSpec(256, h))
            assert pair.rugosity[k] == pair_observables(ChainSpec(256, h)).pair_rugosity

    @pytest.mark.parametrize("n, grid", [
        # every grid, each crossed at h = -1 and h = 1, fields either side of both
        (16384, np.linspace(-3.0, 3.0, 401)),
        # full sums of 16 385 modes, above one block, beside row blocks of one row
        (2 * ising._MODE_BLOCK + 2, np.linspace(0.98, 1.02, 41)),
        # fields that are scaled by a power of two
        (4096, np.array([-1e300, -3.0, -1.0, 0.5, 0.999, 1.0, 1.5, 2.0 ** 300, 1e300])),
    ])
    def test_batched_scan_equals_point_values(self, n, grid):
        modes = [ising._grid_modes(n, h) for h in grid]
        assert len(set(modes)) > 1
        full = scan(ChainSpec(n, 0.0), "h", grid, method="analytic")
        pair = scan(ChainSpec(n, 0.0), "h", grid, observable="pair", method="analytic")
        for k, h in enumerate(grid):
            assert full.rugosity[k] == analytic_rugosity(ChainSpec(n, h))
            assert pair.rugosity[k] == pair_observables(ChainSpec(n, h)).pair_rugosity

    @pytest.mark.parametrize("grid", [
        2.0 ** 300 * np.linspace(1.0, 1.9, 9),
        np.concatenate((-2.0 ** 300 * np.linspace(1.9, 1.0, 6),
                        2.0 ** 300 * np.linspace(1.0, 1.9, 6))),
    ], ids=["one-sign", "both-signs"])
    def test_scaled_fields_of_one_binade_are_one_block(self, monkeypatch, grid):
        # fields above 2^256 of one binade share a grid and a scale, so a scan
        # evaluates them as the rows of one block, each bitwise its lone field
        shapes = []
        for name in ("_rugosity_sum", "_pair_correlators"):
            kernel = getattr(ising, name)
            monkeypatch.setattr(ising, name, lambda *args, kernel=kernel:
                                shapes.append(np.shape(args[-2])) or kernel(*args))
        full = scan(ChainSpec(64, 0.0), "h", grid, method="analytic")
        pair = scan(ChainSpec(64, 0.0), "h", grid, observable="pair", method="analytic")
        assert shapes == [(grid.size, 1)] * 2
        for k, h in enumerate(grid):
            assert full.rugosity[k] == analytic_rugosity(ChainSpec(64, h))
            assert pair.rugosity[k] == pair_observables(ChainSpec(64, h)).pair_rugosity
        assert shapes[2:] == [()] * (2 * grid.size)

    def test_ed_scan_equals_point_values_and_builds_one_orbit_table(self):
        _empty_store()
        grid = np.linspace(-0.3, 0.3, 7)
        full = scan(ChainSpec(8, 0.5), "g", grid, method="ed")
        tables = _held(ising._chain_table)
        assert list(tables) == [8]
        pair = scan(ChainSpec(8, 0.5), "g", grid, observable="pair", method="ed")
        for k, g in enumerate(grid):
            assert full.rugosity[k] == ed_rugosity(ChainSpec(8, 0.5, g))
            assert pair.rugosity[k] == ed_pair_observables(ChainSpec(8, 0.5, g)).pair_rugosity
        assert _same_tables(tables, _held(ising._chain_table))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_grid_rejected(self, bad):
        with pytest.raises(UsageError):
            scan(ChainSpec(8, 0.0), "h", [0.0, 0.5, bad, 1.5, 2.0], method="analytic")
