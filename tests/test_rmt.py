import concurrent.futures
import math
import os
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from oracles import (
    haar_angle_batch,
    szego_power_sums_allocating,
    szego_power_sums_phase,
    verblunsky_draw_allocating,
    weighted_verblunsky_allocating,
    weighted_verblunsky_rejection,
    weyl_average,
    weyl_oracle_tensor_grid,
    within,
    zprime_pow_rows,
)
from zetalab import rmt
from zetalab.errors import AdmissibilityError, DomainError, PoleError


class TestSampleHaar:
    def test_determinism(self):
        a = haar_angle_batch(6, 1, np.random.default_rng(123))
        b = haar_angle_batch(6, 1, np.random.default_rng(123))
        assert np.array_equal(a, b)

    def test_sorted_in_range(self):
        angles = haar_angle_batch(16, 1, np.random.default_rng(5))[0]
        assert np.all(np.diff(angles) > 0)
        assert np.all((angles >= 0) & (angles < 2 * math.pi))

    def test_n1_rotation_invariance(self):
        # single angle uniform: empirical mean of e^{i theta} over 1e5 samples
        rng = np.random.default_rng(11)
        ang = haar_angle_batch(1, 100_000, rng)[:, 0]
        assert abs(np.mean(np.exp(1j * ang))) < 0.02

    def test_trace_second_moment(self):
        # E|Tr A|^2 = 1 for Haar; fails without the QR phase correction
        rng = np.random.default_rng(17)
        n, b = 4, 40_000
        z = rng.standard_normal((b, n, n)) + 1j * rng.standard_normal((b, n, n))
        q, r = np.linalg.qr(z)
        d = np.einsum("bii->bi", r)
        corrected = q * (d / np.abs(d))[:, None, :]
        tr = np.einsum("bii->b", corrected)
        m2 = np.mean(np.abs(tr) ** 2)
        se = np.std(np.abs(tr) ** 2) / math.sqrt(b)
        assert abs(m2 - 1.0) < 4 * se
        # and the uncorrected QR is detectably NOT Haar
        tr_raw = np.einsum("bii->b", q)
        m2_raw = np.mean(np.abs(tr_raw) ** 2)
        assert abs(m2_raw - 1.0) > 10 * se

    def test_zero_dimension_rejected(self):
        with pytest.raises(DomainError):
            rmt.mc_moment(0, 1, 1000, seed=1)

    def test_n3_second_moment_of_z_at_zero(self):
        # Weyl quadrature oracle for E|Z(0,A)|^2 at n=3 gives exactly n+1 = 4
        def stat(*thetas):
            prod = np.ones(np.shape(thetas[-1]), dtype=complex)
            for th in thetas:
                prod = prod * (1.0 - np.exp(1j * th))
            return np.abs(prod) ** 2

        oracle = weyl_average(3, stat, grid=64)
        assert oracle.real == pytest.approx(4.0, abs=1e-9)

        rng = np.random.default_rng(23)
        ang = haar_angle_batch(3, 100_000, rng)
        vals = np.abs(np.prod(1.0 - np.exp(1j * ang), axis=1)) ** 2
        se = vals.std() / math.sqrt(len(vals))
        assert abs(vals.mean() - 4.0) < 3 * se


def _direct_zprime(angles, r):
    """Z'(theta_r) = i prod_{n != r} (1 - e^{i(theta_n - theta_r)}) by plain multiplication."""
    return 1j * np.prod(1.0 - np.exp(1j * (np.delete(angles, r) - angles[r])))


class TestBranchedLog:
    def test_n1_empty_product(self):
        for k in (1.0, 0.5 + 0.5j, -1.5):
            val = zprime_pow_rows(np.array([[1.0]]), np.array([0]), k, ())
            assert val[0] == pytest.approx(np.exp(1j * math.pi * k / 2))

    def test_exp_matches_direct_product(self):
        ang = haar_angle_batch(6, 1, np.random.default_rng(42))
        val = zprime_pow_rows(ang, np.array([5]), 1.0, ())
        assert val[0] == pytest.approx(_direct_zprime(ang[0], 5), rel=1e-10)

    def test_integer_power_consistency(self):
        ang = haar_angle_batch(6, 1, np.random.default_rng(7))
        direct = _direct_zprime(ang[0], 5)
        cols = np.array([5])
        assert zprime_pow_rows(ang, cols, 2.0, ())[0] == pytest.approx(direct * direct, rel=1e-9)
        assert zprime_pow_rows(ang, cols, -1.0, ())[0] == pytest.approx(1.0 / direct, rel=1e-9)

    def test_summand_branch_range(self):
        ang = haar_angle_batch(8, 20, np.random.default_rng(0))
        diffs = np.delete(ang, 3, axis=1) - ang[:, 3:4]
        im = np.log(1.0 - np.exp(1j * diffs)).imag
        assert np.all(im > -math.pi / 2) and np.all(im < math.pi / 2)

    def test_branch_consistency_bulk(self):
        # the statistic vs direct repeated multiplication for k in {-1, 1, 2, 3}
        ang = haar_angle_batch(6, 1000, np.random.default_rng(100))
        cols = np.random.default_rng(101).integers(0, 6, size=1000)
        zp = np.array([_direct_zprime(row, c) for row, c in zip(ang, cols)])
        for k in (-1, 1, 2, 3):
            direct = zp**k if k > 0 else 1.0 / zp ** (-k)
            stat = zprime_pow_rows(ang, cols, complex(k), ())
            assert np.max(np.abs(stat - direct) / np.abs(direct)) < 1e-9

    def test_coincident_angles_nan(self):
        ang = np.array([[1.0, 1.0 + 1e-16, 2.0]])
        assert np.isnan(zprime_pow_rows(ang, np.array([0]), 0.5, ()))[0]
        assert np.isnan(zprime_pow_rows(ang, np.array([1]), 2.0, [0.3, 0.1]))[0]
        # a coincidence away from the evaluation point leaves the statistic finite
        assert np.isfinite(zprime_pow_rows(ang, np.array([2]), 0.5, ()))[0]


class TestExactMoment:
    @pytest.mark.parametrize("n", [1, 2, 8, 100])
    def test_k0_is_one(self, n):
        assert rmt.exact_moment(n, 0) == pytest.approx(1.0)

    def test_n2_k1(self):
        assert rmt.exact_moment(2, 1) == pytest.approx(1.5j, abs=1e-12)

    def test_n8_k2(self):
        assert rmt.exact_moment(8, 2) == pytest.approx(-15.0, abs=1e-10)

    def test_k_minus_2_vanishes(self):
        assert rmt.exact_moment(9, -2) == 0

    def test_zero_dimension_rejected(self):
        with pytest.raises(DomainError):
            rmt.exact_moment(0, 1)

    def test_k_minus_2_at_n1_is_i_to_the_k(self):
        # at N = 1 the Gamma(k+2) factors cancel; the Monte-Carlo and Weyl
        # routes agree
        assert rmt.exact_moment(1, -2) == pytest.approx(-1.0, abs=1e-15)
        assert rmt.exact_moment(2, -2) == 0
        assert rmt.mc_moment(1, -2, 100, seed=0).mean == pytest.approx(rmt.exact_moment(1, -2), abs=1e-15)
        assert rmt.weyl_quadrature_oracle(1, -2, 64) == pytest.approx(rmt.exact_moment(1, -2), abs=1e-15)

    def test_pole(self):
        with pytest.raises(PoleError):
            rmt.exact_moment(5, -3)

    def test_no_overflow_large_n(self):
        val = rmt.exact_moment(10**6, 1.5 + 0.5j)
        assert np.isfinite(val.real) and np.isfinite(val.imag)

    @pytest.mark.parametrize("n", [8, 512, 10**4, 10**6])
    def test_against_mpmath(self, n):
        # one order from each class of the haar-mc workload (integer,
        # half-integer, complex, negative); a difference of two log-Gammas of
        # size N log N is off by 1.9e-13 at N = 512 and by 2.9e-9 at N = 1e6
        with mpmath.workdps(30):
            for k in (2, 1.5, 1 + 1j, -0.5 + 0.5j):
                kk = mpmath.mpc(k)
                ref = mpmath.exp(
                    1j * mpmath.pi * kk / 2
                    + mpmath.loggamma(n + kk + 1)
                    - mpmath.loggamma(n + 1)
                    - mpmath.loggamma(kk + 2)
                )
                assert abs(mpmath.mpc(rmt.exact_moment(n, k)) - ref) <= 1e-14 * abs(ref), k

    @pytest.mark.parametrize("n, k", [(1, -1.9999999), (2, -2.9999999), (2, -2.9999)])
    def test_near_the_poles_against_mpmath(self, n, k):
        # Gamma(k + 2) and Gamma(N + k + 1) near their poles: v + k is exact
        # where it nears 0, so the factor keeps its digits (recorded 2.1e-16,
        # 3.6e-15 and 7.8e-16; 1.2e-2, 5.5e-2 and 5.9e-8 before)
        with mpmath.workdps(40):
            kk = mpmath.mpf(k)
            ref = mpmath.exp(1j * mpmath.pi * kk / 2) * mpmath.gamma(n + kk + 1) / mpmath.factorial(n)
            ref /= mpmath.gamma(kk + 2)
            assert abs(mpmath.mpc(rmt.exact_moment(n, k)) - ref) <= 1e-14 * abs(ref)

    def test_n1_is_i_to_the_k(self):
        for k in (0.5, 3, 1 + 1j, -2.5 + 0.5j, -1.9999999):
            assert rmt.exact_moment(1, k) == complex(np.exp(1j * math.pi * k / 2.0))

    def test_asymptotic_ratio(self):
        # exact(n, k) / (e^{i pi k/2} n^k / Gamma(k+2)) -> 1; at k=1 it is (N+1)/N
        for n in (10, 100, 1000):
            ratio = rmt.exact_moment(n, 1) / (1j * n / 2.0)
            assert ratio == pytest.approx(1.0 + 1.0 / n, abs=1e-12)

    @given(
        st.integers(min_value=1, max_value=50),
        st.complex_numbers(min_magnitude=0, max_magnitude=2.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_recurrence_in_n(self, n, k):
        # Gamma(N+k+1) ladder: moment(n+1)/moment(n) = (N+k+1)/(N+1)
        if k.real <= -2.5:
            return
        m_n = rmt.exact_moment(n, k)
        m_n1 = rmt.exact_moment(n + 1, k)
        expected = (n + k + 1.0) / (n + 1.0)
        if abs(m_n) > 1e-280:
            assert m_n1 / m_n == pytest.approx(expected, rel=1e-9)


class TestConjectureRhs:
    def test_k0(self):
        assert rmt.conjecture_rhs(5000.0, 0) == pytest.approx(1.0)

    def test_k1_value(self):
        assert rmt.conjecture_rhs(5000.0, 1) == pytest.approx(0.5 * math.log(5000 / (2 * math.pi)), rel=1e-10)
        assert rmt.conjecture_rhs(5000.0, 1) == pytest.approx(3.3397, abs=5e-4)

    def test_k_minus_2_vanishes_for_all_t(self):
        for t in (10.0, 100.0, 5000.0):
            assert rmt.conjecture_rhs(t, -2) == 0

    def test_domain(self):
        with pytest.raises(DomainError):
            rmt.conjecture_rhs(6.0, 1)
        with pytest.raises(AdmissibilityError):
            rmt.conjecture_rhs(100.0, -3.5)


class TestWeylOracle:
    def test_n1_constant(self):
        for k in (1.0, 0.5, 1 + 1j):
            assert rmt.weyl_quadrature_oracle(1, k, 64) == pytest.approx(
                np.exp(1j * math.pi * k / 2), abs=1e-12
            )

    def test_n2_k1_is_exact(self):
        assert rmt.weyl_quadrature_oracle(2, 1, 4096) == pytest.approx(1.5j, abs=1e-8)

    def test_n2_complex_k(self):
        val = rmt.weyl_quadrature_oracle(2, 1 + 1j, 2048)
        assert val == pytest.approx(rmt.exact_moment(2, 1 + 1j), abs=1e-6)

    def test_n3_matches_exact(self):
        val = rmt.weyl_quadrature_oracle(3, 2, 96)
        assert val == pytest.approx(rmt.exact_moment(3, 2), abs=1e-6)

    def test_beyond_three(self):
        # relative errors recorded at k = 1/2: 1.7e-10 (n = 4), 1.9e-9 (n = 8)
        # at grid 1024 and 2.0e-8 (n = 64) at grid 4096
        for n, grid, band in ((4, 1024, 5e-10), (8, 1024, 5e-9), (64, 4096, 5e-8)):
            exact = rmt.exact_moment(n, 0.5)
            assert abs(rmt.weyl_quadrature_oracle(n, 0.5, grid) - exact) <= band * abs(exact), n

    def test_rate_in_the_grid(self):
        # grid^-(3 + Re k): at k = 1/2 four times the grid is 4^3.5 = 128 times
        # closer (recorded 127.9 at n = 8, grid 1024 -> 4096)
        exact = rmt.exact_moment(8, 0.5)
        coarse, fine = (abs(rmt.weyl_quadrature_oracle(8, 0.5, g) - exact) for g in (1024, 4096))
        assert 110 < coarse / fine < 150

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_determinant_is_the_tensor_grid_sum(self, n):
        # Heine's identity holds exactly on the lattice; where grid < n the
        # lattice has fewer nonzero nodes than angles and the sum is exactly 0
        for k in (0, 1, 2, 3, 0.5, -0.5, -2, 1 + 1j, 2j, -1.5 + 0.5j):
            for grid in (1, 2, 3, 16, 24, 64, 96, 512, 1024):
                det = rmt.weyl_quadrature_oracle(n, k, grid)
                ref = weyl_oracle_tensor_grid(n, complex(k), grid)
                if ref == 0:
                    assert abs(det) <= 1e-15, (k, grid)
                else:
                    assert abs(det - ref) <= 1e-13 * abs(ref), (k, grid)

    def test_zero_dimension_rejected(self):
        with pytest.raises(DomainError):
            rmt.weyl_quadrature_oracle(0, 1, 16)

    @pytest.mark.parametrize("grid", [0, -3])
    def test_empty_grid_is_rejected(self, grid):
        for n in (1, 2):
            with pytest.raises(DomainError):
                rmt.weyl_quadrature_oracle(n, 1, grid)
        with pytest.raises(DomainError):
            weyl_average(2, lambda *a: np.ones(np.shape(a[-1])), grid)

    def test_reduction_is_an_identity_on_the_lattice(self):
        # the (N-1)-angle sum with theta_1 fixed equals the full N-angle Weyl
        # sum of (1/N) sum_r Z'(theta_r)^k, coincidences mapped to 0
        def symmetric(k):
            def stat(*thetas):
                thetas = np.broadcast_arrays(*thetas)
                acc = 0j
                for r, th_r in enumerate(thetas):
                    log_sum, coincident = 0j, False
                    for m, th_m in enumerate(thetas):
                        if m != r:
                            fac = 1.0 - np.exp(1j * (th_m - th_r))
                            coincident = coincident | (fac == 0)
                            log_sum = log_sum + np.log(np.where(fac == 0, 1.0, fac))
                    acc = acc + np.where(coincident, 0j, np.exp(k * (1j * math.pi / 2 + log_sum)))
                return acc / len(thetas)

            return stat

        for k in (0.5, 1 + 1j, -1.5 + 0.5j):
            reduced = rmt.weyl_quadrature_oracle(3, k, 24)
            full = weyl_average(3, symmetric(k), 24)
            assert abs(reduced - full) <= 1e-13 * abs(full)

    def test_density_mass(self):
        for n in (1, 2, 3):
            mass = weyl_average(n, lambda *a: np.ones(np.shape(a[-1])), 48)
            assert mass == pytest.approx(1.0, abs=1e-10)


class TestMcMoment:
    def test_k0_exact(self):
        est = rmt.mc_moment(5, 0, 1000, seed=1)
        assert est.mean == 1.0 and est.se_re == 0.0 and est.se_im == 0.0

    def test_k0_exact_on_two_workers(self):
        # every draw is e^0 = 1, so the merged streams give mean 1 and no spread
        est = rmt.mc_moment(5, 0, 1000, seed=1, workers=2)
        assert est.mean == 1.0 and est.se_re == 0.0 and est.se_im == 0.0 and est.samples == 1000

    def test_n2_k1(self):
        est = rmt.mc_moment(2, 1, 100_000, seed=2)
        assert within(est, 1.5j), (est.mean, est.se_re, est.se_im)

    def test_seed_reproducible(self):
        a = rmt.mc_moment(4, 2, 5000, seed=33)
        b = rmt.mc_moment(4, 2, 5000, seed=33)
        assert a.mean == b.mean and a.se_re == b.se_re

    def test_workers_reproducible(self):
        a = rmt.mc_moment(4, 1, 4000, seed=9, workers=2)
        b = rmt.mc_moment(4, 1, 4000, seed=9, workers=2)
        assert a.mean == b.mean

    def test_admissibility(self):
        with pytest.raises(AdmissibilityError):
            rmt.mc_moment(4, -3.2, 1000, seed=0)
        with pytest.raises(DomainError):
            rmt.mc_moment(4, 1, 50, seed=0)
        # no dimension cap: the factor sampler costs O(N) per sample
        assert rmt.mc_moment(1000, 1, 1000, seed=0).samples == 1000

    def test_non_finite_k_refused(self):
        for k in (math.nan, math.inf, complex(1.0, -math.inf), complex(math.nan, 1.0)):
            with pytest.raises(AdmissibilityError, match="must be finite"):
                rmt.require_admissible(k)

    def test_index_invariance(self):
        # single random-angle evaluation vs the full average over all N:
        # same mean by rotation invariance (label exchangeability)
        a = rmt.mc_moment(6, 1, 60_000, seed=4)
        ang = haar_angle_batch(6, 60_000, np.random.default_rng(14))
        full = np.mean(
            [zprime_pow_rows(ang, np.full(len(ang), col), 1.0, ()) for col in range(6)], axis=0
        )
        b_se_re = full.real.std(ddof=1) / math.sqrt(len(full))
        b_se_im = full.imag.std(ddof=1) / math.sqrt(len(full))
        assert abs(a.mean.real - full.mean().real) < 3 * math.hypot(a.se_re, b_se_re)
        assert abs(a.mean.imag - full.mean().imag) < 3 * math.hypot(a.se_im, b_se_im)

    def test_rejected_factor_redrawn(self):
        # the rejection oracle: a first round proposing B = 0 for j >= 1 and
        # gamma_0 = 1 (omega = 0), with the most favourable acceptance draw:
        # the gamma = 0 proposals are kept, every gamma_0 = 1 is rejected, and
        # only those are drawn again
        class FirstRoundZeros:
            def __init__(self, rng):
                self.rng, self.calls = rng, 0

            def random(self, shape):
                self.calls += 1
                return np.zeros(shape) if self.calls == 1 else self.rng.random(shape)

        j = np.broadcast_to(np.arange(4), (10, 4))
        gam = weighted_verblunsky_rejection(j, FirstRoundZeros(np.random.default_rng(31)))
        assert np.all(gam[:, 1:] == 0)
        redrawn = weighted_verblunsky_rejection(np.zeros(10, dtype=int), np.random.default_rng(31))
        assert np.array_equal(gam[:, 0], redrawn)
        assert np.all(gam[:, 0] != 1) and np.allclose(np.abs(gam[:, 0]), 1.0)

    def test_mc_estimate_reproduced_by_hand(self):
        # the bare route is _mc_estimate's mean over the factor sampler's
        # draws from the one child stream
        n, k, samples, seed = 8, 0.5 + 0.5j, 1000, 3
        est = rmt.mc_moment(n, k, samples, seed)
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        vals = rmt._verblunsky_draw(n, k, samples, rng)
        assert len(vals) == samples and est.samples == samples
        assert est.mean == pytest.approx(vals.mean(), rel=1e-12)

    _PINNED = {
        1: (0.024663857390705597 + 1.0690140138294177j, 0.016270676562749647, 0.015875266836501055),
        2: (0.004830441592610045 + 1.072028712359287j, 0.01641806156605075, 0.015159082572534914),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pinned_values(self, workers):
        # values of the rejection sampler before the hybrid route shared it,
        # reproduced by that sampler (now the tests' oracle) through the
        # package's driver, on the factor-major batch (each within 2.6 se of
        # the exact moment): the seeding, batching and merge must not move.
        # The bits agree on the machine they were taken on; the 1e-12 allows
        # another libm's rounding, far below a change of stream (~ se)
        mean, se_re, se_im = self._PINNED[workers]
        draw = partial(rmt._verblunsky_draw, factors=weighted_verblunsky_rejection)
        est = rmt._mc_estimate(8, 0.5 + 0.5j, 2000, 6, workers, draw)
        assert est.mean == pytest.approx(mean, rel=1e-12, abs=0)
        assert est.se_re == pytest.approx(se_re, rel=1e-12, abs=0)
        assert est.se_im == pytest.approx(se_im, rel=1e-12, abs=0)

    _PINNED_EXACT = {
        1: (0.04893977364750438 + 1.075612523772881j, 0.01603208774285368, 0.01609061342948812),
        2: (0.004847694938137041 + 1.0938522788810734j, 0.016162453890448472, 0.01556549153677435),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pinned_values_exact_draw(self, workers):
        # the same run on the exact factor draw: the stream mc_moment gives
        mean, se_re, se_im = self._PINNED_EXACT[workers]
        est = rmt.mc_moment(8, 0.5 + 0.5j, 2000, seed=6, workers=workers)
        assert est.mean == pytest.approx(mean, rel=1e-12, abs=0)
        assert est.se_re == pytest.approx(se_re, rel=1e-12, abs=0)
        assert est.se_im == pytest.approx(se_im, rel=1e-12, abs=0)

    def test_pool_has_at_most_one_process_per_cpu(self, monkeypatch):
        # two child streams on one CPU: one process runs both, and the result
        # is still that of two workers
        sizes = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        est = rmt.mc_moment(8, 0.5 + 0.5j, 2000, seed=6, workers=2)
        assert sizes == [1]
        mean, se_re, se_im = self._PINNED_EXACT[2]
        assert est.mean == pytest.approx(mean, rel=1e-12, abs=0)
        assert est.se_re == pytest.approx(se_re, rel=1e-12, abs=0)
        assert est.se_im == pytest.approx(se_im, rel=1e-12, abs=0)

    def test_k_minus_2_near_zero(self):
        est = rmt.mc_moment(6, -2, 50_000, seed=8)
        assert abs(est.mean) < 3 * math.hypot(est.se_re, est.se_im) + 1e-3


class TestWeightedVerblunsky:
    @pytest.mark.parametrize("j", [0, 1, 5, 40])
    def test_factor_moments(self, j):
        # E[(1 - gamma_j)^k] = (j + k + 2)/(j + 2) and E|gamma_j|^2 = (j + 4)/(j + 2)^2
        # under the |1 - gamma|^2-weighted law
        gam = rmt._weighted_verblunsky(np.full(200_000, j), np.random.default_rng(40 + j))
        fac = 1.0 - gam
        assert np.all(np.abs(gam) <= 1.0 + 1e-15) and np.all(fac.real >= 0.0)
        for k in (1.0, 0.5 + 0.5j, -0.5, -1 + 0.5j):
            vals = np.exp(k * np.log(fac))
            target = (j + k + 2) / (j + 2)
            n = len(vals)
            assert abs(vals.mean().real - target.real) < 4 * vals.real.std(ddof=1) / math.sqrt(n), k
            assert abs(vals.mean().imag - np.imag(target)) < 4 * vals.imag.std(ddof=1) / math.sqrt(n) + 1e-15, k
        sq = np.abs(gam) ** 2
        assert abs(sq.mean() - (j + 4) / (j + 2) ** 2) < 4 * sq.std(ddof=1) / math.sqrt(len(sq)) + 1e-15

    @pytest.mark.parametrize("j", [0, 1, 5, 40])
    def test_agrees_with_rejection(self, j):
        # two-sample Kolmogorov-Smirnov tests of |gamma_j|^2 and arg(1 - gamma_j)
        # against the rejection oracle, which draws from the same law.  |gamma_j|^2
        # is rounded to 1e-12: at j = 0 it is 1, and the two differ only by rounding
        count = 20_000
        new = rmt._weighted_verblunsky(np.full(count, j), np.random.default_rng(80 + j))
        ref = weighted_verblunsky_rejection(np.full(count, j), np.random.default_rng(90 + j))
        for stat in (lambda g: np.round(np.abs(g) ** 2, 12), lambda g: np.angle(1.0 - g)):
            assert ks_2samp(stat(new), stat(ref)).pvalue > 1e-3

    def test_extreme_uniforms_keep_gamma_off_one(self):
        # every uniform at either end of [0, 1).  At the bottom gamma_0 = -1 and
        # gamma_j = 0 for j >= 1.  At the top r is 1 at j = 0 and rounds to 1 at
        # j = 1, so only the weighted phase is drawn there, and Re gamma < 1
        class Constant:
            def __init__(self, value):
                self.value = value

            def random(self, shape):
                return np.full(shape, self.value)

        low = rmt._weighted_verblunsky(np.arange(4), Constant(0.0))
        assert np.array_equal(low, [-1.0, 0.0, 0.0, 0.0])
        high = rmt._weighted_verblunsky(np.arange(4), Constant(1.0 - 2.0**-53))
        assert np.array_equal(np.abs(high[:2]), [1.0, 1.0])
        assert np.all(high.real < 1.0) and np.all(np.isfinite(np.log(1.0 - high)))

    def test_turn_by_quadrants(self):
        # e^{2 pi i u} by quadrants against numpy's cos and sin of 2 pi u, at
        # the quadrant and octant points, either side of a quarter and at the
        # top of [0, 1), and at random u; the quarters themselves are exact
        edges = [0.0, 1 / 8, 0.25 - 2.0**-53, 0.25 + 2.0**-53, 3 / 8, 0.5, 5 / 8, 0.75, 7 / 8, 1.0 - 2.0**-53]
        u = np.concatenate((edges, np.random.default_rng(68).random(100_000)))
        e = rmt._turn(u)
        assert np.abs(e.real - np.cos(2 * math.pi * u)).max() <= 1e-15
        assert np.abs(e.imag - np.sin(2 * math.pi * u)).max() <= 1e-15
        assert np.array_equal(rmt._turn(np.array([0.0, 0.25, 0.5, 0.75])), [1.0, 1j, -1.0, -1j])

    @pytest.mark.parametrize("n,s_coeffs", [(1, ()), (2, ()), (8, ()), (8, (0.3 - 0.2j, 0.1)), (64, (0.1j,))])
    def test_five_uniforms_a_factor(self, n, s_coeffs):
        # a batch of the draw takes its 5 (N - 1) uniforms a sample in one
        # random call, bare and hybrid alike
        class Counting:
            def __init__(self, rng):
                self.rng, self.shapes = rng, []

            def random(self, shape):
                self.shapes.append(shape)
                return self.rng.random(shape)

        rng = Counting(np.random.default_rng(69))
        vals = rmt._verblunsky_draw(n, 0.5 + 0.5j, 1000, rng, s_coeffs=s_coeffs)
        assert len(rng.shapes) == 1
        assert math.prod(rng.shapes[0]) == 5 * (n - 1) * len(vals)

    @pytest.mark.parametrize("n,k,seed", [(6, 1 + 1j, 60), (8, -1.5, 61), (12, 0.5, 62)])
    def test_agrees_with_qr_eig(self, n, k, seed):
        # two-sample test against the QR+eig oracle through the eigenangle
        # statistic.  At these N the factors' args sum past pi in under 0.5 %
        # of samples, too few to see the branch; the tests at N = 64 do
        est = rmt.mc_moment(n, k, 100_000, seed)
        rng = np.random.default_rng(seed + 100)
        count = 20_000
        qr = zprime_pow_rows(haar_angle_batch(n, count, rng), rng.integers(0, n, size=count), k, ())
        for part, se in ((np.real, est.se_re), (np.imag, est.se_im)):
            se_qr = part(qr).std(ddof=1) / math.sqrt(count)
            assert abs(part(est.mean) - part(qr).mean()) < 4 * math.hypot(se, se_qr)

    @pytest.mark.parametrize("n,k,samples", [(64, 1 + 1j, 20_000), (1000, 1, 4000)])
    def test_large_n_matches_exact(self, n, k, samples):
        # at N = 64 the factors' args sum past pi in about 3 % of samples,
        # where one principal log of the product would take another branch;
        # N = 1000 is above the QR+eig route's cap of 512
        est = rmt.mc_moment(n, k, samples, seed=64)
        assert within(est, rmt.exact_moment(n, k), n_se=4.0), (est.mean, est.se_re, est.se_im)

    def test_principal_log_per_factor(self):
        # the statistic sums the principal logs of the factors, which differs
        # from the principal log of their product wherever the args sum past pi
        n, k = 64, 0.5 + 0.5j
        vals = rmt._verblunsky_draw(n, k, 1000, np.random.default_rng(65))  # one batch
        gam = rmt._weighted_verblunsky(np.broadcast_to(np.arange(n - 1)[:, None], (n - 1, len(vals))), np.random.default_rng(65))
        logs = np.log(1.0 - gam).sum(axis=0)
        assert (np.abs(logs.imag) > math.pi).any()
        assert np.allclose(vals, np.exp(k * (1j * math.pi / 2 + logs)), rtol=1e-12, atol=0)


def _full_szego(gam_col):
    """Ascending coefficients of the whole Szegő polynomial Phi_{N-1} built from
    one sample's deformed Verblunsky coefficients, a column of the factor-major
    batch, entry N - 2 first."""
    phi = np.array([1.0 + 0j])
    for g in gam_col[::-1]:
        u = phi.sum() / abs(phi.sum())  # the phase of Phi_i(1)
        star = np.conj(phi[::-1])
        phi = np.concatenate(([0.0], phi)) - g * u * u * np.concatenate((star, [0.0]))
    return phi


def _unit(gam):
    """(1 - gamma)/|1 - gamma|, the factor by which the phase of Phi_i(1) turns."""
    return (1.0 - gam) / np.abs(1.0 - gam)


class TestSzegoPowerSums:
    def test_pathwise_against_roots(self):
        # from the same gammas the whole polynomial and its roots give
        # Phi(1) = prod (1 - gamma), roots on the unit circle, the per-factor
        # log sum (where it passes pi too) and the recursion's power sums
        n, b, m_max = 64, 400, 3
        gam = rmt._weighted_verblunsky(np.broadcast_to(np.arange(n - 1)[:, None], (n - 1, b)), np.random.default_rng(66))
        p = rmt._szego_power_sums(gam, _unit(gam), m_max)
        past_pi = 0
        for row, p_row in zip(gam.T, p.T):
            phi = _full_szego(row)
            assert phi.sum() == pytest.approx(np.prod(1.0 - row), rel=1e-13)
            lam = np.roots(phi[::-1])
            assert np.abs(np.abs(lam) - 1.0).max() < 1e-11
            log_sum = np.log(1.0 - row).sum()
            if abs(log_sum.imag) > math.pi:
                past_pi += 1
                assert np.log(1.0 - lam).sum() == pytest.approx(log_sum, abs=1e-10)
            sums = np.array([(lam**m).sum() for m in range(1, m_max + 1)])
            assert np.abs(sums - p_row).max() < 1e-11
        assert past_pi > 0

    def test_fewer_roots_than_sums(self):
        # N = 2: Phi_0(1) = 1 has phase 1, so the one root is gamma_0 itself and
        # p_m = gamma_0^m also for m > N - 1; N = 1 has no root and p_m = 0
        gam = rmt._weighted_verblunsky(np.zeros((1, 50), dtype=int), np.random.default_rng(67))
        p = rmt._szego_power_sums(gam, _unit(gam), 3)
        assert np.allclose(p, gam ** np.arange(1, 4)[:, None], rtol=0, atol=1e-15)
        empty = np.empty((0, 5), dtype=complex)
        assert np.array_equal(rmt._szego_power_sums(empty, empty, 2), np.zeros((2, 5)))

    @pytest.mark.parametrize("n", [1, 2, 8, 64])
    @pytest.mark.parametrize("m_max", [1, 2, 3])
    def test_frame_against_phase_recursion(self, n, m_max):
        # the rotated frame against the recursion with the phase of Phi_i(1)
        # summed from the args and exponentiated; both round at each of the
        # N - 1 steps, and p_m is up to N - 1 in size (measured: 2.5e-14)
        gam = rmt._weighted_verblunsky(np.broadcast_to(np.arange(n - 1)[:, None], (n - 1, 2000)), np.random.default_rng(70 + n))
        p = rmt._szego_power_sums(gam, _unit(gam), m_max)
        assert np.abs(p.T - szego_power_sums_phase(gam.T, m_max)).max() < 1e-13


def _all_draws(draw, n, count, seed, s_coeffs):
    """Every sample a Monte-Carlo worker draws for ``count`` samples, batch by batch."""
    rng = np.random.default_rng(seed)
    batches = []
    while (done := sum(map(len, batches))) < count:
        batches.append(draw(n, 0.5 + 0.5j, count - done, rng, s_coeffs=s_coeffs))
    return batches


class TestDrawBitIdentity:
    # the in-place draw against the same draw with a fresh array for every
    # step (tests/oracles.py): every operation on every element is the same,
    # so the samples agree bit for bit, a partial last batch included
    _WEIGHTS = (0.3 - 0.2j, 0.1, -0.05j)

    @pytest.mark.parametrize("n", [2, 3, 8, 64, 200])
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_draws(self, n, m):
        for count in (5, 300, 4097, 20_000):
            seed = 1000 * n + 10 * m + count
            new = _all_draws(rmt._verblunsky_draw, n, count, seed, self._WEIGHTS[:m])
            ref = _all_draws(verblunsky_draw_allocating, n, count, seed, self._WEIGHTS[:m])
            assert len(new) == len(ref)
            assert all(np.array_equal(a, b) for a, b in zip(new, ref)), count

    @pytest.mark.parametrize("j", [0, 1, 5, 40])
    def test_factors_on_a_1d_index(self, j):
        # the 1-D index arrays the factor tests pass, one j and a mixed one
        rng, ref_rng = np.random.default_rng(50 + j), np.random.default_rng(50 + j)
        for index in (np.full(1000, j), np.arange(j + 1), np.zeros((50, 1), dtype=int) + j):
            assert np.array_equal(rmt._weighted_verblunsky(index, rng), weighted_verblunsky_allocating(index, ref_rng))

    @pytest.mark.parametrize("m_max", [1, 2, 3])
    def test_power_sums(self, m_max):
        gam = rmt._weighted_verblunsky(np.broadcast_to(np.arange(7)[:, None], (7, 300)), np.random.default_rng(51))
        unit = _unit(gam)
        assert np.array_equal(rmt._szego_power_sums(gam, unit, m_max), szego_power_sums_allocating(gam, unit, m_max))
