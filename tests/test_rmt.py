import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import haar_angle_batch, zprime_pow_rows
from zetalab import rmt
from zetalab.errors import AdmissibilityError, CapabilityError, DomainError, PoleError


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

        oracle = rmt.weyl_average(3, stat, grid=64)
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

    def test_capability_cap(self):
        with pytest.raises(CapabilityError):
            rmt.weyl_quadrature_oracle(4, 1, 16)

    @pytest.mark.parametrize("grid", [0, -3])
    def test_empty_grid_is_rejected(self, grid):
        for n in (1, 2):
            with pytest.raises(DomainError):
                rmt.weyl_quadrature_oracle(n, 1, grid)
        with pytest.raises(DomainError):
            rmt.weyl_average(2, lambda *a: np.ones(np.shape(a[-1])), grid)

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
            full = rmt.weyl_average(3, symmetric(k), 24)
            assert abs(reduced - full) <= 1e-13 * abs(full)

    def test_density_mass(self):
        for n in (1, 2, 3):
            mass = rmt.weyl_average(n, lambda *a: np.ones(np.shape(a[-1])), 48)
            assert mass == pytest.approx(1.0, abs=1e-10)


class TestMcMoment:
    def test_k0_exact(self):
        est = rmt.mc_moment(5, 0, 1000, seed=1)
        assert est.mean == 1.0 and est.se_re == 0.0 and est.se_im == 0.0

    def test_n2_k1(self):
        est = rmt.mc_moment(2, 1, 100_000, seed=2)
        assert est.within(1.5j), (est.mean, est.se_re, est.se_im)

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
        # a first round proposing B = 0 for j >= 1 and gamma_0 = 1 (omega = 0),
        # with the most favourable acceptance draw: the gamma = 0 proposals are
        # kept, every gamma_0 = 1 is rejected, and only those are drawn again
        class FirstRoundZeros:
            def __init__(self, rng):
                self.rng, self.calls = rng, 0

            def random(self, shape):
                self.calls += 1
                return np.zeros(shape) if self.calls == 1 else self.rng.random(shape)

        j = np.broadcast_to(np.arange(4), (10, 4))
        gam = rmt._weighted_verblunsky(j, FirstRoundZeros(np.random.default_rng(31)))
        assert np.all(gam[:, 1:] == 0)
        redrawn = rmt._weighted_verblunsky(np.zeros(10, dtype=int), np.random.default_rng(31))
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
        1: (0.008463119719521173 + 1.0646653022795374j, 0.015886154288596605, 0.015645436953091348),
        2: (0.00255482770213887 + 1.0325840153032946j, 0.015570425271583043, 0.015107563585110517),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pinned_values(self, workers):
        # values of the factor sampler before the hybrid route shared it: the
        # bare stream must not move.  The bits agree on the machine they were
        # taken on; the 1e-12 allows another libm's rounding, far below a
        # change of stream (~ se)
        mean, se_re, se_im = self._PINNED[workers]
        est = rmt.mc_moment(8, 0.5 + 0.5j, 2000, seed=6, workers=workers)
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
        assert est.within(rmt.exact_moment(n, k), n_se=4.0), (est.mean, est.se_re, est.se_im)

    def test_principal_log_per_factor(self):
        # the statistic sums the principal logs of the factors, which differs
        # from the principal log of their product wherever the args sum past pi
        n, k = 64, 0.5 + 0.5j
        vals = rmt._verblunsky_draw(n, k, 1000, np.random.default_rng(65))
        gam = rmt._weighted_verblunsky(np.broadcast_to(np.arange(n - 1), (1000, n - 1)), np.random.default_rng(65))
        logs = np.log(1.0 - gam).sum(axis=1)
        assert (np.abs(logs.imag) > math.pi).any()
        assert np.allclose(vals, np.exp(k * (1j * math.pi / 2 + logs)), rtol=1e-12, atol=0)


def _full_szego(gam_row):
    """Ascending coefficients of the whole Szegő polynomial Phi_{N-1} built from
    one row of deformed Verblunsky coefficients, column N - 2 first."""
    phi = np.array([1.0 + 0j])
    for g in gam_row[::-1]:
        u = phi.sum() / abs(phi.sum())  # the phase of Phi_i(1)
        star = np.conj(phi[::-1])
        phi = np.concatenate(([0.0], phi)) - g * u * u * np.concatenate((star, [0.0]))
    return phi


class TestSzegoPowerSums:
    def test_pathwise_against_roots(self):
        # from the same gammas the whole polynomial and its roots give
        # Phi(1) = prod (1 - gamma), roots on the unit circle, the per-factor
        # log sum (where it passes pi too) and the recursion's power sums
        n, b, m_max = 64, 400, 3
        gam = rmt._weighted_verblunsky(np.broadcast_to(np.arange(n - 1), (b, n - 1)), np.random.default_rng(66))
        p = rmt._szego_power_sums(gam, m_max)
        past_pi = 0
        for row, p_row in zip(gam, p):
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
        gam = rmt._weighted_verblunsky(np.zeros((50, 1), dtype=int), np.random.default_rng(67))
        p = rmt._szego_power_sums(gam, 3)
        assert np.allclose(p, gam ** np.arange(1, 4), rtol=0, atol=1e-15)
        assert np.array_equal(rmt._szego_power_sums(np.empty((5, 0)), 2), np.zeros((5, 2)))
