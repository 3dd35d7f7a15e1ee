import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from oracles import a1_term, b1_term, px_support_sum, tail_bound, twisted_m_sum_triangular, twisted_support_sum
from zetalab import arithmetic, experiments
from zetalab.errors import DomainError
from zetalab.specfun import GAMMA0, zeta_and_deriv

TWO_PI = 2 * math.pi


class TestBranchStrategy:
    def test_resolution(self):
        assert experiments.resolve_branch(2) == experiments.INTEGER_POWER
        assert experiments.resolve_branch(0) == experiments.INTEGER_POWER
        assert experiments.resolve_branch(-1) == experiments.RECIPROCAL
        assert experiments.resolve_branch(0.5) == experiments.PRINCIPAL_LOG
        assert experiments.resolve_branch(1 + 1j) == experiments.PRINCIPAL_LOG

    def test_int_power(self):
        z = np.array([1.5 - 2.0j, -0.3 + 0.4j])
        assert np.allclose(experiments._int_power(z, 3), z * z * z)

    def test_near_multiple_zero_guard(self):
        vals = np.array([1.0 + 0j, 1e-13 + 0j])
        with pytest.raises(DomainError):
            experiments._branch_power(vals, complex(-1), experiments.RECIPROCAL)

    def test_branch_coherence_on_zeros(self, zeros_5000):
        # integer-power and principal-log agree on every zero for k in {1,2,3}
        _, zp = zeta_and_deriv(0.5 + 1j * zeros_5000.gammas[:500])
        for k in (1, 2, 3):
            a = experiments._branch_power(zp, complex(k), experiments.INTEGER_POWER)
            b = experiments._branch_power(zp, complex(k), experiments.PRINCIPAL_LOG)
            assert np.max(np.abs(a - b) / np.abs(a)) < 1e-12


def test_kahan_sum_matches_fsum():
    rng = np.random.default_rng(1)
    vals = rng.standard_normal(5000) * 10.0 ** rng.integers(-8, 8, 5000)
    vals = vals + 1j * rng.standard_normal(5000)
    ks = experiments.complex_fsum(vals)
    assert ks.real == pytest.approx(math.fsum(vals.real), rel=1e-15)
    assert ks.imag == pytest.approx(math.fsum(vals.imag), rel=1e-15)


def test_complex_fsum_bit_identical_to_array_form():
    # fsum is correctly rounded, so summing lists of floats and summing the arrays agree bit for bit
    rng = np.random.default_rng(4)
    vals = rng.standard_normal(4520) * 10.0 ** rng.uniform(-13, 13, 4520)
    vals = vals + 1j * rng.standard_normal(4520) * 10.0 ** rng.uniform(-13, 13, 4520)
    total = experiments.complex_fsum(vals)
    assert total.real == math.fsum(vals.real) and total.imag == math.fsum(vals.imag)


class TestZetaPrimeMoment:
    def test_k0_trivial(self, zeros_5000):
        res = experiments.zeta_prime_moments(zeros_5000, [1000.0], 0)[0]
        assert res.empirical == 1.0
        assert res.predicted == 1.0

    def test_k1_tracks_main_term(self, zeros_5000):
        res = experiments.zeta_prime_moments(zeros_5000, [5000.0], 1)[0]
        total = res.details["sum"]
        assert total.real == pytest.approx(experiments.cgg_main_term(5000.0), rel=0.05)

    def test_conjugate_reality_proxy(self, zeros_5000):
        res = experiments.zeta_prime_moments(zeros_5000, [5000.0], 1)[0]
        total = res.details["sum"]
        assert abs(total.imag) / abs(total.real) < 0.1

    def test_k_minus_1_known_case(self, zeros_5000):
        res = experiments.zeta_prime_moments(zeros_5000, [5000.0], -1)[0]
        assert res.branch == experiments.RECIPROCAL
        # the empirical tracks the proven asymptotic sum ~ T/2pi, i.e. the
        # normalized value 1/(L-1); the conjecture target 1/L differs from it
        # by the finite-size factor L/(L-1), so deviation is measured against
        # the empirical value
        ell = math.log(5000.0 / TWO_PI)
        assert res.empirical.real == pytest.approx(1.0 / (ell - 1.0), rel=0.01)
        target = 1.0 / ell
        assert abs(res.empirical.real - target) <= 0.15 * abs(res.empirical.real)

    def test_needs_covering_zero_list(self, zeros_100):
        with pytest.raises(DomainError):
            experiments.zeta_prime_moments(zeros_100, [5000.0], 1)

    @pytest.mark.parametrize("heights", [[10.0], [5.0], [14.0], [10.0, 100.0]])
    def test_height_below_the_first_zero_is_refused(self, zeros_100, heights):
        # the moment would average over no zeros
        with pytest.raises(DomainError, match=f"no zero at or below T = {heights[0]:g}:"):
            experiments.zeta_prime_moments(zeros_100, heights, 1)

    def test_sums_below_the_first_zero_are_kept(self, zeros_100):
        # a sum over no zeros is 0 and defined: these rows stay
        assert experiments.landau_gonek(zeros_100, 2, 10.0).n_zeros == 0
        assert experiments.px_mean(zeros_100, 10.0, 1, math.log(10.0)).n_zeros == 0
        assert experiments.twisted_first_moment(zeros_100, 10.0, math.log(10.0)).n_zeros == 0

    def test_gap_below_covered_height_is_caught(self, zeros_5000):
        # t_max still reaches every height: only the certified count N(T) shows the gap
        gap = dataclasses.replace(zeros_5000, gammas=np.delete(zeros_5000.gammas, 1000))
        for run in (lambda t: experiments.zeta_prime_moments(gap, [1000.0, t], 1),
                    lambda t: experiments.landau_gonek(gap, 2, t)):
            with pytest.raises(DomainError, match="3473 zeros, expected 3474"):
                run(4000.0)
        assert experiments.landau_gonek(gap, 2, 1000.0).n_zeros == 649  # the gap lies above 1000

    @pytest.mark.parametrize("t", [1000.0, 5000.0, 2e5])
    def test_coverage_returns_the_ordinates_up_to_t(self, zeros_5000, t):
        # landau_gonek, px_mean and twisted sum over these, with no second call to below
        beyond = dataclasses.replace(zeros_5000, t_max=2e5)  # past zero_count's range, t_max is taken
        assert np.array_equal(beyond.covering(t), zeros_5000.below(t))

    def test_height_is_checked_before_log_t(self, zeros_5000):
        # px_mean's X-growth warning and twisted's m-sum take log T
        for run, t in ((lambda t: experiments.px_mean(zeros_5000, t, 1, 8.0), -100.0),
                       (lambda t: experiments.twisted_first_moment(zeros_5000, t, 8.0), 0.0)):
            with pytest.raises(DomainError, match=f"height T = {t:g} is not a positive finite number"):
                run(t)

    def test_heights_from_rs_t_min_on_equal_lone_calls(self, zeros_5000):
        heights = [250.0, 1000.0, 2500.0, 5000.0]
        for k in (1, -1, 0.5 + 0.5j):
            together = experiments.zeta_prime_moments(zeros_5000, heights, k)
            assert together == [experiments.zeta_prime_moments(zeros_5000, [t], k)[0] for t in heights]

    def test_normalization_open_question_both_reported(self, zeros_5000):
        # exact count and main-term formula normalizations both present
        res = experiments.zeta_prime_moments(zeros_5000, [5000.0], 1)[0]
        assert res.n_zeros == 4520
        assert res.details["n_formula"] == pytest.approx(4519.46, abs=0.1)
        assert res.details["normalized_by_formula"] != res.empirical


class TestLandauGonek:
    def test_m2_main_term(self, zeros_5000):
        res = experiments.landau_gonek(zeros_5000, 2, 5000.0)
        assert res.predicted.real == pytest.approx(-(5000 / TWO_PI) * math.log(2) / 2, rel=1e-12)
        assert res.predicted.real == pytest.approx(-275.8, abs=0.1)
        assert res.empirical.real == pytest.approx(res.predicted.real, rel=0.15)

    def test_m4_quarter_log2(self, zeros_5000):
        res = experiments.landau_gonek(zeros_5000, 4, 5000.0)
        assert res.predicted.real == pytest.approx(-(5000 / TWO_PI) * math.log(2) / 4, rel=1e-12)

    def test_m6_vanishing_mangoldt(self, zeros_5000):
        res6 = experiments.landau_gonek(zeros_5000, 6, 5000.0)
        res2 = experiments.landau_gonek(zeros_5000, 2, 5000.0)
        assert res6.predicted == 0
        assert abs(res6.empirical) < 0.2 * abs(res2.empirical)

    def test_m1_excluded(self, zeros_5000):
        with pytest.raises(DomainError):
            experiments.landau_gonek(zeros_5000, 1, 5000.0)


class TestPxMean:
    def test_k0_counts_zeros(self, zeros_5000):
        res = experiments.px_mean(zeros_5000, 5000.0, 0, 8.5)
        assert res.empirical == res.n_zeros == 4520

    def test_k1_two_term_prediction(self, zeros_5000):
        res = experiments.px_mean(zeros_5000, 5000.0, 1, math.log(5000.0))
        assert res.details["predicted_bare"].real == 4520
        # subsidiary sum contains at least the prime part sum_{p<=8.5} log p / p
        prime_part = sum(math.log(p) / p for p in (2, 3, 5, 7))
        assert res.details["subsidiary_sum"].real > prime_part
        assert res.empirical.real == pytest.approx(res.predicted.real, rel=0.10)

    def test_k_minus1_sign_flip(self, zeros_5000):
        res = experiments.px_mean(zeros_5000, 5000.0, -1, math.log(5000.0))
        # a_{-1}(p) = -1 flips the prime part of the subsidiary term
        assert res.details["subsidiary_sum"].real < 0
        assert res.predicted.real > res.n_zeros

    def test_truncation_stability(self, zeros_5000):
        # the truncated Dirichlet series stays within its tail bound of the exact P_X
        x = math.log(5000.0)
        res = experiments.px_mean(zeros_5000, 5000.0, 1, x)
        s = 0.5 + 1j * zeros_5000.below(5000.0)
        for m_max in (10**6, 10**5):
            poly = arithmetic.a_coeffs(1.0, x, m_max=m_max)
            series = experiments.complex_fsum(arithmetic.p_x_pow(s, 1.0, poly))
            assert abs(series - res.empirical) < len(s) * tail_bound(poly)

    def test_empirical_is_exact_p_x(self, zeros_5000):
        x = math.log(5000.0)
        res = experiments.px_mean(zeros_5000, 5000.0, 1, x)
        exact = experiments.complex_fsum(arithmetic.p_x_euler(0.5 + 1j * zeros_5000.below(5000.0), 1.0, x))
        assert abs(res.empirical - exact) <= 1e-12 * abs(exact)

    def test_complex_k_predicts_the_imaginary_part(self, zeros_5000):
        # measured: Im(predicted) = -1628.7 against Im(empirical) = -1608.3
        res = experiments.px_mean(zeros_5000, 5000.0, 1 + 1j, math.log(5000.0))
        assert res.predicted.imag == pytest.approx(res.empirical.imag, rel=0.03)

    def test_growth_condition_warning(self, zeros_100):
        with pytest.warns(UserWarning):
            experiments.px_mean(zeros_100, 100.0, 1, 64.0)


class TestClosedForms:
    """The m-sums of the predictions over the primes, against the same sums
    term by term over the support of a_coeffs."""

    X = math.log(5000.0)

    @pytest.mark.parametrize("k", [1, -1, 0.5 + 0.5j, 2, -0.5])
    def test_px_subsidiary_against_the_support_sum(self, k):
        ref = px_support_sum(arithmetic.a_coeffs(k, self.X, m_max=10**10))
        assert abs(experiments._px_subsidiary(k, self.X) - ref) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("t", [1000.0, 5000.0])
    def test_twisted_m_sum_against_the_support_sum(self, t):
        ref = twisted_support_sum(arithmetic.a_coeffs(-1, self.X, m_max=10**10), t)
        assert abs(experiments._twisted_m_sum(t, self.X) - ref) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("x", [1e3, 1e4])
    def test_twisted_pair_sum_against_the_triangle(self, x):
        ref = twisted_m_sum_triangular(5000.0, x)
        assert abs(experiments._twisted_m_sum(5000.0, x) - ref) <= 1e-15 * abs(ref)

    def test_twisted_pair_sum_forms_no_prime_by_prime_matrix(self):
        # a pi(X) x pi(X) product would take 87 MB at X = 2e4 (2262 primes)
        tracemalloc.start()
        try:
            experiments._twisted_m_sum(5000.0, 2e4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_support_sums_converge_to_the_closed_forms(self):
        # the closed forms are the limit m_max -> infinity: at X = 20 the gap
        # shrinks strictly from m_max = 1e6 to 1e8 to 1e10
        x = 20.0
        px = experiments._px_subsidiary(1, x)
        twisted = experiments._twisted_m_sum(5000.0, x)
        px_gaps, twisted_gaps = [], []
        for m_max in (10**6, 10**8, 10**10):
            px_gaps.append(abs(px_support_sum(arithmetic.a_coeffs(1, x, m_max)) - px))
            twisted_gaps.append(abs(twisted_support_sum(arithmetic.a_coeffs(-1, x, m_max), 5000.0) - twisted))
        for gaps in (px_gaps, twisted_gaps):
            assert gaps[0] > gaps[1] > gaps[2]


class TestA1B1:
    def test_a1_at_4(self):
        assert a1_term(4) == pytest.approx(2 * math.log(2) ** 2, rel=1e-12)
        assert a1_term(4) == pytest.approx(0.9609, abs=1e-4)

    def test_a1_two_primes_is_zero(self):
        assert a1_term(6) == 0.0

    def test_a1_depends_on_p_only(self):
        assert a1_term(8) == pytest.approx(a1_term(2))
        assert a1_term(8) == pytest.approx(0.9609, abs=1e-4)

    def test_b1_semiprime(self):
        val = b1_term(6, 5000.0)
        assert val == pytest.approx(3.0 * math.log(2) * math.log(3), rel=1e-12)
        assert val == pytest.approx(2.2845, abs=1e-4)
        assert b1_term(6, 500.0) == pytest.approx(val)  # T-independent

    def test_b1_prime_power(self):
        t = 5000.0
        expected = -(3.0 / 2.0) * (
            math.log(3) * (math.log(t / TWO_PI) - 1 + GAMMA0) + 1.5 * math.log(3) ** 2
        )
        assert b1_term(9, t) == pytest.approx(expected, rel=1e-12)

    def test_three_primes_vanish(self):
        assert a1_term(30) == 0.0
        assert b1_term(30, 5000.0) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            a1_term(1)
        with pytest.raises(DomainError):
            b1_term(0, 100.0)


class TestTwisted:
    def test_prediction_consistency_with_k1_target(self):
        # the msum-free polynomial main term IS the zeta' first-moment target
        assert experiments.cgg_main_term(5000.0) == pytest.approx(
            (5000 / (4 * math.pi))
            * (
                math.log(5000 / TWO_PI) ** 2
                - 2 * (1 - GAMMA0) * math.log(5000 / TWO_PI)
                + 2 * (1 - GAMMA0 - 3 * experiments.GAMMA1 - GAMMA0**2)
            ),
            rel=1e-14,
        )

    def test_twisted_tracks_prediction(self, zeros_5000):
        res = experiments.twisted_first_moment(zeros_5000, 5000.0, math.log(5000.0))
        assert res.empirical.real == pytest.approx(res.predicted.real, rel=0.07)
        # dropping the m-sum must worsen agreement
        bare = res.details["main_term"]
        assert abs(res.empirical.real - bare) > abs(res.empirical.real - res.predicted.real)
