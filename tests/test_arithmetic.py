import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import divisor_general, p_x_euler_trial_division, poly_coeff, tail_bound

from zetalab import arithmetic
from zetalab.errors import CapabilityError, DomainError

KS = [1.0, -1.0, 2.0, 0.5 + 0.5j, 1 + 1j]


class TestVonMangoldt:
    def test_prime_power(self):
        assert arithmetic.von_mangoldt(8) == pytest.approx(math.log(2))

    def test_composite(self):
        assert arithmetic.von_mangoldt(6) == 0.0
        assert arithmetic.von_mangoldt(1) == 0.0  # 1 is no prime power

    def test_prime(self):
        assert arithmetic.von_mangoldt(5) == pytest.approx(math.log(5))

    def test_domain(self):
        with pytest.raises(DomainError):
            arithmetic.von_mangoldt(0)
        with pytest.raises(DomainError):
            arithmetic.factorize(0)

    def test_prime_table_lookup(self):
        primes = arithmetic.sieve_primes(100)
        assert list(primes[:5]) == [2, 3, 5, 7, 11] and len(primes) == 25
        assert arithmetic.sieve_primes(1).size == 0
        assert arithmetic.von_mangoldt(49) == pytest.approx(math.log(7))


class TestDivisorGeneral:
    def test_d_k_of_p(self):
        for k in KS:
            assert divisor_general(k, 7) == pytest.approx(k)

    def test_d2_p_squared(self):
        assert divisor_general(2, 9) == pytest.approx(3.0)

    def test_d_minus1_p_squared(self):
        assert divisor_general(-1, 4) == 0

    def test_multiplicative_assembly(self):
        # d_2(12) = d_2(4) d_2(3) = 3 * 2 (classical divisor count)
        assert divisor_general(2, 12) == pytest.approx(6.0)

    def test_m_one(self):
        assert divisor_general(3.5, 1) == 1


class TestACoeffs:
    def test_a_k_of_p(self):
        for k in KS:
            poly = arithmetic.a_coeffs(k, 10.0, m_max=100)
            for p in (2, 3, 5, 7):
                assert poly_coeff(poly, p) == pytest.approx(k)

    def test_support_is_smooth(self):
        poly = arithmetic.a_coeffs(1.0, 10.0, m_max=1000)
        for m in poly.m:
            if m > 1:
                assert max(arithmetic.factorize(int(m))) <= 7
        assert poly_coeff(poly, 11) == 0
        assert poly_coeff(poly, 22) == 0

    def test_a1_is_one(self):
        poly = arithmetic.a_coeffs(2.5 - 1j, 10.0, m_max=100)
        assert poly_coeff(poly, 1) == 1.0

    def test_a_minus1_p_squared_truncated(self):
        # p <= X < p^2: exp(-z) gives coefficient 1/2 at z^2
        poly = arithmetic.a_coeffs(-1.0, 3.0, m_max=100)
        assert poly_coeff(poly, 9) == pytest.approx(0.5)

    def test_p4_regime_polynomials(self):
        # the four truncation regimes of a_k(p^4) at p = 2
        def regime(k, x):
            return poly_coeff(arithmetic.a_coeffs(k, x, m_max=64), 16)

        for k in KS:
            full = k**4 / 24 + k**3 / 4 + 11 * k**2 / 24 + k / 4
            assert regime(k, 16.0) == pytest.approx(full, rel=1e-12)  # p^4 <= X
            assert regime(k, 8.0) == pytest.approx(
                k**4 / 24 + k**3 / 4 + 11 * k**2 / 24, rel=1e-12
            )  # p^3 <= X < p^4
            assert regime(k, 4.0) == pytest.approx(
                k**4 / 24 + k**3 / 4 + k**2 / 8, rel=1e-12
            )  # p^2 <= X < p^3
            assert regime(k, 2.0) == pytest.approx(k**4 / 24, rel=1e-12)  # p <= X < p^2

    def test_equal_to_divisor_when_power_below_x(self):
        poly = arithmetic.a_coeffs(0.5 + 0.5j, 30.0, m_max=1000)
        for m in (2, 4, 8, 16, 3, 9, 27, 5, 25, 6, 12, 30):
            assert poly_coeff(poly, m) == pytest.approx(
                divisor_general(0.5 + 0.5j, m), rel=1e-12
            )

    @pytest.mark.parametrize("k", KS)
    def test_multiplicativity_and_divisor_bound(self, k):
        poly = arithmetic.a_coeffs(k, 12.0, m_max=200_000)
        rng = np.random.default_rng(42)
        lookup = dict(zip(poly.m.tolist(), poly.a.tolist()))
        support = poly.m
        for _ in range(1000):
            m1 = int(support[rng.integers(len(support))])
            m2 = int(support[rng.integers(len(support))])
            if math.gcd(m1, m2) != 1 or m1 * m2 > poly.m_max:
                continue
            assert abs(lookup[m1 * m2] - lookup[m1] * lookup[m2]) < 1e-12
        # divisor-bound domination across the full support
        for m, a in zip(poly.m, poly.a):
            bound = abs(divisor_general(abs(k), int(m)))
            assert abs(a) <= bound + 1e-12

    @pytest.mark.parametrize("x", [math.inf, math.nan, 1.5])
    def test_cutoff_must_be_finite_and_at_least_two(self, x):
        with pytest.raises(DomainError):
            arithmetic.a_coeffs(1.0, x)

    def test_m_max_must_be_positive(self):
        with pytest.raises(DomainError, match="m_max"):
            arithmetic.a_coeffs(1, 10, m_max=0)

    def test_support_completeness(self):
        poly = arithmetic.a_coeffs(1.0, 4.0, m_max=50)
        expected = sorted(
            m for m in range(1, 51) if all(p in (2, 3) for p in arithmetic.factorize(m))
        )
        assert poly.m.tolist() == expected
        assert len(set(poly.m.tolist())) == len(poly.m)


class TestSmoothExpansion:
    @pytest.mark.parametrize("k, x, m_max", [(1.0, 10.0, 10**5), (-1.0, math.log(5000), 10**5),
                                             (0.5 + 0.5j, 20.0, 20_000), (2.0, 12.0, 50_000)])
    def test_tail_bound_against_divisor_sum(self, k, x, m_max):
        poly = arithmetic.a_coeffs(k, x, m_max)
        kk = abs(k)
        full = math.prod((1.0 - p**-0.5) ** -kk for p in arithmetic.sieve_primes(int(x)))
        captured = sum(abs(divisor_general(kk, int(m))) / math.sqrt(m) for m in poly.m)
        assert abs(tail_bound(poly) - (full - captured)) < 1e-12

    def test_budget_fires_before_the_arrays_grow(self, monkeypatch):
        size = len(arithmetic.a_coeffs(1.0, 10.0, m_max=1000).m)
        monkeypatch.setattr(arithmetic, "_SMOOTH_BUDGET", size)
        poly = arithmetic.a_coeffs(1.0, 10.0, m_max=1000)
        monkeypatch.setattr(arithmetic, "_SMOOTH_BUDGET", size - 1)
        with pytest.raises(CapabilityError):
            arithmetic.a_coeffs(1.0, 10.0, m_max=1000)
        with pytest.raises(CapabilityError):
            tail_bound(poly)


class TestPxPow:
    def test_k0_is_one(self):
        poly = arithmetic.a_coeffs(0.0, 10.0, m_max=1000)
        assert arithmetic.p_x_pow(0.3 + 2j, 0.0, poly) == pytest.approx(1.0)

    def test_p_x_zero_against_independent_formula(self):
        # P_X(0) = exp(sum_{n<=X} Lambda(n)/log n): the production exponential
        # route against an independently coded high-precision evaluation
        import mpmath as mp

        acc = mp.mpf(0)
        for n in range(2, 21):
            fac = arithmetic.factorize(n)
            if len(fac) == 1:
                ((p, a),) = fac.items()
                acc += mp.log(p) / (a * mp.log(p))  # Lambda(n)/log n = 1/a
        oracle = float(mp.e**acc)
        assert abs(arithmetic.p_x_euler(0.0, 1.0, 20.0) - oracle) < 1e-10 * oracle

    def test_dual_route_where_truncation_converges(self):
        # at s = 2 the m^{-2} decay makes the truncated Dirichlet route exact
        # to ~1e-10; at s = 0 the terms do not decay and only the exponential
        # route is meaningful
        poly = arithmetic.a_coeffs(1.0, 20.0, m_max=2_000_000)
        dirichlet = arithmetic.p_x_pow(2.0, 1.0, poly)
        euler = arithmetic.p_x_euler(2.0, 1.0, 20.0)
        assert abs(dirichlet - euler) < 1e-9

    def test_dual_route_on_critical_line(self):
        poly = arithmetic.a_coeffs(1.0, 10.0, m_max=1_000_000)
        s = 0.5 + 37.5j
        dirichlet = arithmetic.p_x_pow(s, 1.0, poly)
        euler = arithmetic.p_x_euler(s, 1.0, 10.0)
        assert abs(dirichlet - euler) < tail_bound(poly)
        assert abs(dirichlet - euler) < 1e-3  # observed truncation error scale

    def test_reciprocal_consistency(self):
        s = 0.5 + 14.13j
        p_plus = arithmetic.a_coeffs(1.0, 10.0, m_max=1_000_000)
        p_minus = arithmetic.a_coeffs(-1.0, 10.0, m_max=1_000_000)
        product = arithmetic.p_x_pow(s, 1.0, p_plus) * arithmetic.p_x_pow(s, -1.0, p_minus)
        assert abs(product - 1.0) < tail_bound(p_plus) + tail_bound(p_minus)
        assert abs(product - 1.0) < 1e-2

    @pytest.mark.parametrize("x", [math.log(5000.0), math.e**4, 1e3, 1e4])
    def test_euler_walks_the_sieve_as_trial_division_found_it(self, stored_table_5000, x):
        # the prime powers from the sieve, in ascending n with the same
        # coefficient log p / log n: every P_X value bit for bit, a 0-d s too
        s = 0.5 + 1j * stored_table_5000[::15]
        assert s.size > 300
        for k in (1.0, -1.0, 0.5 + 1j):
            assert np.array_equal(arithmetic.p_x_euler(s, k, x), p_x_euler_trial_division(s, k, x))
        assert arithmetic.p_x_euler(s[7], 1.0, x) == p_x_euler_trial_division(s[7], 1.0, x)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 1.0])
    def test_euler_cutoff_must_be_finite_and_at_least_two(self, x):
        with pytest.raises(DomainError):
            arithmetic.p_x_euler(0.5 + 14.13j, 1.0, x)

    def test_cutoff_is_capped_at_1e5(self):
        # at 1e5 the prime sums still take a fraction of a second; past it
        # every route that sieves to X refuses before the sieve
        p = arithmetic.prime_power_sums(1e5)[0]
        assert p.size == 9592 and p[-1] == 99991.0
        for call in (lambda x: arithmetic.prime_power_sums(x), lambda x: arithmetic.a_coeffs(1.0, x),
                     lambda x: arithmetic.p_x_euler(0.5 + 14.13j, 1.0, x)):
            for x in (1e5 + 1, 1e9):
                with pytest.raises(CapabilityError, match="exceeds the supported 100000"):
                    call(x)

    def test_mismatched_k_rejected(self):
        poly = arithmetic.a_coeffs(1.0, 10.0, m_max=100)
        with pytest.raises(DomainError):
            arithmetic.p_x_pow(0.5, 2.0, poly)


@given(st.integers(min_value=2, max_value=10_000))
@settings(max_examples=200, deadline=None)
def test_von_mangoldt_factorization_property(n):
    # Lambda(n) != 0 iff n is a prime power, and then equals log of its base
    fac = arithmetic.factorize(n)
    lam = arithmetic.von_mangoldt(n)
    if len(fac) == 1:
        assert lam == pytest.approx(math.log(next(iter(fac))))
    else:
        assert lam == 0.0
