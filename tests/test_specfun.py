import math

import mpmath as mp
import numpy as np
import pytest

from oracles import em_main_sums
from zetalab import arithmetic, specfun
from zetalab.errors import BranchCutError, CapabilityError, DomainError, PoleError

mp.mp.dps = 30


# ---------------------------------------------------------------------- oracles


def e1_series_oracle(z, terms=50):
    """Independent alternating-series evaluation of E1 near the origin."""
    acc = mp.mpc(0)
    term = mp.mpc(1)
    for m in range(1, terms + 1):
        term *= -mp.mpc(z) / m
        acc += term / m
    return complex(-mp.euler - mp.log(mp.mpc(z)) - acc)


def theta_oracle(t):
    """High-precision evaluation of the defining formula via mpmath."""
    return float(mp.im(mp.loggamma(mp.mpf("0.25") + 0.5j * mp.mpf(t))) - mp.mpf(t) / 2 * mp.log(mp.pi))


def stieltjes_oracle(n_terms=20000):
    """High-precision (gamma0, gamma1) via Euler-Maclaurin tail corrections.

    gamma0 = lim sum_{n<=N} 1/n - log N;  gamma1 = lim sum_{n<=N} log n / n
    - (log N)^2 / 2.  With N = 2e4 and corrections through the third
    derivative both limits are accurate to well below 1e-13.
    """
    n = np.arange(1, n_terms + 1, dtype=float)
    log_n = math.log(n_terms)
    g0 = (
        math.fsum(1.0 / n)
        - log_n
        - 1.0 / (2.0 * n_terms)
        + 1.0 / (12.0 * n_terms**2)
        - 1.0 / (120.0 * n_terms**4)
    )
    # f(x) = log x / x: f' = (1-log x)/x^2, f''' = (11-6 log x)/x^4
    g1 = (
        math.fsum(np.log(n) / n)
        - 0.5 * log_n**2
        - log_n / (2.0 * n_terms)
        - (1.0 - log_n) / (12.0 * n_terms**2)
        + (11.0 - 6.0 * log_n) / (720.0 * n_terms**4)
    )
    return g0, g1


# -------------------------------------------------------------------- log_gamma


class TestLogGamma:
    def test_gamma_one(self):
        assert abs(specfun.log_gamma(1.0)) < 1e-14

    def test_gamma_half(self):
        assert specfun.log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-13)

    def test_gamma_four(self):
        assert specfun.log_gamma(4.0) == pytest.approx(math.log(6.0), abs=1e-13)

    @pytest.mark.parametrize("z", [0.0, -1.0, -7.0])
    def test_pole_error(self, z):
        with pytest.raises(PoleError):
            specfun.log_gamma(z)

    def test_recurrence_on_random_grid(self):
        rng = np.random.default_rng(2024)
        z = rng.uniform(-8, 8, 60) + 1j * rng.uniform(-8, 8, 60)
        z = z[np.abs(z.imag) > 1e-3]  # stay off the cut and the poles
        lhs = specfun.log_gamma(z + 1)
        rhs = specfun.log_gamma(z) + np.log(z)
        assert np.max(np.abs(lhs - rhs) / np.abs(lhs)) < 1e-12

    def test_reflection_on_random_grid(self):
        rng = np.random.default_rng(99)
        z = rng.uniform(-6, 6, 50) + 1j * rng.uniform(0.05, 6, 50)
        product = np.exp(specfun.log_gamma(z) + specfun.log_gamma(1 - z))
        expected = np.pi / np.sin(np.pi * z)
        assert np.max(np.abs(product - expected) / np.abs(expected)) < 1e-12

    def test_matches_mpmath(self):
        # the last three take the Stirling series with no recurrence (|Im z| >= 10)
        for z in (0.25 + 7.0673626j, 3.5 - 2j, -2.5 + 0.5j, 1e4 + 1e4j, 0.25 + 10j, 5 - 12j, 0.25 + 2500j):
            ours = specfun.log_gamma(z)
            ref = complex(mp.loggamma(mp.mpc(z)))
            assert abs(ours - ref) <= 1e-12 * max(1.0, abs(ref))


# ------------------------------------------------------------------------- E1


class TestExpIntegralE1:
    def test_at_one_vs_series_oracle(self):
        expected = e1_series_oracle(1.0)
        assert expected == pytest.approx(0.21938393, abs=1e-8)
        assert specfun.exp_integral_e1(1.0) == pytest.approx(expected, abs=1e-14)

    def test_small_z_leading_log(self):
        for z in (1e-6, 1e-9):
            val = specfun.exp_integral_e1(z) + math.log(z)
            assert val == pytest.approx(-specfun.GAMMA0, abs=1e-5)

    def test_schwarz_reflection(self):
        z = 0.3 + 0.7j
        assert specfun.exp_integral_e1(np.conj(z)) == pytest.approx(
            np.conj(specfun.exp_integral_e1(z)), abs=1e-14
        )

    def test_singular_and_cut_inputs(self):
        with pytest.raises(DomainError):
            specfun.exp_integral_e1(0.0)
        with pytest.raises(BranchCutError):
            specfun.exp_integral_e1(-2.0)

    def test_regime_agreement_on_crossover_ring(self):
        # series vs the production large-|z| path on |z| in [3, 6], |arg| <= 3
        rng = np.random.default_rng(7)
        r = rng.uniform(3.0, 6.0, 120)
        phi = rng.uniform(-3.0, 3.0, 120)
        z = r * np.exp(1j * phi)
        production = specfun.exp_integral_e1(z)
        series = np.array([specfun._e1_series(np.array([w]), 80)[0] for w in z])
        assert np.max(np.abs(production - series)) < 1e-12

    def test_matches_mpmath_across_regimes(self):
        for z in (0.5 + 0.1j, 3.9j, 4.1j, 8.0 + 1.0j, -4.0 + 0.8j, 25j, -10 + 2j):
            ours = specfun.exp_integral_e1(z)
            ref = complex(mp.e1(mp.mpc(z)))
            assert abs(ours - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_fraction_and_asymptotic_match_mpmath(self):
        # 4 <= |z| <= 1000 in the sector |arg z| <= 2, with the rings where the
        # depths are largest (|z| just above 4 and 40) and the sector's edges;
        # the worst relative error measured is 4.4e-16
        rng = np.random.default_rng(13)
        r = np.concatenate([rng.uniform(4.0, 4.3, 50), rng.uniform(38.0, 42.0, 50),
                            np.exp(rng.uniform(math.log(4.0), math.log(1000.0), 140)),
                            [4.0, 4.0, 40.0, 40.0, 1000.0, 1000.0]])
        phi = np.concatenate([rng.uniform(-2.0, 2.0, 240), [2.0, -2.0] * 3])
        z = r * np.exp(1j * phi)
        ours = specfun.exp_integral_e1(z)
        ref = np.array([complex(mp.e1(mp.mpc(w))) for w in z])
        # (e^{-z} underflows beyond Re z = 745, to 0 on both sides)
        assert np.all(np.abs(ours - ref) <= 1e-13 * np.abs(ref))

    def test_depths_fall_with_modulus(self):
        r = np.geomspace(4.0, 1e4, 400)
        depth = specfun._e1_depth(r)
        fraction, far = depth[r < 40.0], depth[r >= 40.0]
        assert fraction[0] == 80 and np.all(np.diff(fraction) <= 0)
        assert specfun._e1_depth(40.0) == 33 and np.all(np.diff(far) <= 0)
        # entry n of the reach table is where csc(2) (n+1)! / |z|^(n+1) = 2^-53
        reach = specfun._E1_ASYMPTOTIC_REACH
        bound = [mp.factorial(n + 1) / mp.mpf(x) ** (n + 1) / mp.sin(2) for n, x in enumerate(reach)]
        assert all(abs(b / mp.mpf(2) ** -53 - 1) < 1e-12 for b in bound)
        assert np.all(np.diff(reach) < 0) and reach[-1] <= 40.0 < reach[-2]


# ----------------------------------------------------------------------- theta


class TestRiemannSiegelTheta:
    def test_zero_count_at_100(self):
        # 29 zeros below 100: theta/pi + 1 rounds to the count
        assert round(specfun.riemann_siegel_theta(100.0) / math.pi + 1.0) == 29

    def test_monotone(self):
        assert specfun.riemann_siegel_theta(200.0) > specfun.riemann_siegel_theta(100.0)

    def test_value_at_first_zero(self):
        # frozen from the defining-formula oracle (Im log Gamma(1/4 + it/2) - t/2 log pi)
        expected = theta_oracle("14.1347251")
        assert expected == pytest.approx(-1.7286703, abs=1e-6)
        assert specfun.riemann_siegel_theta(14.1347251) == pytest.approx(expected, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.riemann_siegel_theta(1.0)


# ------------------------------------------------------------------------ zeta


class TestZeta:
    def test_basel(self):
        z, _ = specfun.zeta_and_deriv(2.0)
        assert z == pytest.approx(math.pi**2 / 6.0, abs=1e-12)

    def test_deriv_at_zero(self):
        # zeta'(0) = -log(2 pi)/2, via the functional-equation identity
        _, dz = specfun.zeta_and_deriv(0.0)
        assert dz == pytest.approx(-0.5 * math.log(2.0 * math.pi), abs=1e-10)

    def test_vanishes_at_first_zero(self):
        z, _ = specfun.zeta_and_deriv(0.5 + 14.1347251j)
        assert abs(z) < 1e-6

    def test_pole_and_capability_errors(self):
        with pytest.raises(PoleError):
            specfun.zeta_and_deriv(1.0)
        with pytest.raises(CapabilityError):
            specfun.zeta_and_deriv(0.5 + 2e5j)

    def test_two_truncation_depths_agree(self):
        rng = np.random.default_rng(5)
        t = rng.uniform(10, 1000, 100)
        s = 0.5 + 1j * t
        z1, _ = _em_at(s, 1600)
        z2, _ = _em_at(s, 2400)
        assert np.max(np.abs(z1 - z2)) < 1e-10

    def test_deriv_vs_central_difference(self):
        rng = np.random.default_rng(6)
        t = rng.uniform(10, 500, 50)
        s = 0.5 + 1j * t
        _, dz = specfun.zeta_and_deriv(s)
        h = 1e-5
        zp, _ = specfun.zeta_and_deriv(s + h)
        zm, _ = specfun.zeta_and_deriv(s - h)
        fd = (zp - zm) / (2 * h)
        assert np.max(np.abs(dz - fd)) < 1e-6

    def test_matches_mpmath_on_critical_line(self):
        for t in (14.1347251, 101.3, 1003.7):
            z, dz = specfun.zeta_and_deriv(0.5 + 1j * t)
            ref_z = complex(mp.zeta(mp.mpc(0.5, t)))
            ref_dz = complex(mp.zeta(mp.mpc(0.5, t), derivative=1))
            assert abs(z - ref_z) < 1e-9
            assert abs(dz - ref_dz) < 1e-9

    def test_zeta_prime_at_zeros_matches_mpmath(self, zeros_5000):
        gammas = zeros_5000.gammas[np.linspace(0, len(zeros_5000.gammas) - 1, 60).astype(int)]
        _, dz = specfun.zeta_and_deriv(0.5 + 1j * gammas)
        ref = np.array([complex(mp.zeta(mp.mpc(0.5, float(g)), derivative=1)) for g in gammas])
        assert np.max(np.abs(dz - ref)) < 6e-11

    def test_arg_zeta_prime_is_pi_s_at_every_zero(self, zeros_5000):
        # arg zeta'(rho_n) = pi S(gamma_n) = pi (n - 3/2) - theta(gamma_n) (mod 2 pi):
        # a wrong table entry, or a wrong count, shows at the zero it touches
        gammas = zeros_5000.gammas
        _, dz = specfun.zeta_and_deriv(0.5 + 1j * gammas)
        n = np.arange(1, len(gammas) + 1)
        gap = np.angle(dz) - (np.pi * (n - 1.5) - specfun.riemann_siegel_theta(gammas))
        assert np.max(np.abs(np.mod(gap + np.pi, 2 * np.pi) - np.pi)) < 1e-9


class TestEulerMaclaurinDepth:
    def test_coefficients_are_bernoulli_ratios(self):
        for j in range(1, 31):
            ref = mp.bernoulli(2 * j) / mp.factorial(2 * j)
            assert abs(specfun._EM_COEFFS[j - 1] - ref) <= 1e-15 * abs(ref)

    def test_depth_at_default_truncation(self):
        for t in np.geomspace(2.0, 1e5, 300):
            m_cut = 30 + math.ceil(t / math.pi)
            assert specfun._em_depth(abs(0.5 + 1j * t), 0.5, m_cut) <= 30

    def test_short_truncation_raises(self):
        with pytest.raises(CapabilityError):
            specfun._em_depth(abs(0.5 + 1000j), 0.5, 50)

    def test_default_truncation_matches_four_times_deeper(self):
        t = np.random.default_rng(8).uniform(10.0, 1e4, 200)
        s = 0.5 + 1j * t
        z, dz = specfun.zeta_and_deriv(s)
        z4, dz4 = _em_at(s, 4 * (30 + math.ceil(t.max() / math.pi)))
        # beyond 1e-12, each main sum rounds its phases t log m: ~eps t log t
        rounding = 4 * np.finfo(float).eps * t * np.log(t)
        assert np.all(np.abs(z - z4) < 1e-12 + rounding)
        assert np.all(np.abs(dz - dz4) < 1e-12 + rounding * np.log(t))


def _em_at(s, m_cut):
    """(zeta, zeta') on a 1-D array s by Euler-Maclaurin at a fixed cutoff M."""
    depth = specfun._em_depth(float(np.abs(s).max()), float(s.real.min()), m_cut)
    return specfun._euler_maclaurin(s, m_cut, depth, want_deriv=True)


def _rounding_bound(s, m_cut):
    """Each route rounds the phase t log n of every term, so two routes to the main
    sums differ by up to (1e-12 + 4 eps t log t) sum_{n<M} |n^{-s}|, and by log M
    times that for the log n-weighted derivative sum."""
    t = np.maximum(np.abs(np.imag(s)), 2.0)
    moduli = np.exp(-np.multiply.outer(np.real(s), np.log(np.arange(1, m_cut)))).sum(axis=-1)
    bound = (1e-12 + 4 * np.finfo(float).eps * t * np.log(t)) * moduli
    return bound, bound * math.log(max(m_cut, 3))


class TestMainSumTable:
    @pytest.mark.parametrize("sigma", [-1.5, 0.0, 0.5, 2.0])
    def test_matches_one_exp_per_term(self, sigma):
        s = sigma + 1j * np.array([0.0, 3.7, 141.3, 2718.0, 31415.9, 1e5])
        for m_cut in (2, 3, 4, 31, 30 + math.ceil(1e5 / math.pi)):
            z, dz = specfun._main_sums(s, m_cut, want_deriv=True)
            ref_z, ref_dz = em_main_sums(s, m_cut)
            bound_z, bound_dz = _rounding_bound(s, m_cut)
            assert np.all(np.abs(z - ref_z) <= bound_z)
            assert np.all(np.abs(dz - ref_dz) <= bound_dz)

    def test_shapes_are_kept(self):
        z, dz = specfun.zeta_and_deriv(0.5 + 14.1j)
        assert isinstance(z, complex) and isinstance(dz, complex)
        assert specfun.zeta_and_deriv(np.empty(0))[1].shape == (0,)
        assert specfun._main_sums(np.empty(0, dtype=complex), 31, want_deriv=True).shape == (2, 0)
        s = 0.5 + 1j * np.arange(10.0, 16.0).reshape(2, 3)
        assert specfun.zeta_only(s).shape == (2, 3)
        z, dz = specfun.zeta_and_deriv(s)
        flat_z, flat_dz = specfun.zeta_and_deriv(s.ravel())
        assert np.array_equal(z.ravel(), flat_z) and np.array_equal(dz.ravel(), flat_dz)
        assert specfun._main_sums(s.ravel(), 31, want_deriv=False).shape == (1, 6)

    def test_chunked_call_equals_its_pieces(self):
        # near t = 1e5 a chunk's table holds at most 131 points: the first chunk
        # takes 2^22 // (M(t_255) - 1) = 133, the second 2^22 // (M(1e5) - 1) = 131
        s = 0.5 + 1j * np.linspace(9e4, 1e5, 300)
        assert s.size > specfun._TABLE_ENTRIES // (specfun._cutoff(1e5) - 1)
        z, dz = specfun.zeta_and_deriv(s)
        pieces = [specfun.zeta_and_deriv(s[lo:hi]) for lo, hi in ((0, 133), (133, 264), (264, 300))]
        assert np.array_equal(z, np.concatenate([p[0] for p in pieces]))
        assert np.array_equal(dz, np.concatenate([p[1] for p in pieces]))

    def test_low_points_keep_their_own_cutoff(self):
        # a chunk's cutoff comes from its own highest point, not the call's
        rng = np.random.default_rng(9)
        t = rng.permutation(np.concatenate((rng.uniform(10.0, 1e3, 300), rng.uniform(9e4, 1e5, 300))))
        s = 0.5 + 1j * t
        z, dz = specfun.zeta_and_deriv(s)
        low = np.argsort(t)[:256]
        z_low, dz_low = specfun.zeta_and_deriv(s[low])
        assert np.array_equal(z[low], z_low) and np.array_equal(dz[low], dz_low)

    def test_point_order_does_not_change_values(self):
        rng = np.random.default_rng(10)
        s = rng.uniform(-1.0, 2.0, 700) + 1j * np.sort(rng.uniform(2.0, 2e4, 700))
        perm = rng.permutation(s.size)
        z, dz = specfun.zeta_and_deriv(s)
        z_perm, dz_perm = specfun.zeta_and_deriv(s[perm])
        assert np.array_equal(z_perm, z[perm]) and np.array_equal(dz_perm, dz[perm])

    def test_spf_omega_matches_factorize(self):
        spf, omega = specfun._spf_omega(5000)
        for n in range(2, 5000):
            factors = arithmetic.factorize(n)
            assert spf[n] == min(factors) and omega[n] == sum(factors.values())


# --------------------------------------------------------------------- hardy Z


class TestHardyZ:
    def test_zero_at_first_zero(self):
        assert abs(specfun.hardy_z(14.1347251)) < 1e-6

    def test_modulus_identity(self):
        z, _ = specfun.zeta_and_deriv(0.5 + 20j)
        assert abs(specfun.hardy_z(20.0)) == pytest.approx(abs(z), abs=1e-9)

    def test_sign_change_on_14_15(self):
        assert specfun.hardy_z(14.0) * specfun.hardy_z(15.0) < 0


class TestHardyZRiemannSiegel:
    def test_within_gabcke_bound_of_euler_maclaurin(self):
        t = np.sort(np.random.default_rng(11).uniform(200.0, 1e4, 200))
        z_rs, bound = specfun.hardy_z_rs(t)
        assert z_rs.shape == bound.shape == t.shape
        assert np.all(np.abs(z_rs - specfun.hardy_z(t)) <= bound)

    def test_scalar(self):
        z_rs, bound = specfun.hardy_z_rs(1000.0)
        assert isinstance(z_rs, float) and isinstance(bound, float)
        assert abs(z_rs - specfun.hardy_z(1000.0)) <= bound

    def test_c0_series_matches_closed_form(self):
        # the series replaces cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p), which is 0/0 at p = 1/4, 3/4
        p = np.linspace(0.0, 1.0, 2001)
        p = p[np.abs(np.cos(2 * np.pi * p)) > 0.05]
        series = np.polynomial.polynomial.polyval((1 - 2 * p) ** 2, specfun._RS_C0)
        closed = np.cos(2 * np.pi * (p * p - p - 1 / 16)) / np.cos(2 * np.pi * p)
        assert np.max(np.abs(series - closed)) < 1e-13

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.hardy_z_rs(np.array([150.0, 300.0]))


# ------------------------------------------------------------------- constants


def test_stieltjes_constants_validated():
    g0, g1 = stieltjes_oracle()
    assert abs(g0 - specfun.GAMMA0) < 1e-12
    assert abs(g1 - specfun.GAMMA1) < 1e-12
    # external oracle agreement
    assert abs(g0 - float(mp.stieltjes(0))) < 1e-13
    assert abs(g1 - float(mp.stieltjes(1))) < 1e-13
