import cmath
import functools
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from oracles import em_corrections_loop, em_depth_loop, em_main_sums, riemann_siegel_chunked
from zetalab import arithmetic, specfun
from zetalab.errors import CapabilityError, DomainError, PoleError

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


# -------------------------------------------------------------- log_gamma_ratio


def log_gamma(z):
    """log Gamma(z) as the one routine gives it: log Gamma(2) = 0."""
    return specfun.log_gamma_ratio(2.0, complex(z) - 2.0)


class TestLogGamma:
    def test_gamma_two_is_exactly_one(self):
        assert specfun.log_gamma_ratio(2, 0) == 0

    def test_gamma_one(self):
        assert abs(log_gamma(1.0)) < 1e-14

    def test_gamma_half(self):
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-13)

    def test_gamma_four(self):
        assert log_gamma(4.0) == pytest.approx(math.log(6.0), abs=1e-13)

    @pytest.mark.parametrize("z", [0.0, -1.0, -7.0])
    def test_pole_error(self, z):
        # a factor z + a = 0 on the way up is log 0
        with pytest.raises(ValueError):
            log_gamma(z)

    def test_recurrence_on_random_grid(self):
        rng = np.random.default_rng(2024)
        z = rng.uniform(-8, 8, 60) + 1j * rng.uniform(-8, 8, 60)
        z = z[np.abs(z.imag) > 1e-3]  # stay off the cut and the poles
        lhs = np.array([log_gamma(x + 1) for x in z])
        rhs = np.array([log_gamma(x) for x in z]) + np.log(z)
        assert np.max(np.abs(lhs - rhs) / np.abs(lhs)) < 1e-12

    def test_reflection_on_random_grid(self):
        rng = np.random.default_rng(99)
        z = rng.uniform(-6, 6, 50) + 1j * rng.uniform(0.05, 6, 50)
        product = np.exp([log_gamma(x) + log_gamma(1 - x) for x in z])
        expected = np.pi / np.sin(np.pi * z)
        assert np.max(np.abs(product - expected) / np.abs(expected)) < 1e-12

    def test_matches_mpmath(self):
        # off the real axis the factors' arguments sum to the principal branch
        for z in (0.25 + 7.0673626j, 3.5 - 2j, -2.5 + 0.5j, 1e4 + 1e4j, 0.25 + 10j, 5 - 12j, 0.25 + 2500j):
            ours = log_gamma(z)
            ref = complex(mp.loggamma(mp.mpc(z)))
            assert abs(ours - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_reciprocal_gamma_matches_mpmath(self):
        # 1/Gamma(k + 2) = exp(-log_gamma_ratio(2, k)) over Re k in (-3, 20],
        # |Im k| <= 30, and near the real axis on (-3, -1), where Gamma(k + 2)
        # has its poles at -1 and 0; the worst recorded is 2.4e-14, at
        # k = 19.6 - 25.0i
        rng = np.random.default_rng(30)
        ks = np.concatenate(
            [
                rng.uniform(-3, 20, 426) + 1j * rng.uniform(-30, 30, 426),
                rng.uniform(-3, -1, 200) + 1j * rng.uniform(-1e-3, 1e-3, 200),
            ]
        )
        worst = 0.0
        with mp.workdps(40):
            for k in ks:
                ours = cmath.exp(-specfun.log_gamma_ratio(2.0, complex(k)))
                ref = mp.rgamma(mp.mpc(k) + 2)
                worst = max(worst, float(abs(ours - ref) / abs(ref)))
        assert worst <= 5e-14

    def test_quotient_matches_mpmath(self):
        # Gamma(z + a)/Gamma(z) at large z, where each log Gamma is of size
        # z log z and only the difference is small; worst recorded 1.5e-15
        for z, a in ((1.0, 0.5), (10.0, -0.25 + 3j), (513.0, 1 + 1j), (1e6 + 1, -2.5 + 0.5j)):
            ours = cmath.exp(specfun.log_gamma_ratio(z, a))
            with mp.workdps(40):
                ref = mp.gamma(mp.mpf(z) + mp.mpc(a)) / mp.gamma(mp.mpf(z))
                assert abs(ours - ref) <= 1e-14 * abs(ref), (z, a)


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
        # E1 is taken on the closed right half-plane only; Re z = -0.0 is on
        # it, as the hybrid lattice i(v + 2 pi j) log X gives it for negative v
        for z in (0.0, -2.0, -1e-300 + 1j, np.array([1.0, 5j, -0.5 + 3j])):
            with pytest.raises(DomainError):
                specfun.exp_integral_e1(z)
        for y in (0.5, 5.0):
            assert specfun.exp_integral_e1(complex(-0.0, y)) == specfun.exp_integral_e1(complex(0.0, y))
            assert specfun.exp_integral_e1(complex(-0.0, -y)) == specfun.exp_integral_e1(complex(0.0, -y))

    @pytest.mark.parametrize("lo, hi", [(1e-6, 1e4), (4.01, 1e4), (1e-6, 3.99)],
                             ids=["both-routes", "fraction-only", "series-only"])
    def test_array_equals_each_point_alone(self, lo, hi):
        # one sort by |z| orders both routes, so a shuffled 2-D array gives
        # every point the value it takes alone, bit for bit, also when it holds
        # points of one route only; every seventh point is on the imaginary
        # axis, with Re z = -0.0 below it, as on the hybrid lattice.  Alone
        # means as the pair [w, w]: on a single element numpy's in-place
        # complex multiply skips the fused multiply-add of its vector loop, so
        # a 0-d call can differ from any array call in the series' last bits
        rng = np.random.default_rng(17)
        r = np.exp(rng.uniform(math.log(lo), math.log(hi), 240))
        z = r * np.exp(1j * rng.uniform(-math.pi / 2, math.pi / 2, r.size))
        z[::7] = 1j * (r[::7] * rng.choice([-1.0, 1.0], z[::7].size))
        z = z.reshape(12, 20)
        assert ((np.abs(z) < 4.0).any(), (np.abs(z) >= 4.0).any()) == (lo < 4.0, hi > 4.0)
        ours = specfun.exp_integral_e1(z)
        assert ours.shape == (12, 20)
        alone = np.array([specfun.exp_integral_e1(np.array([w, w]))[0] for w in z.ravel()]).reshape(z.shape)
        assert np.array_equal(ours.view(float), alone.view(float))

    def test_empty_array(self):
        assert specfun.exp_integral_e1(np.array([])).shape == (0,)

    def test_regime_agreement_on_crossover_ring(self):
        # series vs the production large-|z| path on |z| in [3, 6], |arg| <= pi/2
        rng = np.random.default_rng(7)
        r = rng.uniform(3.0, 6.0, 120)
        phi = np.concatenate([rng.uniform(-math.pi / 2, math.pi / 2, 116), [math.pi / 2, -math.pi / 2] * 2])
        z = r * np.exp(1j * phi)
        production = specfun.exp_integral_e1(z)
        series = np.array([specfun._e1_series(np.array([w]), 80)[0] for w in z])
        assert np.max(np.abs(production - series)) < 1e-12

    def test_matches_mpmath_across_regimes(self):
        for z in (0.5 + 0.1j, 3.9j, 4.1j, 8.0 + 1.0j, 0.8 - 4.0j, 25j, 2.0 + 10j, complex(-0.0, -10.0)):
            ours = specfun.exp_integral_e1(z)
            ref = complex(mp.e1(mp.mpc(z)))
            assert abs(ours - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_fraction_matches_mpmath_in_sector(self):
        # 4 <= |z| <= 1e4 on the half-plane |arg z| <= pi/2, with the rings
        # where the depth is largest (|z| just above 4) and where the
        # fraction's rule gains its two extra steps (38-110), and the edges;
        # beyond |Re z| = 700 e^{-z} leaves the double range, so those draws
        # are dropped.  The worst relative error measured is 4.5e-16
        rng = np.random.default_rng(13)
        r = np.concatenate([rng.uniform(4.0, 4.3, 50), rng.uniform(38.0, 110.0, 100),
                            np.exp(rng.uniform(math.log(4.0), math.log(1e4), 300)),
                            [4.0, 4.0, 40.0, 40.0, 1000.0, 1000.0, 1e4, 1e4]])
        phi = np.concatenate([rng.uniform(-math.pi / 2, math.pi / 2, 450), [math.pi / 2, -math.pi / 2] * 3,
                              [1.5, -1.2]])
        z = r * np.exp(1j * phi)
        z = z[np.abs(z.real) < 700.0]
        assert z.size > 350 and np.abs(z).max() > 5e3
        ours = specfun.exp_integral_e1(z)
        ref = np.array([complex(mp.e1(mp.mpc(w))) for w in z])
        assert np.all(np.abs(ours - ref) <= 1e-13 * np.abs(ref))

    def test_series_near_zero_and_four_matches_mpmath(self):
        # the per-point series stays within the 64-term series' own error: its
        # cancellation near |z| = 4 reaches 1.8e-15, and the two differ by at
        # most 2.5e-16 (measured); at |z| = 1e-300, E1 is about 690
        rng = np.random.default_rng(21)
        r = np.concatenate([np.exp(rng.uniform(math.log(1e-8), math.log(1e-2), 100)),
                            rng.uniform(3.5, 4.0, 100), [4.0 - 2.0**-50, 1e-300]])
        phi = np.concatenate([rng.uniform(-math.pi / 2, math.pi / 2, r.size - 4), [math.pi / 2, -math.pi / 2] * 2])
        z = r * np.exp(1j * phi)
        ours = specfun.exp_integral_e1(z)
        ref = np.array([complex(mp.e1(mp.mpc(w))) for w in z])
        assert np.all(np.abs(ours - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))
        assert np.all(np.abs(ours - specfun._e1_series(z, 64)) <= 1e-15 * np.maximum(1.0, np.abs(ref)))

    def test_series_terms_grow_with_modulus(self):
        r = np.geomspace(1e-300, 4.0 - 2.0**-50, 400)
        terms = specfun._e1_series_terms(r)
        assert np.all(np.diff(terms) >= 0) and terms[-1] == 29
        # entry n - 1 of the reach table is where 2 |z|^n / ((n+1)! (n+1)) = 2^-53
        reach = specfun._E1_SERIES_REACH
        bound = [2 * mp.mpf(x) ** n / (mp.factorial(n + 1) * (n + 1)) for n, x in enumerate(reach, start=1)]
        assert all(abs(b / mp.mpf(2) ** -53 - 1) < 1e-12 for b in bound)
        assert np.all(np.diff(reach) > 0) and reach[-2] < 4.0 <= reach[-1]

    def test_depths_fall_with_modulus(self):
        r = np.geomspace(4.0, 1e4, 400)
        depth = specfun._e1_depth(r)
        assert depth[0] == 82 and depth[-1] == 3 and np.all(np.diff(depth) <= 0)

    def test_depth_reaches_double_precision_at_sector_edge(self):
        # the fraction at the rule's depth, in exact arithmetic, against E1 at
        # |arg z| = 2, where its truncation error is largest: within 2^-53
        # relative, so the rule gives at least the fewest depth that works
        with mp.workdps(40):
            for x in np.geomspace(4.0, 1000.0, 60):
                z = mp.mpf(x) * mp.expj(2)
                depth = int(specfun._e1_depth(np.array([x]))[0])
                t = z + 2 * depth + 1
                for i in range(depth, 0, -1):
                    t = z + 2 * i - 1 - i * i / t
                ref = mp.e1(z)
                assert abs(mp.exp(-z) / t - ref) <= mp.mpf(2) ** -53 * abs(ref), x


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

    def test_series_matches_mpmath(self):
        # from the floor t = 7 on, through g_{-1} = 9.67 and the first zero
        t = np.concatenate([[7.0, 7.001, 9.6669080561, 14.1347251], np.geomspace(7.0, 1e5, 60)])
        ref = np.array([float(mp.siegeltheta(x)) for x in t])
        assert np.all(np.abs(specfun.riemann_siegel_theta(t) - ref) <= 1e-15 * np.abs(ref) + 2e-13)

    @pytest.mark.parametrize("name", ["riemann_siegel_theta", "hardy_z", "riemann_siegel_z"])
    @pytest.mark.parametrize("t", [2.0, 4.5, 6.999])
    def test_floor_at_7(self, name, t):
        with pytest.raises(DomainError, match=f"{name} requires t >= 7"):
            getattr(specfun, name)(t)

    def test_series_keeps_its_stokes_term(self):
        # without e^{-pi t}/2 the series is 2.6e-13 off at t = 9
        t = np.array([7.0, 8.0, 9.0, 10.0])
        ref = np.array([float(mp.siegeltheta(x)) for x in t])
        assert np.max(np.abs(specfun._theta_series(t) - ref)) < 2e-15

    def test_derivative_matches_mpmath(self):
        t = np.geomspace(7.0, 1e5, 16)
        ref = np.array([float(mp.diff(mp.siegeltheta, x)) for x in t])
        assert np.max(np.abs(specfun._theta_prime(t) - ref)) < 2e-15


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
        with pytest.raises(CapabilityError, match=r"supports Re s >= 0 \(got -100\)"):
            specfun.zeta_and_deriv(-100 + 10j)

    def test_left_of_zero_is_refused(self):
        # the terms n^{-s} grow and cancel there: zeta(-5) by this sum is 3.4e-5 off
        for s in (-5.0, -1e-9 + 14j, -1.5 + 3e4j, -3 + 2000j, -5 + 500j):
            for route in (specfun.zeta_and_deriv, functools.partial(specfun._zeta_em, want_deriv=False)):
                with pytest.raises(CapabilityError) as info:
                    route(np.array([0.5 + 10j, s]))
                assert "\n" not in str(info.value)

    def test_right_half_plane_matches_mpmath(self):
        # the default cutoff M finds a depth everywhere on Re s >= 0; measured
        # 2.5e-13 relative at worst, and 4.4e-12 absolute where |zeta'| is large
        t = np.concatenate([[0.0, 0.3], np.linspace(1.0, 300.0, 23)])
        for sigma in (0.0, 0.25, 0.5, 1.0, 2.0):
            s = (sigma + 1j * t)[int(sigma == 1.0):]  # not the pole at s = 1
            z, dz = specfun.zeta_and_deriv(s)
            ref_z = np.array([complex(mp.zeta(mp.mpc(x.real, x.imag))) for x in s])
            ref_dz = np.array([complex(mp.zeta(mp.mpc(x.real, x.imag), derivative=1)) for x in s])
            assert np.all(np.abs(z - ref_z) <= 1e-12 * np.maximum(1.0, np.abs(ref_z))), sigma
            assert np.all(np.abs(dz - ref_dz) <= 1e-12 * np.maximum(1.0, np.abs(ref_dz))), sigma

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

    def test_matches_loop_over_p(self):
        # the same p as walking p up one step at a time, on a grid of |s|,
        # Re s and M that includes s = 0, the skipped p left of the line, and
        # M too short for any depth
        checked = refused = 0
        for s_abs in np.concatenate([[0.0, 0.5, 1.0, 3.0], np.geomspace(5.0, 1e5, 40)]):
            for sigma in (-5.0, -2.5, -0.3, 0.0, 0.5, 1.0, 2.0, 4.0):
                if abs(sigma) > s_abs:
                    continue
                base = 30 + math.ceil(s_abs / math.pi)
                for m_cut in (3, 10, base // 4 + 2, base // 2 + 2, base, 2 * base, 4 * base):
                    ref = em_depth_loop(s_abs, sigma, m_cut)
                    if ref is None:
                        refused += 1
                        with pytest.raises(CapabilityError):
                            specfun._em_depth(s_abs, sigma, m_cut)
                    else:
                        checked += 1
                        assert specfun._em_depth(s_abs, sigma, m_cut) == ref, (s_abs, sigma, m_cut)
        assert checked > 1000 and refused > 100

    def test_chunk_depth_is_the_largest_point_depth(self):
        # a chunk of points gets the largest of their own depths, and is
        # refused only where one of them is; the points pair large and small
        # |s| with small and large Re s, so that no corner of the chunk is a point
        rng = np.random.default_rng(19)
        checked = refused = 0
        for _ in range(300):
            size = int(rng.integers(1, 9))
            sigma = rng.choice([-0.3, 0.0, 0.5, 1.0, 4.0, 30.0, 1000.0], size)
            s_abs = np.abs(sigma) + np.exp(rng.uniform(0.0, math.log(1e4), size))
            m_cut = int(rng.choice([10, 30, 100, 1000]))
            refs = [em_depth_loop(a, b, m_cut) for a, b in zip(s_abs, sigma)]
            if None in refs:
                refused += 1
                with pytest.raises(CapabilityError):
                    specfun._em_depth(s_abs, sigma, m_cut)
            else:
                checked += 1
                assert specfun._em_depth(s_abs, sigma, m_cut) == max(refs), (s_abs, sigma, m_cut)
        assert checked > 100 and refused > 30

    def test_mixed_chunk_matches_lone_points(self):
        # each pair shares its lone points' cutoff (M = 30 and 62), which is
        # too short for the larger |s| at the smaller Re s; no point has both
        for pair in ([0.0, 1000.0], [100j, 1000.0 + 100j]):
            z, dz = specfun.zeta_and_deriv(np.array(pair))
            for i, point in enumerate(pair):
                z1, dz1 = specfun.zeta_and_deriv(point)
                assert abs(z[i] - z1) <= 1e-15 * abs(z1) and abs(dz[i] - dz1) <= 1e-15 * abs(dz1)

    @pytest.mark.parametrize("sigma", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("height", [0.0, 1e5])
    def test_one_pass_corrections_match_loop(self, sigma, height):
        # every depth the chunks can take, at s = sigma and s = sigma + 1e5 i;
        # measured: 5.6e-16 relative at worst
        s = np.array([sigma + 1j * height])
        m_cut = 30 + math.ceil(height / math.pi)
        for depth in range(specfun._EM_MAX_DEPTH + 1):
            corr, dcorr = specfun._em_corrections(s, m_cut, depth, want_deriv=True)
            ref, dref = em_corrections_loop(s, m_cut, depth)
            assert np.all(np.abs(corr - ref) <= 2e-15 * np.abs(ref)), depth
            assert np.all(np.abs(dcorr - dref) <= 2e-15 * np.abs(dref)), depth
            assert np.array_equal(specfun._em_corrections(s, m_cut, depth, want_deriv=False)[0], corr)

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
    depth = specfun._em_depth(np.abs(s), s.real, m_cut)
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
        assert specfun._zeta_em(s, want_deriv=False)[0].shape == (2, 3)
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
        s = rng.uniform(0.0, 2.0, 700) + 1j * np.sort(rng.uniform(2.0, 2e4, 700))
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

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.hardy_z(1.0)


class TestHardyZEmError:
    def test_covers_euler_maclaurin_at_stored_zeros(self, stored_table_5000):
        # 12 stored zeros from 1000 to 5000 in one call, so each chunk takes the
        # cutoff of T = 5000; measured error / eta: at most 0.07 for Z, 0.05 for Z'
        t = stored_table_5000[np.linspace(650, 4519, 12).astype(int)]
        zeta, zeta_prime = specfun.zeta_and_deriv(0.5 + 1j * t)
        rot = np.exp(1j * specfun.riemann_siegel_theta(t))
        z = np.real(rot * zeta)
        slope = -np.imag(rot * (specfun._theta_prime(t) * zeta + zeta_prime))
        eta_0, eta_1 = specfun.hardy_z_em_error(t)
        with mp.workdps(25):
            ref = np.array([[float(mp.siegelz(x, derivative=d)) for d in (0, 1)] for x in t])
        assert np.all(np.abs(z - ref[:, 0]) <= eta_0)
        assert np.all(np.abs(slope - ref[:, 1]) <= eta_1)

    def test_grows_as_t_log_m(self):
        # 3 eps t log M plus the 1e-15 remainder: 3.66e-12 at t = 1000
        eta_0, eta_1 = specfun.hardy_z_em_error(np.array([1000.0, 1e4]))
        m = 30.0 + np.ceil(np.array([1000.0, 1e4]) / math.pi)
        assert eta_0 == pytest.approx(1e-15 + 3 * np.finfo(float).eps * np.array([1000.0, 1e4]) * np.log(m))
        assert np.all(eta_1 > 5 * eta_0)


class TestCutoffRule:
    _T = np.array([15.0, 100.0, 999.9, 1000.0, 5000.0, 1e4])

    def test_bounds_take_the_cutoff_of_the_sums(self, monkeypatch):
        # the stated bound reads M from _cutoff: a change to the cutoff moves
        # it, and under it the bound still comes to its own M
        eta_0, eta_1 = specfun.hardy_z_em_error(self._T)
        real = specfun._cutoff
        monkeypatch.setattr(specfun, "_cutoff", lambda t: 2.0 * real(t))
        moved_0, moved_1 = specfun.hardy_z_em_error(self._T)
        assert np.all(moved_0 > eta_0) and np.all(moved_1 > eta_1)
        m = 2.0 * (30.0 + np.ceil(self._T / math.pi))
        assert np.array_equal(moved_0, specfun._EM_TOL + 3 * np.finfo(float).eps * self._T * np.log(m))

    def test_cutoff_as_the_sums_took_it(self):
        # bit for bit the rule each chunk used: 30 + ceil(t/pi), also for an array
        assert np.array_equal(specfun._cutoff(self._T), [30 + math.ceil(t / math.pi) for t in self._T])
        assert specfun._cutoff(1000.0) == 349


class TestHardyZRiemannSiegel:
    def test_within_gabcke_bound_of_euler_maclaurin(self):
        # log-uniform over the whole range; measured error / bound <= 0.015
        t = np.sort(np.exp(np.random.default_rng(11).uniform(math.log(200.0), math.log(1e5), 300)))
        z_rs, bound = specfun.hardy_z_rs(t)
        assert z_rs.shape == bound.shape == t.shape
        assert np.all(np.abs(z_rs - specfun.hardy_z(t)) <= 0.05 * bound)

    def test_sum_predicts_z_below_200(self):
        # no bound holds there, but the C4 sum is still close enough to aim at roots
        for lo, hi, tol in ((10.0, 20.0, 1.5e-5), (50.0, 200.0, 3e-7)):
            t = np.linspace(lo, hi, 200)
            assert np.max(np.abs(specfun.riemann_siegel_z(t) - specfun.hardy_z(t))) <= tol

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
        with pytest.raises(DomainError):
            specfun.riemann_siegel_z(np.array([6.0, 300.0]))

    def test_point_alone_matches_its_call(self, stored_table_5000):
        # 2,048 points whose sums run from 21 to 28 terms: each point alone
        # gives the same bits as inside the call
        t = stored_table_5000[stored_table_5000 > 200.0][-2048:] + 0.25
        z_rs, _ = specfun.hardy_z_rs(t)
        for i in np.random.default_rng(46).choice(t.size, 46, replace=False):
            assert specfun.hardy_z_rs(t[i])[0] == z_rs[i], t[i]


class TestRiemannSiegelKernel:
    """The row-block kernel over sorted points against the chunked one, bit for bit."""

    @staticmethod
    def _sets(stored_table_5000):
        rng = np.random.default_rng(31)
        return {
            "stored table": stored_table_5000,
            "shuffled to 1e5": np.exp(rng.uniform(math.log(7.0), math.log(1e5), 20000)),
            "near 1e8": 1e8 + rng.uniform(0.0, 50.0, 64),
            # one block holds every row
            "8 in [5000, 5010]": rng.uniform(5000.0, 5010.0, 8),
            "one near 1e8": np.array([1e8 + 17.25]),
            # rows start inside a block
            "log-uniform on [200, 2e4]": np.exp(rng.uniform(math.log(200.0), math.log(2e4), 300)),
        }

    @pytest.mark.parametrize("name", ["stored table", "shuffled to 1e5", "near 1e8", "8 in [5000, 5010]",
                                      "one near 1e8", "log-uniform on [200, 2e4]"])
    def test_bit_identical_to_chunked_kernel(self, stored_table_5000, name):
        t = self._sets(stored_table_5000)[name]
        assert np.array_equal(specfun._riemann_siegel(t, False), riemann_siegel_chunked(t, False))
        theta, z_prime = specfun._riemann_siegel(t, True)
        theta_ref, z_prime_ref = riemann_siegel_chunked(t, True)
        assert np.array_equal(theta, theta_ref) and np.array_equal(z_prime, z_prime_ref)

    def test_shuffled_input_gives_shuffled_output(self, stored_table_5000):
        t = stored_table_5000
        perm = np.random.default_rng(32).permutation(t.size)
        assert np.array_equal(specfun.riemann_siegel_z(t[perm]), specfun.riemann_siegel_z(t)[perm])
        assert np.array_equal(specfun.zeta_prime_at_zeros(t[perm]), specfun.zeta_prime_at_zeros(t)[perm])

    def test_empty_and_low_inputs(self):
        empty = np.array([])
        assert specfun.riemann_siegel_z(empty).shape == (0,)
        z_rs, bound = specfun.hardy_z_rs(empty)
        assert z_rs.shape == bound.shape == (0,)
        zp = specfun.zeta_prime_at_zeros(empty)
        assert zp.shape == (0,) and zp.dtype == complex
        low = np.array([14.134725141734695, 21.022039638771556, 150.92525761224147])
        assert np.array_equal(specfun.riemann_siegel_z(low), riemann_siegel_chunked(low, False))
        assert np.array_equal(specfun.zeta_prime_at_zeros(low), specfun.zeta_and_deriv(0.5 + 1j * low)[1])

    def test_2d_input_keeps_its_shape(self, stored_table_5000):
        t = stored_table_5000[:4500]
        grid = t.reshape(90, 50)
        assert np.array_equal(specfun.riemann_siegel_z(grid), specfun.riemann_siegel_z(t).reshape(90, 50))
        high = stored_table_5000[-4000:].reshape(40, 100)
        z_rs, bound = specfun.hardy_z_rs(high)
        assert z_rs.shape == bound.shape == (40, 100)
        zp = specfun.zeta_prime_at_zeros(grid)
        assert np.array_equal(zp, specfun.zeta_prime_at_zeros(t).reshape(90, 50))

    def test_memory_bounded_by_the_block(self):
        # 1,024 points of 3,990 terms: one padded (terms x points) table was
        # 33 MB a temporary; every row block is taken in one reused work buffer
        # of max(_RS_BLOCK, points) floats, 128 KB here (peak 0.47 MB in all)
        t = 1e8 + np.random.default_rng(33).uniform(0.0, 100.0, 1024)
        tracemalloc.start()
        try:
            specfun.riemann_siegel_z(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestZetaPrimeAtZeros:
    def test_matches_euler_maclaurin_at_every_stored_zero(self, stored_table_5000):
        g = stored_table_5000
        ref = specfun.zeta_and_deriv(0.5 + 1j * g)[1]
        err = np.abs(specfun.zeta_prime_at_zeros(g) - ref)
        assert err.max() <= 3e-10
        assert np.max(err / np.abs(ref)) <= 1e-10

    def test_z_prime_matches_mpmath(self):
        t = np.array([203.0, 260.0, 410.0, 870.0, 1600.0, 3100.0, 6200.0, 9900.0])
        theta, z_prime = specfun._riemann_siegel(t, want_deriv=True)
        ref = np.array([float(mp.siegelz(x, derivative=1)) for x in t])
        # the truncation after C4 shows below 300; above, the rounding of the phases
        assert np.all(np.abs(z_prime - ref) <= np.where(t < 300.0, 3e-10, 3e-11))
        assert np.array_equal(theta, specfun.riemann_siegel_theta(t))

    def test_c1_to_c4_match_closed_forms(self):
        # C_j from the derivatives of Psi = C0 in p (Gabcke's forms), away from
        # the removable singularities of the closed form at p = 1/4, 3/4
        pi = mp.pi

        def psi(p):
            return mp.cos(2 * pi * (p * p - p - mp.mpf(1) / 16)) / mp.cos(2 * pi * p)

        for p in (0.03, 0.17, 0.4, 0.5, 0.62, 0.88, 0.97):
            d = [c * mp.factorial(k) for k, c in enumerate(mp.taylor(psi, mp.mpf(p), 12))]
            closed = (
                -d[3] / (96 * pi**2),
                d[2] / (64 * pi**2) + d[6] / (18432 * pi**4),
                -d[1] / (64 * pi**2) - d[5] / (3840 * pi**4) - d[9] / (5308416 * pi**6),
                d[0] / (128 * pi**2) + 19 * d[4] / (24576 * pi**4) + 11 * d[8] / (5898240 * pi**6)
                + d[12] / (2038431744 * pi**8),
            )
            z = 1.0 - 2.0 * p
            for j, (coeffs, ref) in enumerate(zip(specfun._RS_C1_C4, closed), start=1):
                series = np.polynomial.polynomial.polyval(z * z, coeffs) * (z if j % 2 else 1.0)
                assert abs(series - float(ref)) < 1e-16

    def test_zeros_below_rs_t_min_go_to_euler_maclaurin(self, stored_table_5000):
        g = stored_table_5000
        low = g[g < specfun.RS_T_MIN]
        assert len(low) == 79
        out = specfun.zeta_prime_at_zeros(g)
        assert np.array_equal(out[: len(low)], specfun.zeta_and_deriv(0.5 + 1j * low)[1])

    def test_prefix_is_bit_identical_to_the_whole(self, stored_table_5000):
        # no value above RS_T_MIN depends on the other points: not on a chunk of
        # one point, nor on the longest main sum of its chunk
        g = stored_table_5000
        whole = specfun.zeta_prime_at_zeros(g)
        n_low = int(np.searchsorted(g, specfun.RS_T_MIN))
        for n in (n_low, n_low + 1, n_low + 2049, 1000, 3333):
            assert np.array_equal(specfun.zeta_prime_at_zeros(g[:n]), whole[:n])
        assert specfun.zeta_prime_at_zeros(g[2000]) == whole[2000]


# ------------------------------------------------------------------- constants


def test_stieltjes_constants_validated():
    g0, g1 = stieltjes_oracle()
    assert abs(g0 - specfun.GAMMA0) < 1e-12
    assert abs(g1 - specfun.GAMMA1) < 1e-12
    # external oracle agreement
    assert abs(g0 - float(mp.stieltjes(0))) < 1e-13
    assert abs(g1 - float(mp.stieltjes(1))) < 1e-13
