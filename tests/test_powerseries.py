"""The shared power series against mpmath oracles."""

import math

import mpmath
import numpy as np
import pytest

from zetalab import arithmetic, hybrid, powerseries


def _mp_exp_series(log_coeffs, n_terms):
    """exp(g) by the derivative recurrence n h_n = sum_j j g_j h_{n-j}, at 30 digits."""
    with mpmath.workdps(30):
        g = [mpmath.mpc(c) for c in log_coeffs]
        h = [mpmath.mpc(1)]
        for n in range(1, n_terms):
            h.append(sum((j + 1) * g[j] * h[n - 1 - j] for j in range(min(n, len(g)))) / n)
        return np.array([complex(v) for v in h])


class TestBinomialSeries:
    @pytest.mark.parametrize("a", [0.5 + 0.5j, -1.5 + 0.5j, 3 - 2j, -4.25 + 1j, 2.5])
    def test_against_mpmath_binomial(self, a):
        c = powerseries.binomial_series(a, 60)
        ref = np.array([complex((-1) ** j * mpmath.binomial(a, j)) for j in range(60)])
        assert np.max(np.abs(c - ref) / np.maximum(np.abs(ref), 1e-300)) < 1e-14

    def test_integer_exponents_are_exact(self):
        assert np.array_equal(powerseries.binomial_series(-2, 2000), np.arange(1, 2001))
        assert np.array_equal(powerseries.binomial_series(3, 6), [1, -3, 3, -1, 0, 0])


class TestExpSeriesAgainstRecurrence:
    @pytest.mark.parametrize("x", [math.e**3, math.e**4])
    @pytest.mark.parametrize("k", [2.0, 1 + 1j, -1.5 + 0.5j])
    def test_heine_factor_at_512(self, k, x, smoothing_y4):
        # e^{-S(w)} as es_comparison takes it
        params = hybrid.HybridParams(n=512, x_cutoff=x, smoothing=smoothing_y4)
        s = -hybrid.fourier_coeffs(k, params)
        h = powerseries.exp_series_coeffs(s, 512)
        ref = _mp_exp_series(s, 512)
        assert np.max(np.abs(h - ref)) < 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("k", [1.0, -1.0, 0.5 + 0.5j, 1 + 1j])
    def test_per_prime_tables(self, k):
        # the tables a_coeffs multiplies out: exp(sum_{j<=l} (k/j) z^j) to p^r <= 1e6
        for p in (2, 3, 5, 7):
            gen = [k / j for j in range(1, arithmetic._prime_power_limit(p, 30.0) + 1)]
            n_terms = arithmetic._prime_power_limit(p, 10**6) + 1
            h = powerseries.exp_series_coeffs(gen, n_terms)
            ref = _mp_exp_series(gen, n_terms)
            assert np.max(np.abs(h - ref)) < 1e-13 * np.max(np.abs(ref))
