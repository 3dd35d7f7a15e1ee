import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad

from oracles import within
from zetalab import hybrid, powerseries, rmt, toeplitz
from zetalab.errors import AdmissibilityError, DomainError


class TestExpTrigPolyCoeffs:
    """Taylor coefficients of exp(sum_m s_m z^m), the entire factor of the symbol."""

    def test_all_zero_gives_one(self):
        for s in (np.array([]), np.array([0j, 0j])):
            h = powerseries.exp_series_coeffs(s, 4)
            assert np.array_equal(h, [1.0 + 0j, 0j, 0j, 0j])

    def test_single_coefficient_is_exponential(self):
        c = 0.8 - 0.3j
        h = powerseries.exp_series_coeffs(np.array([c]), 30)
        expected = np.array([c**n / math.factorial(n) for n in range(len(h))])
        assert np.max(np.abs(h - expected)) < 1e-15

    def test_partial_sums_reproduce_exponential(self, params_x_e3):
        s = hybrid.fourier_coeffs(1.0, params_x_e3)
        h = powerseries.exp_series_coeffs(s, 60)
        v = 0.7
        series = sum(hn * np.exp(1j * n * v) for n, hn in enumerate(h))
        direct = np.exp(hybrid.F_X_poly(v, 1.0, params_x_e3))
        assert abs(series - direct) < 1e-10


class TestSymbolCoeffs:
    def test_fhat_minus1_is_minus_one(self, smoothing_y4):
        for k, x in ((1.0, math.e**2), (0.5 + 0.5j, math.e**3), (2.0, math.e**4)):
            params = hybrid.HybridParams(n=8, x_cutoff=x, smoothing=smoothing_y4)
            sc = toeplitz.symbol_coeffs(k, params, max_freq=8)
            assert sc[0] == pytest.approx(-1.0, abs=1e-14)

    def test_k0_symbol(self, params_x_e3):
        sc = toeplitz.symbol_coeffs(0, params_x_e3, max_freq=6)
        assert sc[1] == pytest.approx(2.0)
        assert sc[2] == pytest.approx(-1.0)
        assert sc[0] == pytest.approx(-1.0)
        for j in range(2, 7):
            assert sc[j + 1] == pytest.approx(0.0, abs=1e-15)

    def test_against_quadrature_of_defining_integral(self, params_x_e3):
        k = 0.7 + 0.3j
        sc = toeplitz.symbol_coeffs(k, params_x_e3, max_freq=16)
        rng = np.random.default_rng(3)

        def fhat_quad(j):
            def f(v):
                z = np.exp(1j * v)
                return (
                    abs(1 - z) ** 2
                    * np.exp(k * np.log(1 - z))
                    * np.exp(hybrid.F_X_poly(v, k, params_x_e3))
                    * np.exp(-1j * j * v)
                )

            re, _ = quad(lambda v: f(v).real, 0, 2 * math.pi, limit=400)
            im, _ = quad(lambda v: f(v).imag, 0, 2 * math.pi, limit=400)
            return (re + 1j * im) / (2 * math.pi)

        for j in rng.choice(np.arange(-1, 17), size=10, replace=False):
            assert abs(sc[j + 1] - fhat_quad(int(j))) < 1e-8


    def test_matches_termwise_convolution(self, smoothing_y4):
        # reference: fhat_n = sum_l h_l (c_{n-l} - c_{n+1-l}) term by term
        max_freq = 200
        for k, x in ((2.0, math.e**3), (0.5 + 0.5j, math.e**4), (-1.5, math.e**2)):
            params = hybrid.HybridParams(n=8, x_cutoff=x, smoothing=smoothing_y4)
            sc = toeplitz.symbol_coeffs(k, params, max_freq)
            h = powerseries.exp_series_coeffs(hybrid.fourier_coeffs(k, params), max_freq + 2)
            c = powerseries.binomial_series(k + 1, max_freq + 2)
            ref = [
                sum(h[ell] * (c[n - ell] - c[n + 1 - ell] if n >= ell else -c[0]) for ell in range(n + 2))
                for n in range(-1, max_freq + 1)
            ]
            assert np.max(np.abs(sc - ref)) < 1e-13 * np.max(np.abs(ref))

    def test_cancellation_warning_measured_against_largest_coefficient(self, smoothing_y4):
        # at X = e^4 every s_m = k/m, so fhat_2 = 0 exactly; its rounding
        # residue is no loss of digits against max |fhat|
        params = hybrid.HybridParams(n=8, x_cutoff=math.e**4, smoothing=smoothing_y4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (0.7 + 2j, -1.5 + 1j):
                toeplitz.symbol_coeffs(k, params, max_freq=62)
        # genuine binomial-tail cancellation still warns
        params = hybrid.HybridParams(n=8, x_cutoff=math.e**3, smoothing=smoothing_y4)
        with pytest.warns(UserWarning, match="cancellation"):
            toeplitz.symbol_coeffs(10 + 10j, params, max_freq=126)


class TestToeplitzDet:
    def test_size_one(self, params_x_e3):
        sc = toeplitz.symbol_coeffs(1.0, params_x_e3, max_freq=4)
        assert toeplitz.toeplitz_det(sc, 1) == pytest.approx(sc[1])

    def test_k0_ladder(self, params_x_e3, smoothing_y4):
        sc = toeplitz.symbol_coeffs(0, params_x_e3, max_freq=50)
        for n in range(2, 51):
            params = hybrid.HybridParams(n=n, x_cutoff=math.e**3, smoothing=smoothing_y4)
            det = toeplitz.es_comparison(0, params).det
            dense = toeplitz.toeplitz_det(sc, n - 1, method="dense")
            assert det == pytest.approx(n, abs=1e-8)
            assert dense == pytest.approx(n, abs=1e-8)

    def test_series_vs_dense_random_k(self, smoothing_y4):
        rng = np.random.default_rng(12)
        for _ in range(3):
            k = complex(rng.uniform(-1, 2), rng.uniform(-1, 1))
            x = math.exp(rng.uniform(2, 4))
            params = hybrid.HybridParams(n=33, x_cutoff=x, smoothing=smoothing_y4)
            sc = toeplitz.symbol_coeffs(k, params, max_freq=31)
            ds = toeplitz.es_comparison(k, params).det
            dd = toeplitz.toeplitz_det(sc, 32, method="dense")
            assert abs(ds - dd) / abs(dd) < 1e-9

    def test_series_vs_dense_grid(self, smoothing_y4):
        # every size 1..63 the dense oracle reaches, at three cutoffs and seven orders
        worst = 0.0
        for x in (math.e**2, math.e**3, math.e**4):
            for k in (1.0, 2.0, 0.5, -0.5, 0.5 + 0.5j, 1 + 1j, -1.5 + 0.5j):
                params = hybrid.HybridParams(n=64, x_cutoff=x, smoothing=smoothing_y4)
                sc = toeplitz.symbol_coeffs(k, params, max_freq=62)
                for size in range(1, 64):
                    params = hybrid.HybridParams(n=size + 1, x_cutoff=x, smoothing=smoothing_y4)
                    ds = toeplitz.es_comparison(k, params).det
                    dd = toeplitz.toeplitz_det(sc, size)
                    worst = max(worst, abs(ds - dd) / abs(dd))
        assert worst < 1e-11

    @pytest.mark.parametrize("size", [1, 2, 32, 512])
    def test_matrix_is_scipys_toeplitz(self, smoothing_y4, size):
        # the index-array matrix is scipy.linalg.toeplitz's, entry for entry,
        # so the two LU determinants agree to the last bit
        for k in (1.0, 0.5 + 0.5j, -1.5 + 0.5j):
            params = hybrid.HybridParams(n=8, x_cutoff=math.e**3, smoothing=smoothing_y4)
            sc = toeplitz.symbol_coeffs(k, params, max_freq=size - 1)
            first_row = np.pad([sc[1], sc[0]], (0, size))[:size]
            column = [sc[j + 1] for j in range(size)]
            assert toeplitz.toeplitz_det(sc, size) == np.linalg.det(scipy.linalg.toeplitz(column, first_row))

    def test_missing_frequency(self, params_x_e3):
        sc = toeplitz.symbol_coeffs(1.0, params_x_e3, max_freq=4)
        with pytest.raises(DomainError, match="needs frequencies up to 7"):
            toeplitz.toeplitz_det(sc, 8)

    def test_size_and_max_freq_below_range(self, params_x_e3):
        with pytest.raises(DomainError, match="max_freq must be >= 0"):
            toeplitz.symbol_coeffs(1.0, params_x_e3, max_freq=-1)
        sc = toeplitz.symbol_coeffs(1.0, params_x_e3, max_freq=4)
        with pytest.raises(DomainError, match="size must be >= 1"):
            toeplitz.toeplitz_det(sc, 0)

    def test_dense_is_the_only_method(self, params_x_e3):
        sc = toeplitz.symbol_coeffs(1.0, params_x_e3, max_freq=4)
        with pytest.raises(ValueError, match="hessenberg"):
            toeplitz.toeplitz_det(sc, 4, method="hessenberg")


class TestEsComparison:
    def test_k0_exact(self, smoothing_y4):
        params = hybrid.HybridParams(n=32, x_cutoff=math.e**3, smoothing=smoothing_y4)
        res = toeplitz.es_comparison(0, params)
        assert res.expectation == pytest.approx(1.0, abs=1e-12)
        assert res.expectation / res.asymptotic == pytest.approx(1.0, abs=1e-12)

    def test_k1_convergence(self, smoothing_y4):
        errs = []
        for n in (32, 64, 128):
            params = hybrid.HybridParams(n=n, x_cutoff=math.e**3, smoothing=smoothing_y4)
            res = toeplitz.es_comparison(1.0, params)
            errs.append(abs(res.expectation / res.asymptotic - 1.0))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.1

    def test_complex_k_convergence(self, smoothing_y4):
        errs = []
        for n in (32, 64, 128):
            params = hybrid.HybridParams(n=n, x_cutoff=math.e**3, smoothing=smoothing_y4)
            res = toeplitz.es_comparison(0.5 + 0.5j, params)
            errs.append(abs(res.expectation / res.asymptotic - 1.0))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.1

    def test_pole_k(self, params_x_e3):
        with pytest.raises(DomainError):
            toeplitz.es_comparison(-3, params_x_e3)

    def test_non_finite_k(self, params_x_e3):
        # the hybrid model's coefficients refuse it too, though they take any finite k
        routes = (toeplitz.es_comparison, lambda k, p: hybrid.fourier_s(1, k, p), hybrid.fourier_coeffs,
                  lambda k, p: hybrid.F_X_poly(0.7, k, p))
        for k in (math.inf, math.nan, complex(0.0, math.inf)):
            for route in routes:
                with pytest.raises(AdmissibilityError, match="must be finite"):
                    route(k, params_x_e3)

    def test_traced_series_is_a_toeplitz_span(self, monkeypatch, params_x_e3):
        # the benchmark's tracer wraps public functions only; toeplitz-check
        # calls es_comparisons directly, so it must be one to count as toeplitz
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.job = 0
            toeplitz.es_comparison(1.0, params_x_e3)
        finally:
            tracer.job = None
            tracer.uninstall()
        spans = tracer.spans
        es = [i for i, s in enumerate(spans) if s[tracing.NAME] == "toeplitz.es_comparison"]
        children = [s[tracing.NAME] for s in spans if s[tracing.PARENT] == es[0]]
        assert children == ["toeplitz.es_comparisons"]

    def test_k0_ladder_is_exact(self, smoothing_y4):
        # (1 - w)^{-2} has the integer coefficients j + 1, and e^{-S} = 1 at k = 0
        for n in range(1, 513):
            params = hybrid.HybridParams(n=n, x_cutoff=math.e**3, smoothing=smoothing_y4)
            assert toeplitz.es_comparison(0, params).det == n

    def test_k_minus_2_is_the_haar_moment(self, smoothing_y4):
        # 1/Gamma(k+2) vanishes at k = -2: the prediction is 0, while the
        # determinant route still equals the Haar moment
        for n in (1, 2, 8, 64):
            params = hybrid.HybridParams(n=n, x_cutoff=2.0, smoothing=smoothing_y4)
            res = toeplitz.es_comparison(-2, params)
            assert res.expectation == rmt.exact_moment(n, -2)
            assert res.asymptotic == 0
        params = hybrid.HybridParams(n=8, x_cutoff=math.e**3, smoothing=smoothing_y4)
        assert np.isfinite(toeplitz.es_comparison(-2, params).expectation)

    @pytest.mark.parametrize("k", [1.0, 2.0, 0.5, -0.5, 0.5 + 0.5j, 1 + 1j, -1.5 + 0.5j, -2.5 + 1j, 3 - 2j])
    def test_x2_is_the_haar_moment(self, k, smoothing_y4):
        # below X = e no prime enters, S = 0 and the symbol is the bare CUE one
        for n in (1, 2, 3, 8, 33, 128, 512):
            params = hybrid.HybridParams(n=n, x_cutoff=2.0, smoothing=smoothing_y4)
            assert toeplitz.es_comparison(k, params).expectation == pytest.approx(
                rmt.exact_moment(n, k), rel=1e-13, abs=0
            )

    def test_against_mpmath_dense_determinant(self, smoothing_y4):
        # the size-127 determinant of the symbol at dps 40: coefficients by the
        # same exact convolution as symbol_coeffs, determinant by mpmath's LU
        k, size = 2.0, 127
        params = hybrid.HybridParams(n=size + 1, x_cutoff=math.e**4, smoothing=smoothing_y4)
        with mpmath.workdps(40):
            s = [mpmath.mpc(c) for c in hybrid.fourier_coeffs(k, params)]
            h = [mpmath.mpc(1)]
            for n in range(1, size + 1):
                h.append(mpmath.fsum(j * s[j - 1] * h[n - j] for j in range(1, min(n, len(s)) + 1)) / n)
            c = [mpmath.mpc(1)]
            for j in range(1, size + 1):
                c.append(c[-1] * (j - k - 2) / j)
            fhat = {-1: mpmath.mpc(-1)}
            for n in range(size):
                fhat[n] = mpmath.fsum(h[ell] * (c[n - ell] - c[n + 1 - ell]) for ell in range(n + 1)) - h[n + 1]
            matrix = mpmath.matrix([[fhat.get(j - ell, 0) for ell in range(size)] for j in range(size)])
            ref = complex(mpmath.det(matrix))
        assert abs(toeplitz.es_comparison(k, params).det - ref) < 1e-13 * abs(ref)

    def test_cancellation_warns(self, smoothing_y4):
        # each call's warning names the caller's file and line, not the module's
        params = hybrid.HybridParams(n=32, x_cutoff=math.e**3, smoothing=smoothing_y4)
        calls = (lambda: toeplitz.es_comparison(10 + 10j, params),
                 lambda: toeplitz.es_comparisons(10 + 10j, params, [32]),
                 lambda: toeplitz.symbol_coeffs(10 + 10j, params, 126))
        for call in calls:
            with pytest.warns(UserWarning, match="cancellation") as record:
                call()
            assert (record[0].filename, record[0].lineno) == (__file__, call.__code__.co_firstlineno)

    def test_no_warning_at_benchmark_orders(self, smoothing_y4):
        # the toeplitz-check orders of the cross-checks benchmark, every size it could ask for
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (0.0, 1.0, 0.5 + 0.5j, 2.0, 1 + 1j, 0.5, -0.5):
                for n in range(1, 513):
                    params = hybrid.HybridParams(n=n, x_cutoff=math.e**3, smoothing=smoothing_y4)
                    toeplitz.es_comparison(k, params)


class TestHeineExactness:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_mc_matches_toeplitz(self, n, smoothing_y4):
        # Heine's identity is exact at finite N: the strongest single test here
        params = hybrid.HybridParams(n=n, x_cutoff=math.e**3, smoothing=smoothing_y4)
        res = toeplitz.es_comparison(1.0, params)
        est = hybrid.mc_hybrid_moment(params, 1.0, 60_000, seed=77)
        assert within(est, res.expectation, n_se=3.5), (est.mean, res.expectation)
