import math

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import haar_angle_batch, kernel_U, kernel_U_panels, zprime_pow_rows
from zetalab import hybrid, toeplitz
from zetalab.errors import DomainError
from zetalab.specfun import exp_integral_e1


class TestUWeight:
    def test_positive_inside_support(self, smoothing_y4):
        y_mid = math.exp(1.0 - 1.0 / (2 * smoothing_y4.y_sharpness))
        assert hybrid.u_weight(y_mid, smoothing_y4) > 0

    def test_zero_above_support(self, smoothing_y4):
        assert hybrid.u_weight(3.0, smoothing_y4) == 0.0

    def test_mass_one(self, smoothing_y4):
        lo, hi = smoothing_y4.support
        mass, _ = quad(lambda y: hybrid.u_weight(y, smoothing_y4), lo, hi, epsabs=1e-13)
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_domain(self, smoothing_y4):
        with pytest.raises(DomainError):
            hybrid.u_weight(-1.0, smoothing_y4)


class TestMassAbove:
    def test_full_mass_at_zero(self, smoothing_y4):
        assert hybrid.mass_above(0.0, smoothing_y4) == 1.0

    def test_empty_above_support(self, smoothing_y4):
        assert hybrid.mass_above(1.0, smoothing_y4) == 0.0

    def test_interior(self, smoothing_y4):
        v = 1.0 - 1.0 / (2 * smoothing_y4.y_sharpness)
        val = hybrid.mass_above(v, smoothing_y4)
        assert 0.0 < val < 1.0

    def test_non_increasing(self, smoothing_y4):
        v = np.linspace(0.0, 1.05, 300)
        vals = hybrid.mass_above(v, smoothing_y4)
        assert np.all(np.diff(vals) <= 1e-15)

    def test_matches_direct_quadrature(self, smoothing_y4):
        lo, hi = smoothing_y4.support
        for v in (0.78, 0.85, 0.93):
            direct, _ = quad(
                lambda y: hybrid.u_weight(y, smoothing_y4), math.exp(v), hi, epsabs=1e-13
            )
            assert hybrid.mass_above(v, smoothing_y4) == pytest.approx(direct, abs=1e-10)


class TestBumpQuadrature:
    @pytest.mark.parametrize("y_sharp", [1.0, 2.0, 4.0, 8.0])
    def test_against_adaptive_quadrature(self, y_sharp):
        # the panel rule against quad of the raw bump over [w, 1], w = Y(v - 1) + 1:
        # measured 2.2e-16 relative on the normalization and at most 5.6e-16
        # on mass_above over these 201 points
        spec = hybrid.SmoothingSpec(y_sharp)

        def raw(x):
            return math.exp(-1.0 / (x * (1.0 - x)))

        norm, _ = quad(raw, 0.0, 1.0, epsabs=1e-15, epsrel=1e-13)
        assert spec.normalization == pytest.approx(norm, rel=1e-15)
        v = np.linspace(0.0, 1.0, 201)
        w = np.clip(y_sharp * (v - 1.0) + 1.0, 0.0, 1.0)
        expected = [quad(raw, lo, 1.0, epsabs=1e-15, epsrel=1e-13)[0] / norm for lo in w]
        assert np.max(np.abs(hybrid.mass_above(v, spec) - expected)) < 2e-15


class TestKernelU:
    def test_decay_bound_on_positive_axis(self, smoothing_y4):
        for z in (5.0, 12.0, 30.0):
            bound = abs(exp_integral_e1(z * (1.0 - 1.0 / smoothing_y4.y_sharpness)))
            assert abs(kernel_U(z, smoothing_y4)) <= bound

    def test_conjugate_symmetry(self, smoothing_y4):
        z = 1.0 + 2.0j
        assert kernel_U(np.conj(z), smoothing_y4) == pytest.approx(
            np.conj(kernel_U(z, smoothing_y4)), abs=1e-12
        )

    def test_u1_vs_fixed_grid_oracle(self, smoothing_y4):
        lo, hi = smoothing_y4.support
        y = np.linspace(lo, hi, 10_001)
        integrand = hybrid.u_weight(y, smoothing_y4) * exp_integral_e1(np.log(y))
        oracle = np.trapezoid(integrand, y)
        assert kernel_U(1.0, smoothing_y4) == pytest.approx(oracle, abs=1e-8)

    def test_singularity(self, smoothing_y4):
        with pytest.raises(DomainError):
            kernel_U(0.0, smoothing_y4)

    def test_batch_matches_adaptive(self, smoothing_y4):
        zs = np.array([0.5, 2.0 + 1.0j, 40j, 200j, -3.0 + 5.0j])
        batch = hybrid.kernel_U_batch(zs, smoothing_y4)
        for z, b in zip(zs, batch):
            assert b == pytest.approx(kernel_U(z, smoothing_y4), abs=1e-11)

    def test_batch_panel_rule_above_floor(self):
        # at Y = 1 the phase of E1(z log y) turns |z| / 2 pi times across the
        # support, 48 to 64 times here, so the one-panel-per-turn rule, not
        # the floor, sets the count.  The floor's 24 panels alone miss U by
        # 1.3e-9, 4.0e-8 and 1.1e-7
        spec = hybrid.SmoothingSpec(1.0)
        lo, hi = spec.support
        zs = np.array([300j, -15.0 + 300j, 400j])
        assert np.abs(zs).min() * math.log(hi / lo) / (2 * math.pi) > hybrid._MIN_PANELS
        batch = hybrid.kernel_U_batch(zs, spec)
        for z, b in zip(zs, batch):
            assert b == pytest.approx(kernel_U(z, spec), abs=1e-11)

    def test_moment_route_matches_per_node_e1(self, smoothing_y4, monkeypatch):
        # four chunks of 256 by ascending |z|: (1) series, near-cut and fraction
        # points, |z| < 30; (2) |z| l straddling 40; (3) |z| l >= 40 and
        # |arg z| <= pi/2, the moment route; (4) the same but for four values
        # with |arg z| > 2, which send the chunk back to one E1 per node
        rng = np.random.default_rng(14)

        def ring(r_lo, r_hi, arg_max):
            r = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), 256))
            return r * np.exp(1j * rng.uniform(-arg_max, arg_max, 256))

        chunks = [ring(0.2, 30.0, 3.0), ring(35.0, 55.0, 2.0), ring(55.0, 150.0, math.pi / 2),
                  ring(160.0, 300.0, math.pi / 2)]
        chunks[3][:4] = 250.0 * np.exp(1j * np.array([2.5, -2.5, 3.0, -3.0]))
        reach = [np.abs(c).min() * hybrid._u_nodes(np.abs(c).max(), smoothing_y4)[0][0] for c in chunks]
        assert reach[1] < 40.0 < np.abs(chunks[1]).max() * 0.75 and reach[2] >= 40.0
        shuffle = rng.permutation(4 * 256)
        zs = np.concatenate(chunks)[shuffle]
        moments = shuffle // 256 == 2
        e1_calls = []
        monkeypatch.setattr(hybrid, "exp_integral_e1", lambda z: e1_calls.append(z) or exp_integral_e1(z))
        batch = hybrid.kernel_U_batch(zs, smoothing_y4)
        assert len(e1_calls) == 3  # every chunk but the third
        panels = kernel_U_panels(zs, smoothing_y4)
        # measured 7.3e-19, against terms W_q E1(z l_q) of order 1 / |z|
        assert np.max(np.abs(batch - panels)[moments]) <= 1e-15
        # the other chunks take the same E1 calls, whose values reach 1e98 near the cut
        assert np.array_equal(batch[~moments], panels[~moments])


class TestFourierS:
    def test_zero_for_nonpositive_m(self, params_x_e3):
        assert hybrid.fourier_s(0, 1, params_x_e3) == 0
        assert hybrid.fourier_s(-3, 1, params_x_e3) == 0

    def test_zero_above_log_x(self, params_x_e3):
        m_top = math.ceil(params_x_e3.log_x) + 1
        assert hybrid.fourier_s(m_top, 1, params_x_e3) == 0

    def test_x_e4_m1(self, smoothing_y4):
        params = hybrid.HybridParams(n=8, x_cutoff=math.e**4, smoothing=smoothing_y4)
        val = hybrid.fourier_s(1, 1, params)
        assert val == pytest.approx(hybrid.mass_above(0.25, smoothing_y4), rel=1e-12)
        assert 0.0 < val.real <= 1.0 and val.imag == 0

    def test_finite_support(self, params_x_e3):
        for m in range(1, 4 * math.ceil(params_x_e3.log_x) + 1):
            val = hybrid.fourier_s(m, 1 + 1j, params_x_e3)
            if m >= params_x_e3.log_x:
                assert val == 0
        coeffs = hybrid.fourier_coeffs(1 + 1j, params_x_e3)
        assert len(coeffs.values) == 2  # log X = 3: support m in {1, 2}

    def test_scaling_in_k(self, params_x_e3):
        base = hybrid.fourier_s(2, 1, params_x_e3)
        assert hybrid.fourier_s(2, 2 - 0.5j, params_x_e3) == pytest.approx((2 - 0.5j) * base)
        assert (base / 1).real > 0  # s_m / k is real and positive on the support


class TestFXRepresentations:
    def test_k0_vanishes(self, params_x_e3):
        assert hybrid.F_X_poly(0.7, 0, params_x_e3) == 0

    def test_fx0_real_positive(self, params_x_e3):
        total = hybrid.fourier_coeffs(1.0, params_x_e3).sum
        assert total.imag == pytest.approx(0.0, abs=1e-14)
        assert total.real > 0
        assert hybrid.F_X_poly(0.0, 1.0, params_x_e3) == pytest.approx(total)

    def test_direct_matches_poly_at_pi(self, params_x_e3):
        d = hybrid.F_X_direct(math.pi, params_x_e3, j_window=50)
        p = hybrid.F_X_poly(-math.pi, 1.0, params_x_e3)  # k F_X(-(-v)) at k=1
        assert abs(d - p) < 1e-6

    def test_direct_matches_poly_at_one(self, params_x_e3):
        d = hybrid.F_X_direct(1.0, params_x_e3, j_window=50)
        p = hybrid.F_X_poly(-1.0, 1.0, params_x_e3)
        assert abs(d - p) < 1e-6

    def test_log_singularities_cancel_near_zero(self, params_x_e3):
        # -log(1 - e^{-iv}) alone diverges, the combination stays bounded:
        # at v = 1e-3 the direct form sits within |F_X'(0)| * 1e-3 of F_X(0)
        # and matches the polynomial at the same point to quadrature accuracy
        d = hybrid.F_X_direct(1e-3, params_x_e3, j_window=50)
        p0 = hybrid.F_X_poly(0.0, 1.0, params_x_e3)
        assert abs(d - p0) < 1e-2
        assert abs(d - hybrid.F_X_poly(-1e-3, 1.0, params_x_e3)) < 1e-6
        assert abs(-np.log(1 - np.exp(-1j * 1e-3))) > 6  # the lone term is already huge

    def test_exp_fx0_limit_of_direct_form(self, params_x_e3):
        # e^{k F_X(0)} from the Fourier sum vs the v -> 0 limit of the direct form
        from_poly = np.exp(hybrid.fourier_coeffs(1.0, params_x_e3).sum)
        from_direct = np.exp(hybrid.F_X_direct(1e-6, params_x_e3, j_window=50))
        assert abs(from_poly - from_direct) < 1e-4

    def test_periodicity(self, params_x_e3):
        a = hybrid.F_X_direct(1.3, params_x_e3, j_window=80)
        b = hybrid.F_X_direct(1.3 + 2 * math.pi, params_x_e3, j_window=80)
        assert abs(a - b) < 1e-8

    def test_singular_point_redirect(self, params_x_e3):
        with pytest.raises(DomainError):
            hybrid.F_X_direct(0.0, params_x_e3)
        with pytest.raises(DomainError):
            hybrid.F_X_direct(2 * math.pi, params_x_e3)

    @pytest.mark.parametrize("x_exp", [2, 4])
    @pytest.mark.parametrize("y_sharp", [2.0, 8.0])
    def test_representation_equivalence_grid(self, x_exp, y_sharp):
        spec = hybrid.SmoothingSpec(y_sharp)
        params = hybrid.HybridParams(n=8, x_cutoff=math.e**x_exp, smoothing=spec)
        v = np.linspace(0.05, 2 * math.pi - 0.05, 100)
        direct = hybrid.F_X_direct(v, params, j_window=50)
        poly = hybrid.F_X_poly(-v, 1.0, params)
        assert np.max(np.abs(direct - poly)) < 1e-6


class TestFourierQuadratureRoute:
    def test_lemma_coefficients_via_quadrature(self, params_x_e3):
        m_max = 2 * math.ceil(params_x_e3.log_x)
        qc = hybrid.fourier_coeffs_by_quadrature(params_x_e3, m_max, j_window=60, grid=64)
        for m in range(1, m_max + 1):
            assert abs(qc[m] - hybrid.fourier_s(m, 1.0, params_x_e3)) < 1e-6

    @pytest.mark.parametrize(
        "m_max, j_window, grid", [(4, 10, 0), (4, 10, -4), (4, -1, 16), (-1, 10, 16)]
    )
    def test_senseless_grids_are_rejected(self, params_x_e3, m_max, j_window, grid):
        with pytest.raises(DomainError):
            hybrid.fourier_coeffs_by_quadrature(params_x_e3, m_max, j_window=j_window, grid=grid)

    def test_negative_j_window_is_rejected(self, params_x_e3):
        with pytest.raises(DomainError):
            hybrid.F_X_direct(1.0, params_x_e3, j_window=-1)


class TestMcHybridMoment:
    def test_k0_exact(self, params_x_e3):
        est = hybrid.mc_hybrid_moment(params_x_e3, 0, 1000, seed=3)
        assert est.mean == 1.0 and est.se_re == 0.0

    def test_integer_power_consistency(self, params_x_e3):
        # one sampled matrix: the k=2 statistic equals the square of the k=1 product
        rng = np.random.default_rng(55)
        ang = haar_angle_batch(params_x_e3.n, 1, rng)
        diffs = ang[0, :-1] - ang[0, -1]
        s1 = hybrid.fourier_coeffs(1.0, params_x_e3)
        base = (
            1j
            * np.exp(s1.sum)
            * np.prod(1.0 - np.exp(1j * diffs))
            * np.exp(np.sum(hybrid.F_X_poly(diffs, 1.0, params_x_e3)))
        )
        s2 = hybrid.fourier_coeffs(2.0, params_x_e3)
        stat = zprime_pow_rows(ang, np.array([params_x_e3.n - 1]), 2.0, s2.values)
        assert stat[0] == pytest.approx(base * base, rel=1e-9)

    def test_dimension_cap(self, smoothing_y4):
        # no cap: the factor sampler costs O(N log X) a sample
        params = hybrid.HybridParams(n=1000, x_cutoff=math.e**3, smoothing=smoothing_y4)
        est = hybrid.mc_hybrid_moment(params, 1.0, 2000, seed=0)
        heine = toeplitz.es_comparison(1.0, params).expectation
        assert est.within(heine, n_se=4.0), (est.mean, est.se_re, est.se_im, heine)

    def test_seed_reproducible(self, params_x_e3):
        a = hybrid.mc_hybrid_moment(params_x_e3, 1.0, 2000, seed=6)
        b = hybrid.mc_hybrid_moment(params_x_e3, 1.0, 2000, seed=6)
        assert a.mean == b.mean

    @pytest.mark.parametrize("n,k", [(1, 1 + 1j), (2, 1 + 1j), (3, 0.5 + 0.5j), (3, -1.5 + 0.5j)])
    def test_heine_below_fourier_length(self, smoothing_y4, n, k):
        # X = e^4 has M = 3 Fourier coefficients, more than the N - 1 <= 2
        # eigenvalues: the power sums p_m for m > N - 1 come from Newton's
        # identities with the vanishing elementary symmetric functions
        params = hybrid.HybridParams(n=n, x_cutoff=math.e**4, smoothing=smoothing_y4)
        heine = toeplitz.es_comparison(k, params).expectation
        est = hybrid.mc_hybrid_moment(params, k, 40_000, seed=90 + n)
        if n == 1:  # no other eigenvalue: the statistic is the constant i^k e^{k F_X(0)}
            assert est.mean == pytest.approx(heine, rel=1e-13)
        else:
            assert est.within(heine, n_se=4.0), (est.mean, est.se_re, est.se_im, heine)

    @pytest.mark.parametrize(
        "n,x_exp,k,seed", [(4, 3, 1.0, 70), (8, 3, 0.5 + 0.5j, 71), (6, 4, 1 + 1j, 72), (8, 4, -1.5 + 0.5j, 73)]
    )
    def test_agrees_with_qr_eig(self, smoothing_y4, n, x_exp, k, seed):
        # two-sample test against the QR+eig oracle through the eigenangle
        # statistic with the same Fourier weights
        params = hybrid.HybridParams(n=n, x_cutoff=math.e**x_exp, smoothing=smoothing_y4)
        est = hybrid.mc_hybrid_moment(params, k, 100_000, seed)
        rng = np.random.default_rng(seed + 100)
        count = 20_000
        s_coeffs = hybrid.fourier_coeffs(k, params).values
        qr = zprime_pow_rows(haar_angle_batch(n, count, rng), rng.integers(0, n, size=count), k, s_coeffs)
        for part, se in ((np.real, est.se_re), (np.imag, est.se_im)):
            se_qr = part(qr).std(ddof=1) / math.sqrt(count)
            assert abs(part(est.mean) - part(qr).mean()) < 4 * math.hypot(se, se_qr)

    _PINNED = {
        1: (-1.391715800302427 - 0.3688434423853185j, 0.023769331570830388, 0.02524979365941469),
        2: (-1.387388937605268 - 0.39030922833025206j, 0.02530240754741344, 0.024910847075254143),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pinned_values(self, params_x_e3, workers):
        # values of the factor sampler when it took over the hybrid route:
        # they pin the seeding, batching and merge of the shared _mc_estimate
        # and the Szegő weights.  The bits agree on the machine they were
        # taken on; the 1e-12 allows another libm's rounding, far below a
        # change of stream (~ se)
        mean, se_re, se_im = self._PINNED[workers]
        est = hybrid.mc_hybrid_moment(params_x_e3, 1 + 1j, 2000, seed=6, workers=workers)
        assert est.samples == 2000
        assert est.mean == pytest.approx(mean, rel=1e-12, abs=0)
        assert est.se_re == pytest.approx(se_re, rel=1e-12, abs=0)
        assert est.se_im == pytest.approx(se_im, rel=1e-12, abs=0)
