import math
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad

import oracles
from oracles import (
    haar_angle_batch,
    kernel_U,
    kernel_U_batch,
    kernel_U_panels,
    u_weight,
    weighted_verblunsky_rejection,
    within,
    zprime_pow_rows,
)
from zetalab import hybrid, rmt, toeplitz
from zetalab.errors import DomainError
from zetalab.specfun import exp_integral_e1


class TestUWeight:
    def test_positive_inside_support(self, smoothing_y4):
        y_mid = math.exp(1.0 - 1.0 / (2 * smoothing_y4.y_sharpness))
        assert u_weight(y_mid, smoothing_y4) > 0

    def test_zero_above_support(self, smoothing_y4):
        assert u_weight(3.0, smoothing_y4) == 0.0

    def test_mass_one(self, smoothing_y4):
        lo, hi = smoothing_y4.support
        mass, _ = quad(lambda y: u_weight(y, smoothing_y4), lo, hi, epsabs=1e-13)
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_domain(self, smoothing_y4):
        with pytest.raises(DomainError):
            u_weight(-1.0, smoothing_y4)


class TestMassAbove:
    def test_full_mass_at_zero(self, smoothing_y4):
        assert hybrid.mass_above(0.0, smoothing_y4) == 1.0

    def test_empty_above_support(self, smoothing_y4):
        assert hybrid.mass_above(1.0, smoothing_y4) == 0.0

    def test_interior(self, smoothing_y4):
        v = 1.0 - 1.0 / (2 * smoothing_y4.y_sharpness)
        val = hybrid.mass_above(v, smoothing_y4)
        assert 0.0 < val < 1.0

    def test_domain(self, smoothing_y4):
        with pytest.raises(DomainError):
            hybrid.mass_above(-0.1, smoothing_y4)

    def test_non_increasing(self, smoothing_y4):
        v = np.linspace(0.0, 1.05, 300)
        vals = hybrid.mass_above(v, smoothing_y4)
        assert np.all(np.diff(vals) <= 1e-15)

    def test_matches_direct_quadrature(self, smoothing_y4):
        lo, hi = smoothing_y4.support
        for v in (0.78, 0.85, 0.93):
            direct, _ = quad(
                lambda y: u_weight(y, smoothing_y4), math.exp(v), hi, epsabs=1e-13
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

    @staticmethod
    def _quad_integral(x):
        if x == 0.0:
            return 0.0
        return quad(lambda t: math.exp(-1.0 / (t * (1.0 - t))), 0.0, x, epsabs=1e-15, epsrel=1e-13)[0]

    def test_ends_of_the_interval(self):
        assert hybrid._bump_integral(0.0) == 0.0
        assert hybrid._bump_integral(1.0) == hybrid._BUMP_CUMULATIVE[-1] == hybrid.SmoothingSpec(4.0).normalization
        assert hybrid.SmoothingSpec(4.0).bump_cdf(1.0) == 1.0

    def test_panel_edges_read_the_table(self):
        # at x = k/64 the partial panel is empty, so the value is the table's
        edges = np.arange(hybrid._BUMP_PANELS + 1) / hybrid._BUMP_PANELS
        vals = hybrid._bump_integral(edges)
        assert np.array_equal(vals, hybrid._BUMP_CUMULATIVE)
        norm = hybrid._BUMP_CUMULATIVE[-1]
        expected = np.array([self._quad_integral(x) for x in edges])
        assert np.max(np.abs(vals - expected)) < 2e-15 * norm

    def test_unsorted_and_zero_dimensional_input(self):
        rng = np.random.default_rng(20)
        x = np.concatenate([rng.uniform(0.0, 1.0, 40), [0.5, 0.0, 1.0, 3 / 64, 1 - 2**-53]])[rng.permutation(45)]
        vals = hybrid._bump_integral(x)
        assert vals.shape == x.shape
        for xi, val in zip(x, vals):
            lone = hybrid._bump_integral(np.float64(xi))
            # the weights' product may round the last bit differently alone
            assert np.ndim(lone) == 0 and lone == pytest.approx(val, rel=1e-15, abs=0)
            assert abs(val - self._quad_integral(xi)) < 2e-15 * hybrid._BUMP_CUMULATIVE[-1]
        cdf = hybrid.SmoothingSpec(4.0).bump_cdf(0.3)
        assert isinstance(cdf, float) and 0.0 < cdf < 1.0


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
        integrand = u_weight(y, smoothing_y4) * exp_integral_e1(np.log(y))
        oracle = np.trapezoid(integrand, y)
        assert kernel_U(1.0, smoothing_y4) == pytest.approx(oracle, abs=1e-8)

    def test_singularity(self, smoothing_y4):
        with pytest.raises(DomainError):
            kernel_U(0.0, smoothing_y4)

    def test_batch_matches_adaptive(self, smoothing_y4):
        zs = np.array([0.5, 2.0 + 1.0j, 40j, 200j, 3.0 + 5.0j])
        batch = kernel_U_batch(zs, smoothing_y4)
        for z, b in zip(zs, batch):
            assert b == pytest.approx(kernel_U(z, smoothing_y4), abs=1e-11)

    def test_batch_panel_rule_above_floor(self):
        # at Y = 1 the phase of E1(z log y) turns |z| / 2 pi times across the
        # support, 48 to 64 times here, so the one-panel-per-turn rule, not
        # the floor, sets the count.  The floor's 24 panels alone miss U by
        # 1.3e-9, 9.8e-11 and 1.1e-7
        spec = hybrid.SmoothingSpec(1.0)
        lo, hi = spec.support
        zs = np.array([300j, 15.0 + 300j, 400j])
        assert np.abs(zs).min() * math.log(hi / lo) / (2 * math.pi) > hybrid._MIN_PANELS
        batch = kernel_U_batch(zs, spec)
        for z, b in zip(zs, batch):
            assert b == pytest.approx(kernel_U(z, spec), abs=1e-11)

    @pytest.mark.parametrize("y_sharp", [1.0, 1.02, 1.25, 2.0, 4.0, 8.0])
    def test_by_parts_route_matches_per_node_e1(self, y_sharp, monkeypatch):
        # four chunks of 256 by ascending |z|: (1) the right half-plane below
        # |z| = 5; (2) |z| in [5, 60] with eight points near the positive real
        # axis; (3) the right half-plane up to 300; (4) the imaginary axis up to 800
        spec = hybrid.SmoothingSpec(y_sharp)
        rng = np.random.default_rng(18)

        def ring(r_lo, r_hi, arg_max):
            r = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), 256))
            return r * np.exp(1j * rng.uniform(-arg_max, arg_max, 256))

        chunks = [ring(0.05, 5.0, math.pi / 2), ring(5.0, 60.0, math.pi / 2), ring(60.0, 300.0, math.pi / 2),
                  1j * ring(300.0, 800.0, 0.0) * rng.choice([-1, 1], 256)]
        near_axis = math.pi - np.array([1.7, -1.7, 2.2, -2.2, 2.5, -2.5, 3.0, -3.0])
        chunks[1][:8] = 30.0 * np.exp(1j * near_axis)
        zs = np.concatenate(chunks)[rng.permutation(4 * 256)]
        e1_args = []
        monkeypatch.setattr(oracles, "exp_integral_e1", lambda z: e1_args.append(np.shape(z)) or exp_integral_e1(z))
        batch = kernel_U_batch(zs, spec)
        assert e1_args == [(256,)] * 4  # one E1 per z on every chunk
        # measured 3.6e-14 at worst, at |z| < 0.06 and Y <= 1.02, where the
        # adaptive kernel_U is within 5e-15 of the sum by parts and 3e-14 of the
        # per-node sum; at most 6.4e-15 from Y = 1.25 up
        assert np.max(np.abs(batch - kernel_U_panels(zs, spec))) <= 1e-13

    @pytest.mark.parametrize("z", [-3.0 + 5.0j, -15.0 + 300j, -1e-300 + 1j, 30.0 * np.exp(3j), -2.0])
    def test_left_half_plane_is_refused(self, z, smoothing_y4):
        # alone and among valid points; the message is one line
        for zs in (np.array([z]), np.array([1j, 2.0, z, 40j])):
            with pytest.raises(DomainError, match="Re z >= 0") as info:
                kernel_U_batch(zs, smoothing_y4)
            assert "\n" not in str(info.value)


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
        assert len(coeffs) == 2  # log X = 3: support m in {1, 2}

    def test_scaling_in_k(self, params_x_e3):
        base = hybrid.fourier_s(2, 1, params_x_e3)
        assert hybrid.fourier_s(2, 2 - 0.5j, params_x_e3) == pytest.approx((2 - 0.5j) * base)
        assert hybrid.fourier_s(2, -4, params_x_e3) == pytest.approx(-4 * base)  # any finite k
        assert (base / 1).real > 0  # s_m / k is real and positive on the support


class TestFXRepresentations:
    def test_k0_vanishes(self, params_x_e3):
        assert hybrid.F_X_poly(0.7, 0, params_x_e3) == 0

    def test_fx0_real_positive(self, params_x_e3):
        total = hybrid.fourier_coeffs(1.0, params_x_e3).sum()
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
        from_poly = np.exp(hybrid.fourier_coeffs(1.0, params_x_e3).sum())
        from_direct = np.exp(hybrid.F_X_direct(1e-6, params_x_e3, j_window=50))
        assert abs(from_poly - from_direct) < 1e-4

    def test_periodicity(self, params_x_e3):
        a = hybrid.F_X_direct(1.3, params_x_e3, j_window=80)
        b = hybrid.F_X_direct(1.3 + 2 * math.pi, params_x_e3, j_window=80)
        assert abs(a - b) < 1e-8

    def test_array_shapes(self, params_x_e3):
        # an empty array gives an empty result, and a 2-D array its own shape
        assert hybrid.F_X_direct(np.array([]), params_x_e3, j_window=5).shape == (0,)
        v = np.array([[0.5, 1.0, 2.0], [3.0, 4.0, 5.0]])
        got = hybrid.F_X_direct(v, params_x_e3, j_window=5)
        assert got.shape == (2, 3)
        assert np.array_equal(got.reshape(-1), hybrid.F_X_direct(v.reshape(-1), params_x_e3, j_window=5))

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


class TestWindowSum:
    """The direct F_X's j-window summed in closed form on one node set."""

    _ANGLES = np.array([1e-3, 0.4, 1.7, math.pi, 4.9, -2.2])

    @pytest.mark.parametrize("x_exp", [2, 3, 4])
    @pytest.mark.parametrize("y_sharp", [1.0, 1.02, 4.0, 8.0])
    def test_matches_per_node_e1_sum(self, y_sharp, x_exp):
        # against -log(1 - e^{-iv}) - sum_j of the per-node E1 sum, which takes
        # each chunk of 256 z on its own panel count: measured at most 2.5e-13
        # at Y <= 1.02 (over 14 angles; the per-z route of the previous kernel
        # erred as much) and 3.0e-14 from Y = 4 up
        spec = hybrid.SmoothingSpec(y_sharp)
        params = hybrid.HybridParams(n=8, x_cutoff=math.e**x_exp, smoothing=spec)
        v = self._ANGLES
        band = 4e-13 if y_sharp < 2.0 else 5e-14
        for j_window in (0, 1, 25, 80):
            z = 1j * (v[:, None] + 2 * math.pi * np.arange(-j_window, j_window + 1)) * params.log_x
            expected = -np.log(1.0 - np.exp(-1j * v)) - kernel_U_panels(z, spec).sum(axis=1)
            got = hybrid._f_x_direct_values(v, params, j_window)
            assert np.max(np.abs(got - expected)) <= band, j_window

    def test_one_e1_call_on_the_whole_window(self, params_x_e3, monkeypatch):
        e1_args = []
        monkeypatch.setattr(hybrid, "exp_integral_e1", lambda z: e1_args.append(np.shape(z)) or exp_integral_e1(z))
        hybrid.fourier_coeffs_by_quadrature(params_x_e3, 6, j_window=25, grid=40)
        assert e1_args == [(40, 51)]  # grid x (2J + 1) points, once

    def test_memory_stays_near_the_z_array(self):
        # J = 1000 at X = e^4, Y = 4: 10,010 nodes, so one J x nodes array of
        # D_J's terms would be 80 MB, 63 z arrays.  E1 alone peaks at about 7
        # z arrays; measured 8.7 for the whole call
        import tracemalloc

        params = hybrid.HybridParams(n=8, x_cutoff=math.e**4, smoothing=hybrid.SmoothingSpec(4.0))
        grid, j_window = 40, 1000
        v = -(np.arange(grid) + 0.5) * (2 * math.pi / grid)
        z_bytes = grid * (2 * j_window + 1) * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            hybrid._f_x_direct_values(v, params, j_window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * z_bytes, peak / z_bytes


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
            * np.exp(s1.sum())
            * np.prod(1.0 - np.exp(1j * diffs))
            * np.exp(np.sum(hybrid.F_X_poly(diffs, 1.0, params_x_e3)))
        )
        s2 = hybrid.fourier_coeffs(2.0, params_x_e3)
        stat = zprime_pow_rows(ang, np.array([params_x_e3.n - 1]), 2.0, s2)
        assert stat[0] == pytest.approx(base * base, rel=1e-9)

    def test_dimension_cap(self, smoothing_y4):
        # no cap: the factor sampler costs O(N log X) a sample
        params = hybrid.HybridParams(n=1000, x_cutoff=math.e**3, smoothing=smoothing_y4)
        est = hybrid.mc_hybrid_moment(params, 1.0, 2000, seed=0)
        heine = toeplitz.es_comparison(1.0, params).expectation
        assert within(est, heine, n_se=4.0), (est.mean, est.se_re, est.se_im, heine)

    def test_dimension_must_be_positive(self, smoothing_y4):
        with pytest.raises(DomainError, match="dimension"):
            hybrid.HybridParams(n=0, x_cutoff=math.e**3, smoothing=smoothing_y4)

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
            assert within(est, heine, n_se=4.0), (est.mean, est.se_re, est.se_im, heine)

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
        s_coeffs = hybrid.fourier_coeffs(k, params)
        qr = zprime_pow_rows(haar_angle_batch(n, count, rng), rng.integers(0, n, size=count), k, s_coeffs)
        for part, se in ((np.real, est.se_re), (np.imag, est.se_im)):
            se_qr = part(qr).std(ddof=1) / math.sqrt(count)
            assert abs(part(est.mean) - part(qr).mean()) < 4 * math.hypot(se, se_qr)

    _PINNED = {
        1: (-1.3987826974166915 - 0.41632757710831253j, 0.02498298384251958, 0.02462013145732777),
        2: (-1.3943590473644738 - 0.4360170886049523j, 0.0245489286650158, 0.024668964162850256),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pinned_values(self, params_x_e3, workers):
        # values of the rejection sampler when it took over the hybrid route,
        # reproduced by that sampler (now the tests' oracle) through the
        # package's driver, on the factor-major batch (each within 2.2 se of
        # the Heine value): they pin the seeding, batching and merge of the
        # shared _mc_estimate and the Szegő weights.  The bits agree on the
        # machine they were taken on; the 1e-12 allows another libm's
        # rounding, far below a change of stream (~ se)
        mean, se_re, se_im = self._PINNED[workers]
        k = 1 + 1j
        s_coeffs = hybrid.fourier_coeffs(k, params_x_e3)
        draw = partial(rmt._verblunsky_draw, s_coeffs=s_coeffs, factors=weighted_verblunsky_rejection)
        est = rmt._mc_estimate(params_x_e3.n, k, 2000, 6, workers, draw)
        assert est.samples == 2000
        assert est.mean == pytest.approx(mean, rel=1e-12, abs=0)
        assert est.se_re == pytest.approx(se_re, rel=1e-12, abs=0)
        assert est.se_im == pytest.approx(se_im, rel=1e-12, abs=0)

    _PINNED_EXACT = {
        1: (-1.425257750852033 - 0.3712842669005751j, 0.024692748440878053, 0.02511433952164176),
        2: (-1.4062194040284786 - 0.39081650416064495j, 0.025719682188039862, 0.023505871833060223),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pinned_values_exact_draw(self, params_x_e3, workers):
        # the same run on the exact factor draw: the stream mc_hybrid_moment gives
        mean, se_re, se_im = self._PINNED_EXACT[workers]
        est = hybrid.mc_hybrid_moment(params_x_e3, 1 + 1j, 2000, seed=6, workers=workers)
        assert est.samples == 2000
        assert est.mean == pytest.approx(mean, rel=1e-12, abs=0)
        assert est.se_re == pytest.approx(se_re, rel=1e-12, abs=0)
        assert est.se_im == pytest.approx(se_im, rel=1e-12, abs=0)
