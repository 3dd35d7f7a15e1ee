import dataclasses
import math

import mpmath
import numpy as np
import pytest

from zetalab import specfun, zeros
from zetalab.errors import DomainError, EmptyOverlapError, MissingZeroError, ZeroTableParseError

FIRST_THREE = (14.134725, 21.022040, 25.010858)


@pytest.fixture(autouse=True)
def no_cache(monkeypatch):
    """Each test computes its zeros afresh; the cache tests set ZETALAB_CACHE themselves."""
    monkeypatch.delenv(zeros.CACHE_ENV, raising=False)


class TestComputeZeros:
    def test_first_three(self, zeros_100):
        assert np.allclose(zeros_100.gammas[:3], FIRST_THREE, atol=1e-6)

    def test_count_below_100(self, zeros_100):
        assert len(zeros_100) == 29
        assert zeros.zero_count(100.0) == 29

    def test_against_published_table(self, zeros_100, published_table_path):
        table = zeros.load_zeros(published_table_path)
        rep = zeros.cross_validate(zeros_100, table)
        assert rep.count_a == rep.count_b
        assert rep.max_abs_diff < 1e-6

    def test_zeros_are_zeta_zeros(self, zeros_100):
        z = specfun.zeta_and_deriv(0.5 + 1j * zeros_100.gammas)[0]
        assert np.max(np.abs(z)) < 1e-9

    def test_sign_change_across_final_bracket(self, zeros_100):
        w = zeros._BRACKET_WIDTH
        lo = specfun.hardy_z(zeros_100.gammas - w)
        hi = specfun.hardy_z(zeros_100.gammas + w)
        assert np.all(np.signbit(lo) != np.signbit(hi))

    def test_gaps_positive(self, zeros_100):
        assert np.all(np.diff(zeros_100.gammas) > 0)

    def test_finer_grid_identical(self, monkeypatch):
        base = zeros.compute_zeros(200.0)
        monkeypatch.setattr(zeros, "_POINTS_PER_GRAM", 8)
        fine = zeros.compute_zeros(200.0)
        assert len(base) == len(fine)
        assert np.max(np.abs(base.gammas - fine.gammas)) < 1e-9

    def test_finer_grid_identical_on_riemann_siegel_range(self, monkeypatch):
        base = zeros.compute_zeros(600.0)
        monkeypatch.setattr(zeros, "_POINTS_PER_GRAM", 8)
        fine = zeros.compute_zeros(600.0)
        assert len(base) == len(fine)
        assert np.max(np.abs(base.gammas - fine.gammas)) < 1e-9

    def test_cache_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv(zeros.CACHE_ENV, str(tmp_path))
        a = zeros.compute_zeros(60.0)
        assert (tmp_path / "zeros_t60.txt").exists()
        assert (tmp_path / "zeros_t60.sha256").exists()
        b = zeros.compute_zeros(60.0)
        assert np.max(np.abs(a.gammas - b.gammas)) < 1e-10

    def test_failed_write_leaves_no_tmp_file(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(zeros.os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            zeros._write_atomic(tmp_path / "zeros_t60.txt", "14.134725\n")
        assert list(tmp_path.iterdir()) == []

    def test_cache_keys_exact(self, tmp_path):
        near, _ = zeros._cache_paths(tmp_path, 100.0000001)
        exact, _ = zeros._cache_paths(tmp_path, 100.0)
        assert near != exact

    def test_corrupt_cache_recomputed(self, tmp_path, monkeypatch):
        monkeypatch.setenv(zeros.CACHE_ENV, str(tmp_path))
        zeros.compute_zeros(60.0)
        path = tmp_path / "zeros_t60.txt"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:5] + lines[6:]))  # cut one line out
        again = zeros.compute_zeros(60.0)
        assert len(again) == 13
        assert len(path.read_text().splitlines()) == 13  # overwritten with the full table
        assert len(zeros.compute_zeros(60.0)) == 13

    def test_domain(self):
        with pytest.raises(DomainError):
            zeros.compute_zeros(5.0)
        with pytest.raises(DomainError):
            zeros.compute_zeros(20000.0)

    def test_missing_zero_error(self, monkeypatch):
        real = zeros._brackets

        def lossy(pts, z):
            lo, hi, zz = real(pts, z)
            return lo[:-2], hi[:-2], zz[:-2]  # drop two zeros, rescans included

        monkeypatch.setattr(zeros, "_brackets", lossy)
        with pytest.raises(MissingZeroError) as exc_info:
            zeros.compute_zeros(50.0)
        assert exc_info.value.interval is not None

    @pytest.mark.parametrize("t_max, count", [(20.7, 1), (145.6793, 50), (818.0, 504)])
    def test_heights_where_theta_count_is_off(self, t_max, count, stored_table_5000):
        # round(theta/pi + 1) is N(T) + 1 at these heights (|S(T)| > 1/2)
        zl = zeros.compute_zeros(t_max)
        ref = stored_table_5000[stored_table_5000 <= t_max]
        assert len(zl) == len(ref) == count
        assert np.max(np.abs(zl.gammas - ref)) < 1e-9

    def test_count_to_cap(self):
        assert len(zeros.compute_zeros(1e4)) == 10142


class TestComputeZerosTo1000:
    """The Riemann-Siegel scan and Anderson-Björck refinement, with Euler-Maclaurin as the oracle."""

    @staticmethod
    def em_points(t_max):
        """compute_zeros(t_max) and zero_count(t_max), with the Euler-Maclaurin points both took."""
        em_points = []

        def counting_hardy_z(t):
            em_points.append(np.size(t))
            return specfun.hardy_z(t)

        def counting_zeta_and_deriv(s):
            em_points.append(np.size(s))
            return specfun.zeta_and_deriv(s)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(zeros, "hardy_z", counting_hardy_z)
            mp.setattr(zeros, "zeta_and_deriv", counting_zeta_and_deriv)
            mp.delenv(zeros.CACHE_ENV, raising=False)  # a class-scoped fixture runs before no_cache
            zl = zeros.compute_zeros(t_max)
            count = zeros.zero_count(t_max)
        return zl, sum(em_points), count

    @pytest.fixture(scope="class")
    def counted(self):
        return self.em_points(1000.0)

    def test_count(self, counted):
        zl, _, count = counted
        assert len(zl) == count == 649

    def test_sign_change_across_every_ordinate(self, counted):
        zl = counted[0]
        w = zeros._BRACKET_WIDTH
        lo = specfun.hardy_z(zl.gammas - w)
        hi = specfun.hardy_z(zl.gammas + w)
        assert np.all(np.signbit(lo) != np.signbit(hi))

    def test_euler_maclaurin_points_per_zero(self, counted):
        # measured: 1.53 a zero, hardy_z and zeta_and_deriv together, with most
        # zeros certified from their Newton point alone (3.49 with the two
        # certifying points on Euler-Maclaurin at every zero, 5.55 with every
        # refinement step near a root on it, 6.47 with Illinois' fixed halving)
        zl, em_points, _ = counted
        assert em_points <= 2 * len(zl)

    def test_euler_maclaurin_points_per_zero_to_5000(self):
        # measured: 2.12 a zero, with 48 % of the zeros certified from their
        # Newton point alone: higher up, the allowance for Euler-Maclaurin's
        # rounding outgrows |Z'| times the bracket (3.07 with the two
        # certifying points at every zero)
        zl, em_points, count = self.em_points(5000.0)
        assert len(zl) == count == 4520
        assert em_points <= 2.5 * len(zl)


class TestZSecondBound:
    def test_bounds_z_second_derivative(self):
        # at 40 log-uniform heights, and at both ends of the interval it covers
        t = np.exp(np.random.default_rng(8).uniform(math.log(10.0), math.log(1e4), 40))
        h = 0.01
        bound = zeros._z_second_bound(t, h)
        for x, b in zip(t, bound):
            assert all(b >= abs(float(mpmath.siegelz(y, derivative=2))) for y in (x - h, x, x + h)), x
        # it is loose by 1e4 to 1e5, not by orders more: 2.35e5 at t = 1000 and
        # 3.16e6 at 1e4, where |Z''| stays below 18 and 55 within 5 of each
        assert np.all(bound < 3.2e6)
        assert zeros._z_second_bound(1e4, h) == pytest.approx(3.161e6, rel=1e-3)

    @pytest.mark.parametrize("t", [20.0, 300.0, 1000.0, 1e4])
    def test_bounds_z_second_derivative_at_the_disc_edge(self, t):
        # h = 0.2 leaves a disc of radius 0.05 about each point of the interval
        h = 0.2
        bound = zeros._z_second_bound(t, h)
        assert all(bound >= abs(float(mpmath.siegelz(y, derivative=2))) for y in np.linspace(t - h, t + h, 5))

    def test_infinite_where_the_interval_leaves_the_disc(self):
        # the disc's radius is 1/4 at every height
        assert np.isinf(zeros._z_second_bound(1000.0, 0.25)) and np.isinf(zeros._z_second_bound(1000.0, 0.3))
        assert np.isfinite(zeros._z_second_bound(1000.0, 0.2499))
        assert zeros._z_second_bound(1000.0, 0.0) == pytest.approx(2.349e5, rel=1e-3)


class TestRefinementFallback:
    """A bracket that Taylor's theorem from its Newton point does not certify is
    checked by Euler-Maclaurin signs at its two ends, and one that fails that
    goes back to Anderson-Björck on :func:`zeros._eval_z` from its scan bracket."""

    def test_shifted_predictor_falls_back_to_the_same_zeros(self, monkeypatch):
        real_ab, real_rs, real_taylor = zeros._anderson_bjorck, zeros.riemann_siegel_z, zeros._taylor_certified
        by_taylor, fallen_back, steps = [], [], []

        def recording_taylor(*args):
            certified = real_taylor(*args)
            by_taylor.append(int(np.count_nonzero(certified)))
            return certified

        def tiers(zl):
            """Brackets certified by the inequality, by Euler-Maclaurin signs and by Anderson-Björck."""
            taylor, ab = sum(by_taylor), sum(fallen_back)
            by_taylor.clear()
            fallen_back.clear()
            return taylor, len(zl) - taylor - ab, ab

        def recording_ab(x0, x1, f0, f1, evaluate, width):
            if evaluate is not zeros._eval_z:
                return real_ab(x0, x1, f0, f1, evaluate, width)
            fallen_back.append(len(x0))

            def counting_eval_z(points):
                steps.append(len(points))
                return evaluate(points)

            return real_ab(x0, x1, f0, f1, counting_eval_z, width)

        monkeypatch.setattr(zeros, "_taylor_certified", recording_taylor)
        monkeypatch.setattr(zeros, "_anderson_bjorck", recording_ab)
        base = zeros.compute_zeros(1000.0)
        base_tiers = tiers(base)
        # every predicted root lands 1e-6 high, and one Newton step from there
        # misses some roots by more than _BRACKET_WIDTH/4
        monkeypatch.setattr(zeros, "riemann_siegel_z", lambda t: real_rs(t - 1e-6))
        shifted = zeros.compute_zeros(1000.0)
        shifted_tiers = tiers(shifted)
        # measured: 18 zeros below t = 96, where the prediction is loose,
        # and the close pair at 946.77 and 947.08 (|Z'| about 1) take the
        # signs and the rest the inequality; 1e-6 from the root,
        # B (e - g)^2 / 2 is some 1e-7 and no zero passes it
        assert base_tiers == (629, 20, 0)
        assert shifted_tiers[0] == 0 and shifted_tiers[2] > 0
        # measured: 11 brackets fall back and close in 8 steps from their scan brackets;
        # a start that converges slowly would take more
        assert len(steps) <= 8
        assert len(shifted) == len(base) == 649
        assert np.max(np.abs(shifted.gammas - base.gammas)) <= 1e-11
        w = zeros._BRACKET_WIDTH
        lo, hi = specfun.hardy_z(shifted.gammas - w), specfun.hardy_z(shifted.gammas + w)
        assert np.all(np.signbit(lo) != np.signbit(hi))


def test_taylor_certified_brackets_show_euler_maclaurin_signs(monkeypatch):
    # every bracket the inequality certifies up to T = 1e4, checked by hardy_z at
    # its two ends in one call, whose chunks take other cutoffs than the
    # Newton points' did.  Measured: 2,340 of 10,142 certified, the share
    # falling with height as the rounding allowance grows (629 of the 649 to
    # T = 1000); without that allowance 10,132 were, and 51 of those showed
    # one sign here
    certified = []
    real = zeros._taylor_certified

    def recording(g, z_g, slope, ends):
        ok = real(g, z_g, slope, ends)
        certified.append(ends[ok])
        return ok

    _, lo, hi, z = zeros._rosser_scan(1e4, from_first=True)
    below = hi <= 1e4
    monkeypatch.setattr(zeros, "_taylor_certified", recording)
    zeros._refine_brackets(lo[below], hi[below], z[below])
    ends = np.concatenate(certified)
    z_ends = specfun.hardy_z(ends.ravel()).reshape(-1, 2)
    assert len(ends) >= 2000
    assert np.all(np.signbit(z_ends[:, 0]) != np.signbit(z_ends[:, 1]))


class TestRefinementAbove2To16:
    """From t = 2^16 on one ulp of t exceeds the bracket width of 1e-11, and
    from t = 2^15 on the certifying points x1 -+ 2.5e-12 round onto x1."""

    def test_brackets_end_at_adjacent_doubles(self, monkeypatch):
        # four Rosser blocks: three above 2^16, one the block at 1e5 with its
        # zero at 99,999.70095, and one at 4e4, where one ulp is 7.3e-12.  Each
        # certifies on the doubles either side of its Newton point, with no
        # fallback step, and lands within one ulp of Anderson-Björck's run on
        # Euler-Maclaurin signs down to adjacent doubles
        parts = [zeros._rosser_scan(t, from_first=False)[1:] for t in (40000.0, 65600.0, 8e4, 1e5)]
        lo, hi, z = map(np.concatenate, zip(*parts))
        x0, x1 = zeros._anderson_bjorck(lo, hi, z[:, 0], z[:, 1], zeros._eval_z, zeros._BRACKET_WIDTH)
        by_em_steps = 0.5 * (x0 + x1)
        steps = []
        real_eval_z = zeros._eval_z

        def counting_eval_z(points):
            steps.append(len(points))
            if len(steps) > 100:  # a bracket that cannot close would loop for ever
                raise RuntimeError("refinement does not end")
            return real_eval_z(points)

        monkeypatch.setattr(zeros, "_eval_z", counting_eval_z)
        gammas = zeros._refine_brackets(lo, hi, z)
        assert steps == []
        assert np.all(np.abs(gammas - by_em_steps) <= np.spacing(gammas))
        assert np.any(np.abs(gammas - 99999.70095) < 1e-5)
        for g in gammas:
            z3 = specfun.hardy_z(np.array([np.nextafter(g, 0.0), g, np.nextafter(g, np.inf)]))
            assert np.any(np.signbit(z3[:-1]) != np.signbit(z3[1:])), g


class TestLoadZeros:
    def test_parse_two_lines(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("14.134725\n21.022040\n")
        zl = zeros.load_zeros(p)
        assert len(zl) == 2
        assert zl.t_max == pytest.approx(21.022040)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("")
        zl = zeros.load_zeros(p)
        assert len(zl) == 0 and zl.t_max == 0.0

    def test_zero_list_invariants(self):
        # every comparison is False at nan, so nan first, in the middle or last fails the check
        good = zeros.ZeroList(gammas=np.array([14.1, 21.0, 25.0]), t_max=30.0, source="x")
        nan, inf = math.nan, math.inf
        for gammas, t_max, what in (([21.0, 21.0], 30.0, "strictly increasing"), ([14.1, 21.0], 20.0, "exceed"),
                                    ([nan, 21.0, 25.0], 30.0, "finite"), ([14.1, nan, 25.0], 30.0, "finite"),
                                    ([14.1, 21.0, nan], 30.0, "finite"), ([14.1, 21.0, inf], 30.0, "finite")):
            with pytest.raises(ValueError, match=what):
                zeros.ZeroList(gammas=np.array(gammas), t_max=t_max, source="x")
            with pytest.raises(ValueError, match=what):
                dataclasses.replace(good, gammas=np.array(gammas), t_max=t_max)

    def test_descending_pair(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("21.0\n14.1\n")
        with pytest.raises(ZeroTableParseError) as exc_info:
            zeros.load_zeros(p)
        assert exc_info.value.line_number == 2

    @pytest.mark.parametrize(
        "text, bad_line",
        [("14.1\n\n  \n21.0\n\n", None), ("14.1 21.0\n", 1), ("14.1\nnan\n", 2), ("-1.0\n2.0\n", 1),
         ("14.1\ninf\n", 2)],
    )
    def test_line_rules(self, tmp_path, text, bad_line):
        # blank lines are skipped; one ordinate a line, each positive, finite and above the last
        p = tmp_path / "t.txt"
        p.write_text(text)
        if bad_line is None:
            assert list(zeros.load_zeros(p).gammas) == [14.1, 21.0]
            return
        with pytest.raises(ZeroTableParseError) as exc_info:
            zeros.load_zeros(p)
        assert exc_info.value.line_number == bad_line

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("14.1\nnot-a-number\n")
        with pytest.raises(ZeroTableParseError) as exc_info:
            zeros.load_zeros(p)
        assert exc_info.value.line_number == 2


class TestCrossValidate:
    def test_self_comparison(self, zeros_100):
        rep = zeros.cross_validate(zeros_100, zeros_100)
        assert rep.max_abs_diff == 0.0
        assert rep.n_compared == 29

    def test_truncated_overlap(self, zeros_100, tmp_path):
        g = zeros_100.gammas
        half = zeros.ZeroList(gammas=g[g <= 50.0], t_max=50.0, source="computed")
        rep = zeros.cross_validate(zeros_100, half)
        assert rep.overlap_t == 50.0
        assert rep.n_compared == len(half)

    def test_counts_differ(self, zeros_100):
        # one zero more below the overlap: the paired ordinates agree, the lists do not
        extra = zeros.ZeroList(gammas=np.append(zeros_100.gammas, 99.5), t_max=99.5, source="x")
        rep = zeros.cross_validate(zeros_100, extra)
        assert (rep.count_a, rep.count_b, rep.n_compared) == (29, 30, 29)
        assert rep.max_abs_diff == math.inf

    def test_disjoint(self, tmp_path):
        a = zeros.ZeroList(gammas=np.array([14.13]), t_max=20.0, source="x")
        p = tmp_path / "empty.txt"
        p.write_text("")
        b = zeros.load_zeros(p)
        with pytest.raises(EmptyOverlapError):
            zeros.cross_validate(a, b)


class TestGrid:
    """The scan grid against np.union1d of the same points, bit for bit."""

    @pytest.mark.parametrize("per", [1, 4, 8, 128])
    @pytest.mark.parametrize("height", [100.0, 1000.0, 5000.0])
    def test_equals_union_with_t(self, per, height):
        theta = float(specfun.riemann_siegel_theta(height))
        n0 = math.floor(theta / math.pi)
        g = zeros._gram_points(np.arange(n0 - 3, n0 + 4), height, theta)
        inner = (g[:-1, None] + np.diff(g)[:, None] * (np.arange(per) / per)).ravel()
        pts = np.append(inner, g[-1])
        assert np.all(np.diff(pts) > 0)  # what _grid relies on in place of np.unique
        cases = {
            "inside an interval": 0.37 * g[2] + 0.63 * g[3],
            "a Gram point": g[3],
            "an inner grid point": inner[len(inner) // 2],
            "the last Gram point": g[-1],
            "below g_0": g[0] - 1.5,
            "above g_last": g[-1] + 1.5,
        }
        for name, t in cases.items():
            union = np.union1d(pts, min(max(t, g[0]), g[-1]))
            got = zeros._grid(g, per, t)
            assert got.dtype == union.dtype and np.array_equal(got, union), name


def test_expected_count_main_term_consistency():
    # N(T) tracks the main term (T/2pi) log(T/(2 pi e))
    t = 5000.0
    main = (t / (2 * math.pi)) * math.log(t / (2 * math.pi * math.e))
    assert abs(zeros.zero_count(t) - main) < 2.0
    assert zeros.zero_count(t) == 4520


class TestCovering:
    def test_refuses_an_ordinate_below_10(self):
        # N(T) = 0 below 10 (the first zero is at 14.13), so the prefix must be empty
        zl = zeros.ZeroList(gammas=np.array([3.0, 20.0]), t_max=20.0, source="test")
        with pytest.raises(DomainError, match="1 zeros, expected 0 below 5"):
            zl.covering(5.0)

    @pytest.mark.parametrize("t_max, t", [(3.0, 15.0), (2e5, 1.5e5)], ids=["count-matches", "uncounted"])
    def test_refuses_an_ordinate_below_10_at_every_height(self, t_max, t):
        # N(15) = 1 equals the count of [3.0], and past 1e5 no count is taken: the floor still holds
        zl = zeros.ZeroList(gammas=np.array([3.0]), t_max=t_max, source="test")
        with pytest.raises(DomainError, match="^zero list holds the ordinate 3, at or below 10, where zeta has no zero$"):
            zl.covering(t)

    @pytest.mark.parametrize("gammas, t, fault", [
        ([14.134725142, 14.5, 21.022039639], 22.0,
         "zero list reaching t = 21.022 has extra ordinates (3 zeros, expected 2 below 22)"),
        ([14.134725142, 25.010857580], 22.0,
         "zero list reaching t = 25.0109 has missing ordinates (1 zeros, expected 2 below 22)"),
        ([14.134725142], 22.0, "zero list covers only t <= 14.1347 (1 zeros, expected 2 below 22)"),
    ], ids=["extra", "missing", "short"])
    def test_names_the_fault(self, gammas, t, fault):
        # "covers only" is a list that stops short of T; any other miscount has a wrong ordinate
        zl = zeros.ZeroList(gammas=np.array(gammas), t_max=gammas[-1], source="test")
        with pytest.raises(DomainError) as info:
            zl.covering(t)
        assert str(info.value) == fault

    @pytest.mark.parametrize("gammas", [[], [20.0]], ids=["empty", "first-above-t"])
    def test_covers_below_10_with_no_ordinate(self, gammas):
        zl = zeros.ZeroList(gammas=np.array(gammas), t_max=gammas[-1] if gammas else 0.0, source="test")
        assert zl.covering(5.0).size == 0

    def test_each_position_is_a_zero_index(self, stored_table_5000):
        # arg zeta'(rho_n) = pi (n - 3/2) - theta(gamma_n) (mod 2 pi) on the route the CLI
        # takes, with n the position in the certified prefix plus one
        def residual(gammas):
            n = np.arange(1, len(gammas) + 1)
            gap = np.angle(specfun.zeta_prime_at_zeros(gammas)) - (np.pi * (n - 1.5)
                                                                   - specfun.riemann_siegel_theta(gammas))
            return np.abs(np.mod(gap + np.pi, 2 * np.pi) - np.pi)

        table = zeros.ZeroList(gammas=stored_table_5000, t_max=float(stored_table_5000[-1]), source="test")
        assert np.max(residual(table.covering(5000.0))) < 1e-9
        # with the 1,001st ordinate gone every later index is one short: the residual is pi
        gap = residual(np.delete(stored_table_5000, 1000))
        assert np.max(gap[:1000]) < 1e-9 and np.max(np.abs(gap[1000:] - np.pi)) < 1e-9


class TestZeroCount:
    def test_matches_stored_table(self, stored_table_5000):
        rng = np.random.default_rng(6)
        heights = np.exp(rng.uniform(math.log(10.5), math.log(5000.0), 300))
        counts = [zeros.zero_count(float(t)) for t in heights]
        assert counts == list(np.searchsorted(stored_table_5000, heights, side="right"))

    @pytest.mark.parametrize("t", [7005.05, 7005.08, 7005.2, 1e4, 2e4, 99999.0])
    def test_matches_mpmath(self, t):
        # 7005.05-7005.2 straddle Lehmer's close pair, zeros 6709 and 6710
        assert zeros.zero_count(t) == mpmath.nzeros(t)

    @pytest.mark.parametrize("t", [9.9, 1.1e5])
    def test_domain(self, t):
        with pytest.raises(DomainError):
            zeros.zero_count(t)
