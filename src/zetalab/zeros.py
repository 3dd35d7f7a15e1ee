"""Nontrivial zero ordinates by Hardy-Z sign changes on the Gram grid, with a certified count.

The scan walks the critical line over Gram intervals [g_n, g_{n+1}], where
theta(g_n) = n*pi, with _POINTS_PER_GRAM points in each, and refines every
sign-change bracket down to 1e-11, or to within two ulps where one ulp is
wider than half that (:func:`_refine_brackets`).  A Gram point is good when
(-1)^n Z(g_n) > 0, and a Rosser block is the span between two consecutive
good Gram points.  The count is certified by Rosser's rule:
every Rosser block up to Gram index 13,999,525, far above the heights here,
holds exactly as many zeros as it has Gram intervals, all simple and on the
critical line (Brent, van de Lune, te Riele & Winter, Math. Comp. 39 (1982)
681-688).  So a block that shows that many sign changes of Z has all its
zeros bracketed, and N(g_a) = a + 1 at every good Gram point g_a.  A block
that shows fewer (two close zeros between neighbouring scan points) is
rescanned alone at doubling density, and MissingZeroError names it if its
count still differs.  :meth:`ZeroList.covering` holds any list, computed or
ingested, to that count before a sum runs over its ordinates.

The scan takes Z from the Riemann-Siegel formula through C4 where its value
clears twice the error bound of :func:`specfun.hardy_z_rs`, and from
Euler-Maclaurin everywhere else (below t = 200 and next to every root), so
each sign the scan sees is the Euler-Maclaurin sign while most points cost
O(sqrt t) instead of O(t).  The refinement (:func:`_refine_brackets`)
predicts each root on the Riemann-Siegel sum, corrects it by one Newton step
on Euler-Maclaurin's Z and Z', and certifies the bracket about the Newton
point by Taylor's theorem, from a proven bound on |Z''| and a stated bound on
the Euler-Maclaurin error, which passes 97 % of the zeros to T = 1000, 47 %
to 5000 and 23 % to 1e4.  The rest take Euler-Maclaurin signs at their ends,
or Anderson-Björck steps from their scan brackets.  With the scan, that is
1.55 Euler-Maclaurin points a zero at T = 1000, 2.12 at 5000 and 2.58 at 1e4.
The Euler-Maclaurin points of a scan or a refinement step go to specfun in one
call, which gives each chunk of ascending height the cutoff of its own highest
point.

Computed lists are cached on disk (one ordinate per line, the same plain-text
format the loader ingests) under the directory named by the ``ZETALAB_CACHE``
environment variable, the one cache switch: unset or empty, nothing is read
or written.  Each table is keyed by the exact height, with a SHA-256 digest
that is checked on every read; both files are written atomically.
"""

import hashlib
import math
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DomainError, EmptyOverlapError, MissingZeroError, ZeroTableParseError
from .specfun import (
    RS_T_MIN,
    _theta_prime,
    hardy_z,
    hardy_z_em_error,
    hardy_z_rs,
    riemann_siegel_theta,
    riemann_siegel_z,
    zeta_and_deriv,
)

_TWO_PI = 2.0 * math.pi
_BRACKET_WIDTH = 1e-11
_PREDICT_WIDTH = 1e-9  # where the Riemann-Siegel prediction of a root stops
_POINTS_PER_GRAM = 4  # scan points per Gram interval
_RESCAN_ROUNDS = 5  # density doublings of a short Rosser block before MissingZeroError
# zero_count's reach: its scan starts at g_{-1} = 9.67 (N(t) = 0 below 14.13) and stops at Euler-Maclaurin's cap
_COUNT_T_MIN, _COUNT_T_MAX = 10.0, 1e5
CACHE_ENV = "ZETALAB_CACHE"


@dataclass(frozen=True)
class ZeroList:
    """Ordered zero ordinates up to a covered height, with provenance."""

    gammas: np.ndarray  # strictly increasing positive finite reals
    t_max: float
    source: str  # "computed" or "ingested:<path>"

    def __post_init__(self):
        g = self.gammas
        # each comparison is False at nan, so a nan anywhere fails it
        if len(g) and not (np.all(np.diff(g) > 0) and g[0] > 0 and np.isfinite(g[-1])):
            raise ValueError("zero ordinates must be strictly increasing, positive and finite")
        if len(g) and g[-1] > self.t_max:
            raise ValueError("zero ordinates exceed the covered height")

    @cached_property
    def text(self):
        """The table as the cache and ``zeros compute --out`` write it: one
        ``%.11f`` line an ordinate, formatted once for both."""
        return ("%.11f\n" * len(self.gammas)) % tuple(self.gammas.tolist())

    def below(self, t):
        """Ordinates with gamma <= t."""
        return self.gammas[self.gammas <= t]

    def covering(self, t):
        """The ordinates up to t, once the list covers (0, t], so that position i holds
        zero i + 1: it does if it holds exactly N(t) ordinates up to t, whatever its
        t_max (a table that reaches t may still miss one).  N(t) is 0 below
        _COUNT_T_MIN and :func:`zero_count` certifies it up to _COUNT_T_MAX; beyond
        that, a list whose t_max reaches t is taken as it is.  DomainError otherwise,
        naming a list that stops short of t, one with missing or extra ordinates or one
        with an ordinate at or below _COUNT_T_MIN, and for a t that is not a positive
        finite number."""
        if not (math.isfinite(t) and t > 0):
            raise DomainError(f"height T = {t:g} is not a positive finite number")
        gammas = self.below(t)
        if t > _COUNT_T_MAX:
            if self.t_max < t:
                raise DomainError(f"zero list reaches only t = {self.t_max:g}, below T = {t:g}, and N(T) "
                                  f"is certified only on {_COUNT_T_MIN:g} <= T <= {_COUNT_T_MAX:g}")
        else:
            n, expected = len(gammas), zero_count(t) if t >= _COUNT_T_MIN else 0
            if n != expected:
                fault = (f"covers only t <= {self.t_max:g}" if n < expected and self.t_max < t else
                         f"reaching t = {self.t_max:g} has {'missing' if n < expected else 'extra'} ordinates")
                raise DomainError(f"zero list {fault} ({n} zeros, expected {expected} below {t:g})")
        if gammas.size and gammas[0] <= _COUNT_T_MIN:  # N(10) = 0
            raise DomainError(f"zero list holds the ordinate {gammas[0]:g}, at or below {_COUNT_T_MIN:g}, "
                              "where zeta has no zero")
        return gammas

    def __len__(self):
        return len(self.gammas)


def _gram_points(n, t, theta_t):
    """Gram points g_n (theta(g_n) = n*pi) by Newton's method from theta's tangent at t.

    theta is increasing and convex past 2*pi, and g_{-1} = 9.67 lies past it,
    so the tangent's root lies above g_n and the iterates descend onto it.
    """
    g = t + (n * math.pi - theta_t) / (0.5 * math.log(t / _TWO_PI))
    while True:
        slope = 0.5 * np.log(g / _TWO_PI)  # above theta' by about 1/(48 g^2)
        step = (riemann_siegel_theta(g) - n * math.pi) / slope
        g = g - step
        # the next step would be about theta'' s^2 / (2 theta') plus s / (48 g^2 theta')
        if np.max((step * step / (4.0 * g) + np.abs(step) / (48.0 * g * g)) / slope) < 1e-10:
            return g


def _grid(g, per, t):
    """Scan points: each interval of the Gram points g cut into ``per`` steps, plus t if inside:
    the points ascend without repeats, so t goes into its slot unless it is one (not by np.union1d,
    whose np.unique imports numpy.ma on numpy 2, about 10 ms once a process)."""
    pts = np.append((g[:-1, None] + np.diff(g)[:, None] * (np.arange(per) / per)).ravel(), g[-1])
    t = min(max(t, g[0]), g[-1])
    i = np.searchsorted(pts, t)
    return pts if pts[i] == t else np.concatenate((pts[:i], [t], pts[i:]))


def _eval_z(points):
    """Hardy Z at the points, each with the sign Euler-Maclaurin gives it.

    The Riemann-Siegel value stands in wherever it clears twice its error bound,
    so that its sign is Z's; every other point (below RS_T_MIN, or near a root)
    takes the Euler-Maclaurin value, whose cutoff specfun sets per chunk of
    ascending height.
    """
    out = np.empty(len(points))
    certified = points >= RS_T_MIN
    z_rs, bound = hardy_z_rs(points[certified])
    out[certified] = z_rs
    certified[certified] = np.abs(z_rs) > 2.0 * bound
    out[~certified] = hardy_z(points[~certified])
    return out


def _brackets(pts, z):
    """Sign-change brackets of Z between consecutive points: (lo, hi, Z at [lo, hi] per row)."""
    flips = np.flatnonzero(np.signbit(z[:-1]) != np.signbit(z[1:]))
    return pts[flips], pts[flips + 1], np.column_stack((z[flips], z[flips + 1]))


def _rescan(g, need, t):
    """Brackets of one short Rosser block (its Gram points g) at doubling scan density.

    Raises:
        MissingZeroError: if the block still does not show its ``need`` sign
            changes after _RESCAN_ROUNDS doublings.
    """
    for per in (_POINTS_PER_GRAM << r for r in range(1, _RESCAN_ROUNDS + 1)):
        pts = _grid(g, per, t)
        found = _brackets(pts, _eval_z(pts))
        if len(found[0]) == need:
            return found
    raise MissingZeroError(
        f"Rosser block ({g[0]:.6f}, {g[-1]:.6f}) shows {len(found[0])} sign changes of Z "
        f"at {per} points per Gram interval, but holds {need} zeros",
        interval=(float(g[0]), float(g[-1])),
    )


def _rosser_scan(t, from_first):
    """Sign-change brackets of Z, one per zero, over whole Rosser blocks that reach t.

    The blocks end at the first good Gram point at or past t, and start at
    g_{-1} = 9.67 (good, and below the first zero) if ``from_first``, else at
    the last good Gram point at or below t.  A block that does not show one
    sign change per Gram interval is rescanned alone.  t is a scan point, so
    no bracket straddles it.

    Returns:
        (a, lo, hi, z): the index of the first Gram point, and one bracket per
        zero of the blocks (unordered where a block was rescanned).
    """
    theta_t = riemann_siegel_theta(t)
    n_t = math.floor(theta_t / math.pi)
    pad = 8  # Gram points scanned past t on either side, doubled until good ones show
    while True:
        n = np.arange(-1 if from_first else max(n_t - pad, -1), n_t + pad + 1)
        g = _gram_points(n, t, theta_t)
        pts = _grid(g, _POINTS_PER_GRAM, t)
        z = _eval_z(pts)
        good = np.flatnonzero(np.signbit(z[np.searchsorted(pts, g)]) == (n % 2 == 1))
        if good.size and g[good[0]] <= t <= g[good[-1]]:
            break
        pad *= 2
    # the blocks' ends: good Gram points from g_{-1} or the last at or below t to the first at or past t
    first = 0 if from_first else np.searchsorted(g[good], t, "right") - 1
    ends = good[first : np.searchsorted(g[good], t) + 1]
    inside = (pts >= g[ends[0]]) & (pts <= g[ends[-1]])
    lo, hi, zz = _brackets(pts[inside], z[inside])
    need = np.diff(n[ends])
    block = np.searchsorted(g[ends], hi) - 1
    short = np.flatnonzero(np.bincount(block, minlength=len(need)) != need)
    keep = ~np.isin(block, short)
    parts = [(lo[keep], hi[keep], zz[keep])]
    parts += [_rescan(g[ends[j] : ends[j + 1] + 1], need[j], t) for j in short]
    return (int(n[ends[0]]), *map(np.concatenate, zip(*parts)))


def zero_count(t):
    """N(t), the number of zeros with 0 < gamma <= t, certified by Rosser's rule.

    Scans the one Rosser block around t as :func:`compute_zeros` scans them
    all: a + 1 for the last good Gram point g_a at or below t, plus the sign
    changes of Z in (g_a, t].

    Raises:
        DomainError: unless _COUNT_T_MIN <= t <= _COUNT_T_MAX.
        MissingZeroError: if the block cannot be made to show all its zeros.
    """
    if not _COUNT_T_MIN <= t <= _COUNT_T_MAX:
        raise DomainError(f"zero_count supports {_COUNT_T_MIN:g} <= t <= {_COUNT_T_MAX:g}")
    a, _, hi, _ = _rosser_scan(t, from_first=False)
    return a + 1 + int(np.count_nonzero(hi <= t))


def _is_open(a, b, width):
    """Whether the brackets [a, b] (either order) are wider than ``width`` and
    hold a double strictly between their ends."""
    return (np.abs(b - a) > width) & (np.nextafter(a, b) != b)


def _anderson_bjorck(x0, x1, f0, f1, evaluate, width):
    """Lockstep Anderson-Björck refinement of sign-change brackets [x0, x1] to ``width``.

    Each step calls ``evaluate`` once on the brackets still open, at their
    regula falsi points kept at least width/4 inside either end, so that an
    iterate landing next to the root closes the bracket on the next step.
    When the new point c replaces the end b of its own sign, the value kept
    at the other end is scaled by 1 - Z(c)/Z(b), or by 1/2 where that is not
    positive (Anderson & Björck, BIT 13 (1973) 253-264).  A bracket is open
    while it is wider than ``width`` and its ends are not adjacent doubles:
    from t = 2^16 on one ulp of t exceeds _BRACKET_WIDTH.  Returns the new
    ends (x0, x1), leaving the arguments as they were.
    """
    x0, x1, f0, f1 = x0.copy(), x1.copy(), f0.copy(), f1.copy()
    margin = 0.25 * width
    active = np.flatnonzero(_is_open(x0, x1, width))
    while active.size:
        a, b, fa, fb = x0[active], x1[active], f0[active], f1[active]
        c = np.clip(
            b - fb * (b - a) / (fb - fa), np.minimum(a, b) + margin, np.maximum(a, b) - margin
        )
        fc = evaluate(c)
        crossed = np.signbit(fc) != np.signbit(fb)
        scale = 1.0 - fc / fb
        x0[active] = np.where(crossed, b, a)
        f0[active] = np.where(crossed, fb, np.where(scale > 0.0, scale, 0.5) * fa)
        x1[active], f1[active] = c, fc
        active = active[_is_open(x0[active], c, width)]
    return x0, x1


def _z_and_slope_em(t):
    """Hardy Z and Z' by Euler-Maclaurin at the points t, from one zeta_and_deriv table.

    On s = 1/2 + it, Z = e^{i theta} zeta(s) and Z' = i e^{i theta}(theta' zeta(s)
    + zeta'(s)), both real, with theta' from theta's series.
    """
    zeta, zeta_prime = zeta_and_deriv(0.5 + 1j * t)
    rot = np.exp(1j * riemann_siegel_theta(t))
    return np.real(rot * zeta), -np.imag(rot * (_theta_prime(t) * zeta + zeta_prime))


def _z_second_bound(t, h):
    """A proven upper bound on |Z''| over [t - h, t + h], for t - h >= 10; inf from h = 1/4 on.

    On s = 1/2 + it, Z'' = e^{i theta}((i theta'' - theta'^2) zeta - 2 theta' zeta' - zeta''),
    with 0 < theta' < l = (1/2) log((t+h)/2pi) on the segment (every term of its
    series past the log is negative) and theta'' <= 1/t from t = 7 on, so
    |Z''| <= (1/(t-h) + l^2) |zeta| + 2 l |zeta'| + |zeta''|.  For Re w > 0,
    zeta(w) = w/(w - 1) - w int_1^inf {x} x^{-w-1} dx (Titchmarsh, The Theory of
    the Riemann Zeta-Function, 2.1), so |zeta(w)| <= |w|/|w - 1| + |w|/Re w,
    and on the disc |w - s| <= r = 1/4, where Re w >= 1/2 - r, |w - 1| >= t - r
    and |w| <= u = |s| + r, |zeta| <= K = u/(t - r) + u/(1/2 - r).  The disc of
    radius rho = r - h about each point of the segment lies inside it, so
    Cauchy's estimate |zeta^(k)| <= k! K / rho^k gives

        B = K (1/(t-h) + l^2 + 2 l / rho + 2 / rho^2).

    B is about 2.35e5 at t = 1000 and 3.0e6 at 1e4, where |Z''| is 2.4 and 17
    (at most 18 and 55 within 5 of them).  Arrays t and h, broadcast; array result.
    """
    t, h = np.asarray(t, dtype=float), np.asarray(h, dtype=float)
    r = 0.25  # the disc's radius
    u = np.hypot(0.5, t) + r
    k = u / (t - r) + u / (0.5 - r)
    rho = r - h
    slope = 0.5 * np.log((t + h) / _TWO_PI)  # above theta' on the segment
    with np.errstate(divide="ignore"):  # at h = r, where the result is inf
        b = k * (1.0 / (t - h) + slope * slope + 2.0 * slope / rho + 2.0 / (rho * rho))
    return np.where(rho > 0.0, b, np.inf)


def _taylor_certified(g, z_g, slope, ends):
    """Whether Z(g) and Z'(g) show opposite signs of Z at the two ``ends`` of each row.

    By Taylor's theorem Z(e) = Z(g) + Z'(g)(e - g) + Z''(xi)(e - g)^2 / 2 for
    some xi between g and e.  The Euler-Maclaurin values z_g and slope miss
    Z(g) by at most eta_0 and Z'(g) by at most eta_1
    (:func:`specfun.hardy_z_em_error`: proven remainders plus a stated
    allowance for rounding).  So with L(e) = z_g + slope (e - g) and B >= |Z''|
    between g and e (:func:`_z_second_bound`), Z(e) has the
    sign of L(e) where

        |L(e)| > eta_0 + eta_1 |e - g| + B (e - g)^2 / 2.

    The sign is proven if the rounding stays within its allowance, which is
    measured, not proven.
    """
    step = np.abs(ends - g[:, None])
    bound = _z_second_bound(g, step.max(axis=1))
    eta_0, eta_1 = hardy_z_em_error(g)
    line = z_g[:, None] + slope[:, None] * (ends - g[:, None])
    clear = np.abs(line) > eta_0[:, None] + (eta_1[:, None] + 0.5 * bound[:, None] * step) * step
    return clear.all(axis=1) & (np.signbit(line[:, 0]) != np.signbit(line[:, 1]))


def _refine_brackets(lo, hi, z):
    """Ordinates of the zeros in the scan brackets lo < hi (Z at their ends in z),
    each between two ends at most _BRACKET_WIDTH apart, adjacent doubles, or
    the two doubles either side of a double, where Z has opposite signs by
    Euler-Maclaurin values.  Returns their midpoints, each within one ulp or
    _BRACKET_WIDTH/2 of a sign change.

    1. *Predict.* Anderson-Björck on :func:`riemann_siegel_z` narrows every
       bracket to _PREDICT_WIDTH with no Euler-Maclaurin call: through C4 the
       sum is within 1e-9 of Z from t = 200 on, and 1.5e-5 on [10, 20].
    2. *Correct.* At each predicted root g, one Euler-Maclaurin Z and Z'
       (:func:`_z_and_slope_em`) give the Newton point x1, and the ends are
       x1 -+ _BRACKET_WIDTH/4.  From t = 2^15 on one ulp of t exceeds
       _BRACKET_WIDTH/2, both round onto x1, and the doubles either side of
       x1 take their place.
    3. *Certify from g.* Taylor's theorem from Z(g) and Z'(g), with a proven
       bound on |Z''| and a stated bound on the error of the Euler-Maclaurin
       values, shows Z's signs at both ends (:func:`_taylor_certified`): no
       further Euler-Maclaurin point.  A bracket passes where |Z'| times its
       half-width clears that error, whose allowance for rounding grows as
       3 eps t log M: to T = 1000 all but 20 of 649 zeros pass (18 below
       t = 96, where the prediction is loose, and a close pair at 947), 47 %
       to 5000 and 23 % to 1e4.  Scan included, that is 1.55 Euler-Maclaurin
       points a zero at T = 1000, 2.12 at 5000 and 2.58 at 1e4 (3.49, 3.07
       and 3.05 with step 4 at every zero).
    4. *Check the ends.* A bracket that fails step 3 takes :func:`hardy_z`
       at its two ends, which must show opposite signs.
    5. *Fall back.* A bracket that fails step 4, or whose ends do not lie
       strictly inside its scan bracket, runs Anderson-Björck on
       :func:`_eval_z`, whose signs are Euler-Maclaurin's, from its scan
       bracket and the scan's values of Z to _BRACKET_WIDTH or adjacent
       doubles.

    Each scan bracket holds one zero (Rosser's rule), so any sign change of Z
    inside it brackets that zero.  Step 3 holds the rounding of the
    Euler-Maclaurin sum to an allowance sized from measurement, near three
    times the worst error seen, not to a proven bound.  Step 4 trusts the
    signs it reads, as step 5 does: near t = 7000 the rounding moves Z by
    about 5e-12 with the chunk's cutoff, the floor of a 1e-11 bracket where
    |Z'| < 1 (ROADMAP items 5 and 18).
    """
    x0, x1 = _anderson_bjorck(lo, hi, z[:, 0], z[:, 1], riemann_siegel_z, _PREDICT_WIDTH)
    guess = 0.5 * (x0 + x1)
    z_guess, slope = _z_and_slope_em(guess)
    root = guess - z_guess / slope
    ends = root[:, None] + np.array([-0.25, 0.25]) * _BRACKET_WIDTH
    # from t = 2^15 on both round onto the root: the doubles either side of it stand in
    collapsed = ends[:, 0] == ends[:, 1]
    ends[collapsed] = np.nextafter(root[collapsed, None], [-np.inf, np.inf])
    certified = (lo < ends[:, 0]) & (ends[:, 1] < hi)  # false at a nan root
    inside = np.flatnonzero(certified)
    certified[inside] = _taylor_certified(guess[inside], z_guess[inside], slope[inside], ends[inside])
    check = inside[~certified[inside]]
    z_ends = hardy_z(ends[check].ravel()).reshape(-1, 2)
    certified[check] = np.signbit(z_ends[:, 0]) != np.signbit(z_ends[:, 1])
    gammas = 0.5 * (ends[:, 0] + ends[:, 1])
    redo = np.flatnonzero(~certified)
    x0, x1 = _anderson_bjorck(lo[redo], hi[redo], z[redo, 0], z[redo, 1], _eval_z, _BRACKET_WIDTH)
    gammas[redo] = 0.5 * (x0 + x1)
    return gammas


def _cache_paths(cache_dir, t_max):
    """Table and digest paths, keyed by the exact (17-digit) t_max."""
    base = Path(cache_dir) / f"zeros_t{t_max:.17g}.txt"
    return base, base.with_suffix(".sha256")


def _read_cache(path, digest_path):
    """Cached ordinates, or None when a file is missing or the table fails its digest."""
    try:
        data = path.read_bytes()
        digest = digest_path.read_text().strip()
    except FileNotFoundError:
        return None
    if hashlib.sha256(data).hexdigest() != digest:
        return None
    return np.array(data.split(), dtype=float)


def _write_atomic(path, text):
    """Write text to a temporary file beside path, then rename it over path."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def compute_zeros(t_max):
    """All zero ordinates in (0, t_max], bracketed to 1e-11, with a certified count.

    The scan covers every Rosser block from g_{-1} to the first good Gram
    point at or past t_max, and each block must show one sign change of Z per
    Gram interval (Rosser's rule, verified far beyond these heights by Brent,
    van de Lune, te Riele & Winter, Math. Comp. 39 (1982)), so the list holds
    N(t_max) ordinates, the count :func:`zero_count` gives.

    The list is read from and written to the directory that the
    ``ZETALAB_CACHE`` environment variable names; with it unset or empty
    there is no cache.

    Args:
        t_max: covered height, between 10 and 1e4 (desk scale).

    Raises:
        MissingZeroError: if a Rosser block shows too few sign changes even
            after its rescans, carrying the block as its interval.
    """
    if not 10.0 <= t_max <= 1e4:
        raise DomainError("computed zeros support 10 <= t_max <= 1e4; ingest a table beyond that")
    cache_dir = os.environ.get(CACHE_ENV)
    if cache_dir:
        path, digest_path = _cache_paths(cache_dir, t_max)
        cached = _read_cache(path, digest_path)
        if cached is not None:
            return ZeroList(gammas=cached, t_max=float(t_max), source="computed")

    _, lo, hi, z = _rosser_scan(t_max, from_first=True)
    below = hi <= t_max
    gammas = _refine_brackets(lo[below], hi[below], z[below])
    result = ZeroList(gammas=np.sort(gammas), t_max=float(t_max), source="computed")
    if cache_dir:
        Path(cache_dir).mkdir(parents=True, exist_ok=True)
        _write_atomic(path, result.text)
        _write_atomic(digest_path, hashlib.sha256(result.text.encode()).hexdigest() + "\n")
    return result


def load_zeros(path):
    """Parse a zero table: one decimal ordinate per line, ascending, no header."""
    path = Path(path)
    lines = path.read_text().rstrip("\n").split("\n")
    source = f"ingested:{path}"
    try:
        arr = np.array(lines, dtype=float)
        return ZeroList(gammas=arr, t_max=float(arr[-1]), source=source)
    except ValueError:  # a blank or malformed line, or ordinates that ZeroList refuses
        arr = _parse_lines(path, lines)
    return ZeroList(gammas=arr, t_max=float(arr[-1]) if len(arr) else 0.0, source=source)


def _parse_lines(path, lines):
    """:func:`load_zeros` line by line: skips blank lines and names the first bad one."""
    gammas = []
    prev = 0.0
    for line_no, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            value = float(text)
        except ValueError:
            raise ZeroTableParseError(
                f"{path}:{line_no}: not a decimal ordinate: {text!r}", line_number=line_no
            ) from None
        if not value > prev:  # also refuses nan
            raise ZeroTableParseError(
                f"{path}:{line_no}: ordinates must be strictly ascending "
                f"({value} after {prev})",
                line_number=line_no,
            )
        if value == math.inf:
            raise ZeroTableParseError(f"{path}:{line_no}: not a finite ordinate: {text!r}", line_number=line_no)
        gammas.append(value)
        prev = value
    return np.array(gammas)


@dataclass(frozen=True)
class CrossValidation:
    """Per-zero comparison of two lists on their common height range."""

    n_compared: int
    max_abs_diff: float
    count_a: int
    count_b: int
    overlap_t: float


def cross_validate(a, b):
    """Compare two zero lists on the overlap of their covered ranges.

    ``max_abs_diff`` is the largest |gamma_a - gamma_b| over the ordinates
    paired in order, or inf when the two lists hold different counts below
    the overlap (a zero missing from one list is no small difference).

    Raises:
        EmptyOverlapError: if the ranges are disjoint (no common height).
    """
    overlap = min(a.t_max, b.t_max)
    ga, gb = a.below(overlap), b.below(overlap)
    if len(ga) == 0 and len(gb) == 0:
        raise EmptyOverlapError("zero lists share no populated height range")
    n = min(len(ga), len(gb))
    diffs = np.abs(ga[:n] - gb[:n])
    report = CrossValidation(
        n_compared=n,
        max_abs_diff=float(diffs.max()) if len(ga) == len(gb) else math.inf,
        count_a=len(ga),
        count_b=len(gb),
        overlap_t=float(overlap),
    )
    return report

