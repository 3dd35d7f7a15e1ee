"""Complex special functions underpinning the laboratory.

All routines evaluate in double precision, and all but the scalar
:func:`log_gamma_ratio` accept scalars or numpy arrays:

* :func:`log_gamma_ratio` -- log Gamma(z + a) - log Gamma(z) for real z >= 1
  and complex a, the one log Gamma of the laboratory (upward recurrence plus
  the differenced Stirling series); log Gamma(k + 2) is
  ``log_gamma_ratio(2, k)``.
* :func:`exp_integral_e1` -- exponential integral E1 on the closed right
  half-plane: power series for |z| < 4 and the continued fraction (backward,
  at a fixed depth) above, each taken only as deep as the point's |z| needs
  for 2^-53.
* :func:`riemann_siegel_theta` -- Im log Gamma(1/4 + it/2) - (t/2) log pi
  from t = 7 on, by theta's own real asymptotic series, nine terms plus the
  Stokes term e^{-pi t}/2.
* :func:`zeta_and_deriv` -- zeta and zeta' by Euler-Maclaurin with an analytic
  term-by-term derivative (no numerical differentiation).  The points of a
  call are taken in chunks of ascending |Im s|, and each chunk's main sum
  stops at M = 30 + ceil(|Im s|/pi) of its own highest point; the number of
  Bernoulli corrections is the fewest for which Backlund's remainder bound,
  and a Cauchy bound on its derivative, are <= 1e-15.  The main sum takes an
  exp only at the primes below M and builds every other n^{-s} by complete
  multiplicativity, one multiply per term, from index tables cached per M;
  the corrections are one cumprod of their rising-factorial pair factors and
  one real product.
* :func:`hardy_z` -- the real-valued rotation of zeta on the critical line,
  from the value-only pass of the Euler-Maclaurin sum.
* :func:`hardy_z_em_error` -- stated bounds on the error of the
  Euler-Maclaurin Z and Z': the proven remainders plus an allowance, sized
  from measurement, for the rounding of the main sum.
* :func:`riemann_siegel_z` -- Z by the Riemann-Siegel formula through its C4
  term, the five C-series stacked in one table and summed by one elementwise
  Horner pass; O(sqrt t) a point.
* :func:`hardy_z_rs` -- the same sum from t = 200 on, with Gabcke's bound on
  the remainder after C4 plus a stated allowance for the rounding of its
  phases.
* :func:`zeta_prime_at_zeros` -- zeta' at zeros of zeta, as -i e^{-i theta} Z'
  with Z' the term-by-term derivative of the Riemann-Siegel formula through
  its C4 term: O(sqrt t) a zero from t = RS_T_MIN on, Euler-Maclaurin below.

The last three sit on one kernel, :func:`_riemann_siegel`: row blocks over the
sorted points in one reused work buffer and one Horner pass, derivatives
included when Z' is wanted.

Everything here is pure and reentrant; the one shared state is the per-M
cache of the main sum's index tables, whose arrays are read-only.
"""

import cmath
import functools
import itertools
import math

import numpy as np

from .errors import CapabilityError, DomainError, PoleError

# Euler's constant and the first Stieltjes constant, stored to 15 digits;
# the tests check them against an Euler-Maclaurin oracle and mpmath.
GAMMA0 = 0.577215664901533
GAMMA1 = -0.072815845483677


def _tangent_numbers(n):
    """Tangent numbers T_1..T_n as exact integers (Brent & Harvey's recurrence).

    B_{2j} = (-1)^{j-1} 2j T_j / (4^j (4^j - 1)), so every Bernoulli ratio below
    is one integer division, which Python rounds correctly.
    """
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


# Deepest Euler-Maclaurin correction used by the zeta routines.
_EM_MAX_DEPTH = 40
_TANGENT = _tangent_numbers(_EM_MAX_DEPTH + 1)

# B_{2j} / (2j (2j-1)) for j = 1..12: coefficients of z^{1-2j} in the Stirling
# series for log Gamma.
_STIRLING = tuple(
    (-1) ** (j - 1) * t / ((2 * j - 1) * 4**j * (4**j - 1)) for j, t in enumerate(_TANGENT[:12], start=1)
)

# B_{2j} / (2j)! for j = 1..41: the zeta Euler-Maclaurin correction terms, the
# last one used only to bound the remainder after _EM_MAX_DEPTH terms.
_EM_COEFFS = tuple(
    (-1) ** (j - 1) * t / (4**j * (4**j - 1) * math.factorial(2 * j - 1))
    for j, t in enumerate(_TANGENT, start=1)
)

_TWO_PI = 2.0 * math.pi
_IM_S_LIMIT = 1.0e5
# the bound the Euler-Maclaurin remainders of zeta and zeta' are held to, and its log
_EM_TOL = 1e-15
_EM_LOG_TOL = math.log(_EM_TOL)
# _em_depth's tables: the Pochhammer indices i = 0..2 _EM_MAX_DEPTH, 2p and
# log |B_{2p+2}/(2p+2)!| for p = 0.._EM_MAX_DEPTH
_EM_I = np.arange(2.0 * _EM_MAX_DEPTH + 1)
_EM_2P = _EM_I[::2]
_EM_LOG_COEFFS = np.log(np.abs(_EM_COEFFS))
_EM_COEFFS_ARRAY = np.array(_EM_COEFFS)


def _asarray_complex(z):
    arr = np.asarray(z, dtype=complex)
    return arr, arr.ndim == 0


def _stirling_series(z):
    """The correction sum of the Stirling series: sum_j B_2j/(2j(2j-1)) z^{1-2j}, 12 terms."""
    zinv2 = 1.0 / (z * z)
    corr = 0.0
    power = 1.0 / z
    for c in _STIRLING:
        corr += c * power
        power *= zinv2
    return corr


def _log1p_ratio(a, v):
    """Principal log(1 + a/v) for complex a and real v > 0.

    Where |a/v| < 1/2 the modulus is taken as log1p(|1 + a/v|^2 - 1)/2, to a
    few ulps of |a/v|; beyond, as log|v + a| - log v, where v + a is exact as
    it nears 0 (Sterbenz), so a near-pole factor keeps its digits.
    """
    w = a / v
    if abs(w) < 0.5:
        return complex(0.5 * math.log1p(w.real * (2.0 + w.real) + w.imag**2), math.atan2(w.imag, 1.0 + w.real))
    u = v + a
    return complex(math.log(abs(u)) - math.log(v), math.atan2(u.imag, u.real))


def log_gamma_ratio(z, a):
    """log Gamma(z + a) - log Gamma(z) for real z >= 1 and complex a, forming neither term.

    The lab's one log Gamma: log Gamma(k + 2) is ``log_gamma_ratio(2.0, k)``,
    since log Gamma(2) = 0, and it is exactly 0 at k = 0.  The recurrence
    log Gamma(w + 1) = log Gamma(w) + log w walks z up until z and Re(z + a)
    reach 10; there the two Stirling series are differenced as

        (z - 1/2) log(1 + a/z) + a log(z + a) - a + sigma(z + a) - sigma(z),

    sigma being the series' 12-term correction sum, whose remainder is below
    2e-18 where |w| >= 10 and |arg w| <= pi/2.  Every term is of size
    |a| log z, so the rounding error is a few ulps of that, where
    log Gamma(z + a) and log Gamma(z) are each of size z log z.  The
    imaginary part is the sum of the factors' arguments: one logarithm of
    Gamma(z + a)/Gamma(z), which is what its exp needs.  z + a must not be a
    pole of Gamma (0, -1, -2, ...), where log 0 raises ValueError.
    """
    shift = max(0, math.ceil(10.0 - z - min(a.real, 0.0)))
    acc = -sum(_log1p_ratio(a, z + m) for m in range(shift))
    z += shift
    sigma = _stirling_series(z + a) - _stirling_series(z)
    return acc + (z - 0.5) * _log1p_ratio(a, z) + a * cmath.log(z + a) - a + sigma


def _e1_series(z, terms):
    """Power series E1(z) = -gamma - log z - sum_{m <= n} (-z)^m / (m! m), n = terms.

    Alternating for Re z > 0, but below |z| = 4 no term exceeds |z|, which
    holds the cancellation to a few ulps of |z|.  ``terms`` is one count for
    every point, or one per point with z ordered by non-increasing count.
    """
    terms = np.broadcast_to(terms, z.shape)
    acc = np.zeros_like(z)
    term = np.ones_like(z)
    for m, k in reversed(list(_backward_steps(terms))):  # m = 1..n on the points still running
        head = term[:k]
        head *= -z[:k]
        head /= m
        acc[:k] += head / m
    return -GAMMA0 - np.log(z) - acc


# |z| at which the continued fraction takes over from the power series.
_E1_CROSSOVER = 4.0
# The fraction's depth is ceil(_E1_CF_REACH / |z|) + 2.  Its truncation error
# behaves like exp(-4 cos(arg z / 2) sqrt(depth |z|)), so a depth measured at
# |arg z| = 2 holds with room to spare on the half-plane |arg z| <= pi/2.
# There the fewest depths for 2^-53 relative, measured against mpmath, are 78,
# 62, 51, 37, 29, 22, 17, 14, 11, 9 and 7 at |z| = 4, 5, 6, 8, 10, 13, 16, 20,
# 25, 32 and 40, all at most 320 / |z|, and 6, 5, 4, 3, 2 and 2 at |z| = 60,
# 100, 200, 400, 1000 and 1e4.  From |z| = 80 on 320 / |z| alone falls short
# (4 steps at 80, where 5 are needed); the two extra steps cover that.
_E1_CF_REACH = 320.0


# For |z| < 4 the series' tail after its z^n term is at most twice the first
# omitted term, |z|^(n+1) / ((n+1)! (n+1)), since the terms then fall by at
# least |z| / (n+2) <= 1/2 each.  Entry n - 1 is the |z| up to which that is at
# most 2^-53 |z|, below the rounding of the first term alone; the entries grow
# with n, and n = 29 is the first to reach |z| = 4.
_E1_SERIES_REACH = np.exp(
    [(math.lgamma(n + 2) + math.log(n + 1) - 54.0 * math.log(2.0)) / n for n in range(1, 30)]
)


def _e1_series_terms(r):
    """The series' term count at points of modulus r < 4, from the reach
    table.  Array r; integer result."""
    return np.searchsorted(_E1_SERIES_REACH, r) + 1


def _e1_depth(r):
    """The continued fraction's number of backward steps at |z| = r >= 4, for
    |arg z| <= 2: ceil(320 / r) + 2.  Array r; integer result."""
    return np.ceil(_E1_CF_REACH / r).astype(int) + 2


def _backward_steps(depth):
    """(i, k) for i = depth[0] .. 1, where the first k points have depth >= i.

    A backward recurrence on points ordered by non-increasing depth thus
    updates a leading slice at each step, and every point runs its own depth.
    """
    steps = np.arange(depth[0], 0, -1)
    return zip(steps.tolist(), np.searchsorted(-depth, -steps, side="right").tolist())


def _e1_fraction(z, depth):
    """E1(z) = e^{-z}/(z+1- 1/(z+3- 4/(z+5- ...))) at a fixed depth per point.

    The backward recurrence t <- z + 2i - 1 - i^2/t for i = D..1, from
    t = z + 2D + 1, leaves the denominator; z is ordered by non-increasing D.
    """
    t = z + (2 * depth + 1)
    for i, k in _backward_steps(depth):
        head = t[:k]
        np.divide(-float(i * i), head, out=head)
        head += z[:k]
        head += 2 * i - 1
    return np.exp(-z) / t


def exp_integral_e1(z):
    """Exponential integral E1(z) on the closed right half-plane Re z >= 0, z != 0.

    Power series for |z| < 4, with the fewest terms for the point's own |z|
    whose tail is below 2^-53 |z|: 5 at |z| = 1e-3, 17 at 1, 29 just below 4.
    From |z| = 4 on, the continued fraction by its backward recurrence, at the
    depth :func:`_e1_depth` gives for the point's own |z|: 82 backward steps
    at |z| = 4, 10 at 40, 6 at 100 and 3 from 320 on, for a truncation error
    below 2^-53 relative.  One sort by |z| orders both routes, since the
    series' term count rises with |z| and the fraction's depth falls: the
    series takes its points in reverse, the fraction in order.

    Raises:
        DomainError: if z = 0 or Re z < 0.
    """
    arr, scalar = _asarray_complex(z)
    if np.any((arr == 0) | (arr.real < 0)):
        raise DomainError("E1 is evaluated only for Re z >= 0 and z != 0")
    flat = arr.reshape(-1)
    absz = np.abs(flat)
    order = np.argsort(absz)
    absz = absz[order]
    split = int(np.searchsorted(absz, _E1_CROSSOVER))
    out = np.empty_like(flat)
    for route, rule, idx, r in ((_e1_series, _e1_series_terms, order[:split][::-1], absz[:split][::-1]),
                                (_e1_fraction, _e1_depth, order[split:], absz[split:])):
        if idx.size:
            out[idx] = route(flat[idx], rule(r))
    return out.item() if scalar else out.reshape(arr.shape)


def riemann_siegel_theta(t):
    """theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi for t >= 7, by theta's
    own real asymptotic series (:func:`_theta_series`).

    The floor t = 7 lies below g_{-1} = 9.67, where every scan starts, and below
    the first zero.
    """
    arr = np.asarray(t, dtype=float)
    if np.any(arr < _THETA_T_MIN):
        raise DomainError("riemann_siegel_theta requires t >= 7")
    out = _theta_series(arr)
    return float(out) if arr.ndim == 0 else out


# Height from which theta is defined here, and its series' coefficients
# c_k = (1 - 2^{1-2k}) |B_2k| / (4k (2k-1)) for k = 1..9: 1/48, 7/5760, 31/80640, ...
_THETA_T_MIN = 7.0
_THETA_COEFFS = tuple((1.0 - 2.0 ** (1 - 2 * k)) * abs(c) / 2 for k, c in enumerate(_STIRLING[:9], start=1))
# (2k - 1) c_k: the coefficients of -theta'(t) in t^{-2k}
_THETA_PRIME_COEFFS = tuple((2 * k - 1) * c for k, c in enumerate(_THETA_COEFFS, start=1))


def _theta_series(t):
    """theta(t) = (t/2)(log(t/2pi) - 1) - pi/8 + sum_{k<=9} c_k t^{1-2k} + e^{-pi t}/2,
    for t >= 7.

    At t = 7 the tenth term is 6e-17.  The series alone misses theta by the
    Stokes term e^{-pi t}/2 (2.6e-13 at t = 9; measured 0.5000003 e^{-pi t} at
    t = 7, 0.5000085 e^{-pi t} at t = 10).  Against 50-digit mpmath the sum is
    within 1.8e-15 on [7, 14] and 5.7e-14 on [14, 200], the rounding of its
    leading term.
    """
    u = 1.0 / (t * t)
    tail = _THETA_COEFFS[-1]
    for c in reversed(_THETA_COEFFS[:-1]):
        tail = tail * u + c
    return 0.5 * t * (np.log(t / _TWO_PI) - 1.0) - math.pi / 8 + tail / t + 0.5 * np.exp(-math.pi * t)


def _theta_prime(t):
    """theta'(t) = (1/2) log(t/2pi) - sum_{k<=9} (2k-1) c_k t^{-2k} - (pi/2) e^{-pi t},
    the derivative of :func:`_theta_series`, for t >= 7."""
    u = 1.0 / (t * t)
    tail = _THETA_PRIME_COEFFS[-1]
    for c in reversed(_THETA_PRIME_COEFFS[:-1]):
        tail = tail * u + c
    return 0.5 * np.log(t / _TWO_PI) - u * tail - 0.5 * math.pi * np.exp(-math.pi * t)


def _em_depth(s_abs, sigma, m_cut):
    """Fewest Euler-Maclaurin corrections p whose remainders are proven below 1e-15
    at every point of a chunk with moduli ``s_abs`` and real parts ``sigma``.

    With the main sum cut at M, Backlund's bound on the remainder after p
    corrections is

        |R_p(s)| <= |s+2p+1| / (sigma+2p+1) * |B_{2p+2}/(2p+2)! (s)_{2p+1} M^{-s-2p-1}|,

    and Cauchy's estimate on the circle |w - s| = r = 1/log M (where
    |M^{-w}| <= e |M^{-s}|) bounds |R_p'(s)| by max |R_p(w)| / r.  Both are
    taken in logs, at each point for every p <= _EM_MAX_DEPTH at once, and
    the chunk gets the largest of the points' depths.  Both bounds grow with
    |s| and fall with Re s, so a point that another beats on both needs no
    row: after sorting by Re s, only those whose |s| tops all before.

    Raises:
        CapabilityError: if at some point no p <= _EM_MAX_DEPTH meets both
            bounds, which only an M far below |s| can cause.
    """
    log_m = math.log(m_cut)
    r = 1.0 / log_m
    s_abs, sigma = np.ravel(s_abs), np.ravel(sigma)
    order = np.lexsort((-s_abs, sigma))  # by Re s, and by falling |s| at equal Re s
    s_abs, sigma = s_abs[order], sigma[order]
    front = s_abs >= np.maximum.accumulate(s_abs)
    s_abs, sigma = s_abs[front, None], sigma[front, None]
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0 at s = 0; the p skipped below
        # log of bounds on |(s)_{2p+1}| and |(w)_{2p+1}|: products over i = 0..2p
        log_poch = np.cumsum(np.log(s_abs + _EM_I), axis=1)[:, ::2]
        log_poch_r = np.cumsum(np.log((s_abs + r) + _EM_I), axis=1)[:, ::2]
        den = (sigma + _EM_2P) + 1.0  # sigma + 2p + 1
        head = _EM_LOG_COEFFS - den * log_m
        rem = head + log_poch + np.log(((s_abs + _EM_2P) + 1.0) / den)
        drem = head + log_poch_r + 1.0 + np.log(((s_abs + r + _EM_2P) + 1.0) / ((sigma - r + _EM_2P) + 1.0) / r)
        ok = (den - r > 0) & (np.maximum(rem, drem) <= _EM_LOG_TOL)
    served = ok.any(axis=1)
    if not served.all():
        bad = served.argmin()
        raise CapabilityError(
            f"Euler-Maclaurin truncation M = {m_cut} is too short for |s| = {s_abs[bad, 0]:g}, "
            f"Re s = {sigma[bad, 0]:g}: no depth <= {_EM_MAX_DEPTH} bounds the remainder by 1e-15"
        )
    return int(ok.argmax(axis=1).max())


# hardy_z_em_error's allowance for the rounding of the Euler-Maclaurin Z, in units of
# t log M: the phase t log p of a prime's term rounds by about eps t log p, the
# products that build the other terms n^{-s} carry it to about eps t log n, and
# the M terms add their errors like a random walk
_EM_Z_ROUNDING = 3.0 * np.finfo(float).eps


def hardy_z_em_error(t):
    """Stated bounds (eta_0, eta_1) on the error of the Euler-Maclaurin Z and Z' at t.

    Both remainders are proven below 1e-15 (:func:`_em_depth`), so Z = Re e^{i theta}
    zeta misses by at most 1e-15 through them, and Z' = -Im e^{i theta}(theta' zeta
    + zeta') by (theta' + 1) 1e-15.  The rounding of the main sum is larger and
    not proven: eta_0 adds 3 eps t log M for it, M = 30 + ceil(t/pi) from
    :func:`_cutoff`, and eta_1 = ((1/2) log(t/2pi) + log M) eta_0, since
    zeta' weighs each term by log n and theta' < (1/2) log(t/2pi).
    Against 28-digit mpmath, Z at every third Newton point of
    ``compute_zeros(1e4)`` from t = 2000 on (2,875 points, in the refinement's
    own chunks) is off by at most 1.06 eps t log M, median 0.11: the
    allowance is near three times the worst seen.  eta_0 is 3.7e-12 at
    t = 1000 and 5.4e-11 at 1e4.  Arrays in, arrays out.
    """
    t = np.asarray(t, dtype=float)
    log_m = np.log(_cutoff(t))
    eta_0 = _EM_TOL + _EM_Z_ROUNDING * t * log_m
    return eta_0, (0.5 * np.log(t / _TWO_PI) + log_m) * eta_0


# Most points of one Euler-Maclaurin chunk, and most entries of its n^{-s}
# table (about 64 MB): at M = 30 + ceil(1e5/pi) a chunk holds 131 points.
_EM_CHUNK = 256
_TABLE_ENTRIES = 1 << 22


def _spf_omega(m_cut):
    """Smallest prime factor spf(n) and Omega(n), the number of prime factors with
    multiplicity, for 0 <= n < m_cut; spf(n) = n for n < 2.
    """
    n = np.arange(m_cut)
    spf = n.copy()
    for p in range(2, math.isqrt(m_cut - 1) + 1):
        if spf[p] == p:  # prime: mark the multiples no smaller prime has marked
            tail = spf[p * p :: p]
            np.minimum(tail, p, out=tail)
    rest = n[2:] // spf[2:]
    omega = np.zeros(m_cut, dtype=np.uint8)
    # Omega(n) = Omega(n / spf(n)) + 1: pass j settles every n with Omega(n) <= j
    for _ in range((m_cut - 1).bit_length() - 1):
        omega[2:] = omega[rest] + 1
    return spf, omega


@functools.lru_cache(maxsize=128)
def _main_sum_plan(m_cut):
    """The tables of :func:`_main_sums` that depend on M alone, read-only: the
    weights (1, -log n) per row, the rows of spf(n) and of n/spf(n), and the
    bounds of the Omega levels.  At most 1.3 MB an entry (M = 31,861, t = 1e5).
    """
    spf, omega = _spf_omega(m_cut)
    order = 1 + np.argsort(omega[1:], kind="stable")  # the n of each row
    row = np.empty(m_cut, dtype=np.intp)
    row[order] = np.arange(m_cut - 1)
    log_n = np.log(order)
    plan = (
        np.stack((np.ones_like(log_n), -log_n)),
        row[spf[order]],
        row[order // spf[order]],
        np.cumsum(np.bincount(omega[1:], minlength=2)),  # row 0 is n = 1
    )
    for table in plan:
        table.setflags(write=False)
    return plan


def _main_sums(s, m_cut, want_deriv):
    """sum_{n<M} n^{-s} and, if wanted, its derivative -sum_{n<M} log(n) n^{-s}.

    n^{-s} is completely multiplicative, so exp(-s log p) is taken only at the
    primes p < M; every composite is the product of two entries already in the
    table, spf(n)^{-s} (n/spf(n))^{-s}, filled one Omega level at a time.  The
    rows hold n = 1..M-1 in order of Omega(n), so each level is one slice.
    Takes a 1-D array s and returns an array of shape (1 + want_deriv, len(s)).
    """
    weights, spf_row, rest_row, bounds = _main_sum_plan(m_cut)
    table = np.empty((m_cut - 1, s.size), dtype=complex)
    table[0] = 1.0
    np.exp(np.multiply.outer(weights[1, 1 : bounds[1]], s), out=table[1 : bounds[1]])
    for a, b in zip(bounds[1:-1], bounds[2:]):
        np.multiply(table[spf_row[a:b]], table[rest_row[a:b]], out=table[a:b])
    # one real product over the table; einsum, not BLAS, whose threaded dgemm
    # at this shape stalled by tens of ms a call on a 2-core Xeon
    return np.einsum("kn,np->kp", weights[: 1 + want_deriv], table.view(float)).view(complex)


def _euler_maclaurin(s, m_cut, depth, want_deriv):
    """Euler-Maclaurin zeta (and optional zeta') on a 1-D array of s values.

    zeta(s) = sum_{m<M} m^{-s} + M^{1-s}/(s-1) + M^{-s}/2
              + sum_{j<=depth} B_{2j}/(2j)! (s)_{2j-1} M^{-s-2j+1} + R_depth(s).
    """
    sums = _main_sums(s, m_cut, want_deriv)
    z = sums[0, ...]
    dz = sums[1, ...] if want_deriv else None

    log_m = math.log(m_cut)
    m_pow = np.exp(-s * log_m)  # M^{-s}
    sm1 = s - 1.0
    z += m_pow * m_cut / sm1 + 0.5 * m_pow
    if want_deriv:
        dz += m_pow * m_cut * (-log_m / sm1 - 1.0 / (sm1 * sm1)) - 0.5 * log_m * m_pow

    corr, dcorr = _em_corrections(s, m_cut, depth, want_deriv)
    z += corr * m_pow
    if want_deriv:
        dz += dcorr * m_pow
    return z, dz


def _em_corrections(s, m_cut, depth, want_deriv):
    """The Euler-Maclaurin corrections over M^{-s}, and their derivative if wanted.

    The corrections are c_j (s)_{2j-1} M^{-s-2j+1} = c_j q_j M^{-s}, j = 1..depth,
    with c_j = B_{2j}/(2j)! and the scaled rising factorial
    q_j = (s)_{2j-1} / M^{2j-1} = (s/M) P_j, which stays near |s/M|^{2j-1}
    where (s)_{2j-1} alone would overflow at depth 40 and |s| = 1e5.  Every
    P_j is one cumprod of the pair factors (s+2i-1)(s+2i)/M^2, i < j, and

        dq_j/ds = (P_j/M) (1 + s H_j),   H_j = sum_{i=1}^{2j-2} 1/(s+i),

    has no division by s, so s = 0 needs no case of its own.  Returns
    (sum_j c_j q_j, sum_j c_j (dq_j - q_j log M) or None); each point's sums
    depend on that point alone.
    """
    if not depth:  # einsum over an empty axis leaves its output unwritten
        return np.zeros_like(s), (np.zeros_like(s) if want_deriv else None)
    k = np.arange(1.0, 2 * depth - 1, 2.0)[:, None]  # 2i - 1 for i = 1..depth-1
    lo, hi = s + k, s + (k + 1.0)
    pairs = lo * hi
    p = np.empty((depth, s.size), dtype=complex)
    p[:1] = 1.0
    np.multiply(pairs, 1.0 / (m_cut * m_cut), out=p[1:])
    np.cumprod(p, axis=0, out=p)
    coeffs = _EM_COEFFS_ARRAY[:depth]
    # real weights on complex rows: einsum, not BLAS (see _main_sums)
    total = np.einsum("j,jn->n", coeffs, p.view(float)).view(complex)
    corr = total * (s / m_cut)
    if not want_deriv:
        return corr, None
    h = np.zeros_like(p)
    np.divide(lo + hi, pairs, out=h[1:])  # 1/(s+2i-1) + 1/(s+2i)
    np.cumsum(h, axis=0, out=h)
    h *= p
    weighted = np.einsum("j,jn->n", coeffs, h.view(float)).view(complex)
    return corr, (total + s * weighted) / m_cut - math.log(m_cut) * corr


def _cutoff(t):
    """The main-sum cutoff M for heights |Im s| <= t, as a float (array)."""
    return 30.0 + np.ceil(np.divide(t, math.pi))


def _zeta_em(s, want_deriv):
    """The checked path of both public EM routines: (z, dz, scalar) for s.

    The points are taken in ascending |Im s|, in chunks of at most _EM_CHUNK
    points and _TABLE_ENTRIES table entries, and each chunk gets the cutoff M
    of its own highest point and the largest depth any of its points needs
    at that M.  Left of Re s = 0 the terms n^{-s}
    grow and cancel to a far smaller zeta (zeta(-5) by this sum is 3.4e-5
    off), and no caller evaluates there, so those points are refused.
    """
    arr, scalar = _asarray_complex(s)
    if np.any(arr == 1):
        raise PoleError("zeta has its pole at s = 1")
    flat = arr.reshape(-1)
    heights = np.abs(flat.imag)
    order = np.argsort(heights, kind="stable")
    heights = heights[order]
    if flat.size and heights[-1] > _IM_S_LIMIT:
        raise CapabilityError(
            f"zeta evaluation supports |Im s| <= {_IM_S_LIMIT:g} (got {heights[-1]:g})"
        )
    if flat.size and flat.real.min() < 0.0:
        raise CapabilityError(f"zeta evaluation supports Re s >= 0 (got {flat.real.min():g})")
    z = np.empty_like(flat)
    dz = np.empty_like(flat) if want_deriv else None
    lo = 0
    while lo < flat.size:
        hi = min(lo + _EM_CHUNK, flat.size)
        hi = min(hi, lo + _TABLE_ENTRIES // (int(_cutoff(heights[hi - 1])) - 1))
        m_cut = int(_cutoff(heights[hi - 1]))
        idx = order[lo:hi]
        chunk = flat[idx]
        depth = _em_depth(np.abs(chunk), chunk.real, m_cut)
        z[idx], dz_chunk = _euler_maclaurin(chunk, m_cut, depth, want_deriv)
        if want_deriv:
            dz[idx] = dz_chunk
        lo = hi
    return z.reshape(arr.shape), (dz.reshape(arr.shape) if want_deriv else None), scalar


def zeta_and_deriv(s):
    """(zeta(s), zeta'(s)) by Euler-Maclaurin, with a proven remainder.

    The points are taken in chunks of ascending |Im s|, and each chunk's main
    sum stops at M = 30 + ceil(|Im s| / pi) of its own highest point: at
    M ~ t/pi the corrections shrink about (|s| / 2 pi M)^2 ~ 4-fold per term.
    There is no argument to set M, and Re s < 0 is refused.  The number of
    Bernoulli corrections is the fewest (at most 40) for which Backlund's
    bound on the remainder of zeta, and a Cauchy bound on the remainder of
    zeta', are both <= 1e-15 at the chunk's M (see :func:`_em_depth`); it is
    at most 28 for |Im s| <= 1e5.  The derivative is the term-by-term
    analytic derivative of the same expansion.  What remains is rounding in
    the main sum: zeta' at the zeros up to T = 5000 is within 2e-11 of
    mpmath, zeta and zeta' within 2.5e-13 relative on Re s in
    {0, 1/4, 1/2, 1, 2}, t in [0, 300].  Of the M - 1
    main-sum terms n^{-s}, only the pi(M) at the primes take an exp; every
    other one is a single multiply of two earlier terms, and both sums come
    from one real product over that table.

    Args:
        s: complex scalar or array of points, none equal to 1.

    Raises:
        PoleError: if any s equals 1.
        CapabilityError: if |Im s| exceeds 1e5 or Re s is below 0.
    """
    z, dz, scalar = _zeta_em(s, want_deriv=True)
    if scalar:
        return z.item(), dz.item()
    return z, dz


def hardy_z(t):
    """Hardy's Z(t) = Re(e^{i theta(t)} zeta(1/2 + it)) for t >= 7.

    Z is real with |Z(t)| = |zeta(1/2+it)|; its sign changes locate the
    critical-line zeros.
    """
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    if np.any(arr < _THETA_T_MIN):
        raise DomainError("hardy_z requires t >= 7")
    theta = riemann_siegel_theta(arr)
    zeta, _, _ = _zeta_em(0.5 + 1j * arr, want_deriv=False)
    out = np.real(np.exp(1j * theta) * zeta)
    return float(out) if scalar else out


# Taylor coefficients in w = z^2 of C0 = cos(pi (z^2/2 + 3/8)) / cos(pi z), the first
# Riemann-Siegel correction, with z = 1 - 2p; the series steps over the removable
# singularities at z = +-1/2, where the closed form is 0/0.  Terms beyond w^18 are
# below 4e-17.
_RS_C0 = (
    0.38268343236508977,
    0.43724046807752045,
    0.13237657548034352,
    -0.013605026047674189,
    -0.013567621970103581,
    -0.0016237253231444653,
    0.00029705353733379691,
    0.000079433008795214696,
    4.6556124614504505e-7,
    -1.4327251630955106e-6,
    -1.0354847112312946e-7,
    1.2357927083861738e-8,
    1.7881083857954905e-9,
    -3.3914143899270359e-11,
    -1.6326633902565905e-11,
    -3.7851093185412204e-13,
    9.3274232592017248e-14,
    5.2218430159781369e-15,
    -3.3506730727442638e-16,
)
# C1..C4 in the same variable z = 1 - 2p.  With Psi = C0 and derivatives in p,
#   C1 = -Psi'''/(96 pi^2),
#   C2 = Psi''/(64 pi^2) + Psi^(6)/(18432 pi^4),
#   C3 = -Psi'/(64 pi^2) - Psi^(5)/(3840 pi^4) - Psi^(9)/(5308416 pi^6),
#   C4 = Psi/(128 pi^2) + 19 Psi^(4)/(24576 pi^4) + 11 Psi^(8)/(5898240 pi^6)
#        + Psi^(12)/(2038431744 pi^8)
# (Gabcke 1979).  Since d/dp = -2 d/dz, C_j has the parity of j in z: an even
# C_j is stored as a series in w = z^2, an odd one as z times such a series.
# Generated from the Taylor series of C0 with mpmath at 250 digits; each stops
# where the sum of the omitted |coefficients| is below 1e-17.
_RS_C1_C4 = (
    (  # C1
        0.026825102628375347,
        -0.013784773426351853,
        -0.038491250482235082,
        -0.0098710662990620765,
        0.0033107597608584043,
        0.0014647808577954151,
        1.3207940624876964e-5,
        -5.9227487018471413e-5,
        -5.9802425853734486e-6,
        9.6413224561698264e-7,
        1.8334733722714412e-7,
        -4.4670875627178336e-9,
        -2.7096350821772743e-9,
        -7.7852886543158510e-11,
        2.3437626010893689e-11,
        1.5830172789987522e-12,
        -1.2119941573723791e-13,
        -1.4583781161108307e-14,
        2.8786305258131918e-16,
        8.6628629021237241e-17,
    ),
    (  # C2
        0.0051885428302931685,
        3.0946583880634746e-4,
        -0.011335941078229373,
        0.0022330457419581448,
        0.0051966374088623302,
        3.4399144076208337e-4,
        -5.9106484274705828e-4,
        -1.0229972547935857e-4,
        2.0888392216992755e-5,
        5.9276654930965360e-6,
        -1.6423838362436276e-7,
        -1.5161199700940683e-7,
        -5.9078036982066680e-9,
        2.0911514859478189e-9,
        1.7815649583292351e-10,
        -1.6164072455353831e-11,
        -2.3806962496667616e-12,
        5.3982652955425949e-14,
        1.9750142196969515e-14,
        2.3332868732882635e-16,
        -1.1187517610048080e-16,
    ),
    (  # C3
        0.0013397160907194569,
        -0.0037442151363793937,
        0.0013303178919321468,
        0.0022654660765471787,
        -9.5484999985067304e-4,
        -6.0100384589636039e-4,
        1.0128858286776622e-4,
        6.8657334492998256e-5,
        -5.9853667915385982e-7,
        -3.3316598512399471e-6,
        -2.1919289102435081e-7,
        7.8908842456814944e-8,
        9.4146850812952622e-9,
        -9.5701162108834803e-10,
        -1.8763137453470663e-10,
        4.4378376793233993e-12,
        2.2426738505617353e-12,
        3.6276868657352437e-14,
        -1.7639809550821582e-14,
        -7.9607652467867778e-16,
        9.4196514905896908e-17,
    ),
    (  # C4
        4.6483389361763382e-4,
        -0.0010056607365340471,
        2.4044856573725793e-4,
        0.0010283086149702322,
        -7.6578610717556442e-4,
        -2.0365286803084818e-4,
        2.3212290491068728e-4,
        3.2602144243865198e-5,
        -2.5579062517949525e-5,
        -4.1074644389157448e-6,
        1.1781113640371294e-6,
        2.4456561422484579e-7,
        -2.3915824767344322e-8,
        -7.5052142070357553e-9,
        1.3312279416258428e-10,
        1.3440626754225620e-10,
        3.5137700424304859e-12,
        -1.5191544533703919e-12,
        -8.9154176814470873e-14,
        1.1195891165228536e-14,
        1.0516013329914815e-15,
        -5.1786552736466837e-17,
    ),
)
# C0..C4 stacked into one table of series in w = z^2, zero-padded at the high end,
# so that one elementwise Horner pass evaluates all five at every point.
_RS_SERIES = np.array(list(itertools.zip_longest(_RS_C0, *_RS_C1_C4, fillvalue=0.0))).T
# Height from which Gabcke's bound on the C4-truncated remainder holds.
RS_T_MIN = 200.0
_RS_BLOCK = 1 << 14  # entries in a block of the Riemann-Siegel main sum: 128 KB of its work buffer
# hardy_z_rs's allowance for the rounding of the phases theta(t) - t log n, in
# units of tau^{1/4} t log t: a phase rounds by about eps t log n, and the
# weights n^{-1/2} sum to about 2 tau^{1/4}
_RS_PHASE_ROUNDING = 16.0 * np.finfo(float).eps


def _riemann_siegel(t, want_deriv):
    """Z_RS(t) of :func:`riemann_siegel_z` on a 1-D array of t >= 7, or, if
    ``want_deriv``, (theta(t), Z_RS'(t)) with Z_RS' differentiated term by term:

        Z_RS' = -2 sum_{n<=N} n^{-1/2} (theta'(t) - log n) sin(theta(t) - t log n)
                + (-1)^{N-1} sum_{j<=4} d/dt [tau^{-1/4-j/2} C_j(z)],

    dp/dt being 1/(4 pi sqrt(tau)).  The main sum runs over the points sorted
    stably, in blocks of ``_RS_BLOCK`` entries or one row, rows of n in order, each
    row adding only the points it reaches; a block is taken in place in a work buffer
    of max(``_RS_BLOCK``, points) floats (two with ``want_deriv``).  A point's bits
    do not depend on the others, and memory is O(points + block).
    With ``want_deriv`` one Horner pass also carries the C-series' w-derivatives.
    """
    if not t.size:
        return (t.copy(), t.copy()) if want_deriv else t.copy()
    order = np.argsort(t, kind="stable")
    ts = t[order]
    root = np.sqrt(ts / _TWO_PI)
    n_terms = np.floor(root)
    theta = _theta_series(ts)
    n = np.arange(1.0, n_terms[-1] + 1.0)
    log_n, sqrt_n = np.log(n)[:, None], np.sqrt(n)[:, None]
    first = np.searchsorted(n_terms, n).tolist()  # the first point each row reaches
    theta_prime = _theta_prime(ts) if want_deriv else None
    work = np.empty(max(_RS_BLOCK, ts.size))
    weights = np.empty_like(work) if want_deriv else None
    total, row = np.zeros_like(ts), 0
    while row < n.size:
        lo = first[row]
        block = slice(row, row + max(1, _RS_BLOCK // (ts.size - lo)))
        log_b = log_n[block]
        terms = work[: log_b.size * (ts.size - lo)].reshape(log_b.size, -1)
        np.subtract(theta[lo:], np.multiply(log_b, ts[lo:], out=terms), out=terms)
        if want_deriv:
            weight = np.subtract(theta_prime[lo:], log_b, out=weights[: terms.size].reshape(terms.shape))
            np.multiply(np.sin(terms, out=terms), weight, out=terms)
        else:
            np.cos(terms, out=terms)
        terms /= sqrt_n[block]
        acc = total[lo:]
        for start, term in zip(first[block], terms):  # each row adds only the points it reaches
            if start > lo:
                acc, term = total[start:], term[start - lo :]
            acc += term
        row = block.stop
    z = 1.0 - 2.0 * (root - n_terms)
    w = z * z
    # the series in w and their w-derivatives, from the top column; zero padding leaves both at 0
    series = np.repeat(_RS_SERIES[:, -1:], ts.size, axis=1)
    slope = np.zeros_like(series)
    for column in _RS_SERIES.T[-2::-1, :, None]:
        if want_deriv:
            slope *= w
            slope += series
        series *= w
        series += column
    u = 1.0 / root
    sign = 2.0 * (n_terms % 2) - 1.0  # (-1)^{N-1}
    if want_deriv:
        # d/dt [tau^{-1/4} u^j C_j] with d/dp = -2 d/dz is
        # -tau^{-1/4} u^{j+1} / 2pi * ((1/4 + j/2) u C_j + dC_j/dz)
        corr = np.zeros_like(u)
        for j in range(len(series)):
            if j % 2:
                c_j, dc_j = z * series[j], series[j] + 2.0 * w * slope[j]
            else:
                c_j, dc_j = series[j], 2.0 * z * slope[j]
            corr += u**j * ((0.25 + 0.5 * j) * u * c_j + dc_j)
        value = -2.0 * total - sign * u / (_TWO_PI * np.sqrt(root)) * corr
    else:
        # sum_j C_j u^j by Horner in u = tau^{-1/2}; an odd C_j is z times its series
        corr = series[-1]
        for j in range(len(series) - 2, -1, -1):
            corr = corr * u + (z * series[j] if j % 2 else series[j])
        value = 2.0 * total + sign * corr / np.sqrt(root)
    out, thetas = np.empty_like(t), np.empty_like(t)
    out[order], thetas[order] = value, theta
    return (thetas, out) if want_deriv else out


def riemann_siegel_z(t):
    """Z(t) by the Riemann-Siegel formula through its C4 term, for t >= 7.

    With tau = t/2pi, N = floor(sqrt(tau)), p = sqrt(tau) - N and z = 1 - 2p,

        Z_RS = 2 sum_{n<=N} n^{-1/2} cos(theta(t) - t log n)
               + (-1)^{N-1} tau^{-1/4} sum_{j<=4} C_j(z) tau^{-j/2}.

    The five C_j come from one elementwise Horner pass over their stacked
    series, so each value depends on its own point alone, not on the others
    in t.  O(sqrt t) per point, against O(t) for :func:`hardy_z`.  No bound
    is attached here (see :func:`hardy_z_rs` from t = 200 on); below 200 the
    sum is still within 1.5e-5 of Z on [10, 20], close enough for the zero
    refinement to predict its roots with.
    """
    arr = np.asarray(t, dtype=float)
    if np.any(arr < _THETA_T_MIN):
        raise DomainError("riemann_siegel_z requires t >= 7")
    out = _riemann_siegel(arr.reshape(-1), want_deriv=False)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def hardy_z_rs(t):
    """Riemann-Siegel Z(t) through the C4 term, with a bound on its error.

    Z_RS is :func:`riemann_siegel_z`.  Gabcke's bound on the remainder after
    C4 is 0.017 tau^{-11/4} for t >= 200 (Gabcke 1979, tabulated by Gourdon
    2004; Edwards, *Riemann's Zeta Function*, ch. 7): 1.2e-6 at t = 200,
    2.6e-11 at 1e4.  The rounding of the phases theta(t) - t log n then
    dominates, and the bound adds 16 eps tau^{1/4} t log t for it (2.1e-9 at
    t = 1e4, 4.6e-8 at 1e5): stated, not proven.  Against Euler-Maclaurin the
    measured error stays below 0.015 of the whole bound at 300 log-uniform
    points on [200, 1e5].  :func:`hardy_z` stays the reference.

    Returns:
        (Z_RS, bound), scalars or arrays shaped like t.

    Raises:
        DomainError: if any t < 200, where Gabcke's bound is not established.
    """
    arr = np.asarray(t, dtype=float)
    if np.any(arr < RS_T_MIN):
        raise DomainError(f"hardy_z_rs requires t >= {RS_T_MIN:g}")
    tau = arr / _TWO_PI
    bound = 0.017 * tau**-2.75 + _RS_PHASE_ROUNDING * tau**0.25 * arr * np.log(arr)
    return riemann_siegel_z(arr), (float(bound) if arr.ndim == 0 else bound)


def zeta_prime_at_zeros(gammas):
    """zeta'(1/2 + i gamma) at ordinates gamma of zeros of zeta.

    Z(t) = e^{i theta(t)} zeta(1/2 + it) and Z(gamma) = 0, so at a zero
    zeta'(rho) = -i e^{-i theta(gamma)} Z'(gamma) exactly.  From RS_T_MIN on,
    Z' is the derivative of the Riemann-Siegel formula through C4
    (:func:`_riemann_siegel`): O(sqrt t) a point, against O(t) for
    Euler-Maclaurin.  Below RS_T_MIN the points go to :func:`zeta_and_deriv`.
    At an ordinate that is not a zero the result is not zeta'.

    No bound on the derivative of the Riemann-Siegel remainder is proven
    here.  Measured against mpmath, Z' is within 2e-10 at 200 < t < 300,
    where the truncation after C4 shows, 5e-11 at 300-400 and 3e-11 from
    400 to 1e4, where the rounding of the phases t log n does.  At an
    ordinate gamma + delta the identity misses about theta'(gamma) Z'(gamma)
    delta: at the 4,520 stored zeros below 5000 (delta up to 1e-11) the
    result is within 2.8e-10 absolute and 8.8e-11 relative of
    Euler-Maclaurin's zeta' at the stored ordinate.

    Each point from RS_T_MIN on is computed on its own, so its value does not
    depend on the other points of the call; the points below share
    Euler-Maclaurin's chunk cutoff.

    Args:
        gammas: real scalar or array of zero ordinates.

    Returns:
        complex scalar or array shaped like ``gammas``.
    """
    arr = np.asarray(gammas, dtype=float)
    flat = arr.reshape(-1)
    out = np.empty(flat.shape, dtype=complex)
    low = flat < RS_T_MIN
    out[low] = zeta_and_deriv(0.5 + 1j * flat[low])[1]
    theta, z_prime = _riemann_siegel(flat[~low], want_deriv=True)
    out[~low] = -z_prime * (np.sin(theta) + 1j * np.cos(theta))
    return out.item() if arr.ndim == 0 else out.reshape(arr.shape)
