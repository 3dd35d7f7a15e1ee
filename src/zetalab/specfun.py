"""Complex special functions underpinning the laboratory.

All routines accept scalars or numpy arrays and evaluate in double precision:

* :func:`log_gamma` -- principal-branch log Gamma (Stirling series plus upward
  recurrence).
* :func:`exp_integral_e1` -- exponential integral E1 with the cut along the
  negative real axis: power series near 0 and near the cut, and elsewhere
  the continued fraction (backward, at a fixed depth) or the asymptotic
  series, each taken only as deep as the point's |z| needs for 2^-53
  (:func:`_e1_depth`, which ``hybrid.kernel_U_batch`` shares).
* :func:`riemann_siegel_theta` -- Im log Gamma(1/4 + it/2) - (t/2) log pi.
* :func:`zeta_and_deriv` -- zeta and zeta' by Euler-Maclaurin with an analytic
  term-by-term derivative (no numerical differentiation).  The points of a
  call are taken in chunks of ascending |Im s|, and each chunk's main sum
  stops at M = 30 + ceil(|Im s|/pi) of its own highest point; the number of
  Bernoulli corrections is the fewest for which Backlund's remainder bound,
  and a Cauchy bound on its derivative, are <= 1e-15.  The main sum takes an
  exp only at the primes below M and builds every other n^{-s} by complete
  multiplicativity, one multiply per term.
* :func:`hardy_z` -- the real-valued rotation of zeta on the critical line.
* :func:`hardy_z_rs` -- Z by the Riemann-Siegel formula, with its proven error
  bound.

Everything here is pure and reentrant; there is no shared mutable state.
"""

import math

import numpy as np

from .errors import BranchCutError, CapabilityError, DomainError, PoleError

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
_HALF_LOG_2PI = 0.5 * math.log(_TWO_PI)
_IM_S_LIMIT = 1.0e5
# log of the bound the Euler-Maclaurin remainders of zeta and zeta' are held to
_EM_LOG_TOL = math.log(1e-15)


def _asarray_complex(z):
    arr = np.asarray(z, dtype=complex)
    return arr, arr.ndim == 0


def _stirling_series(z):
    """The correction sum of the Stirling series: sum_j B_2j/(2j(2j-1)) z^{1-2j}, 12 terms."""
    zinv2 = 1.0 / (z * z)
    corr = np.zeros_like(z)
    power = 1.0 / z
    for c in _STIRLING:
        corr = corr + c * power
        power = power * zinv2
    return corr


def _stirling_log_gamma(z):
    """Stirling series, valid for Re(z) >= 10 (or |z| >= 10 with |arg z| <= pi/2)."""
    out = (z - 0.5) * np.log(z) - z + _HALF_LOG_2PI
    return out + _stirling_series(z)


def log_gamma(z):
    """Principal branch of log Gamma(z).

    Satisfies exp(log_gamma(z)) = Gamma(z) and the recurrence
    log_gamma(z+1) = log_gamma(z) + log z away from the cut (-inf, 0].

    Raises:
        PoleError: if z is a non-positive integer (a pole of Gamma).
    """
    arr, scalar = _asarray_complex(z)
    on_pole = (arr.imag == 0) & (arr.real <= 0) & (arr.real == np.floor(arr.real))
    if np.any(on_pole):
        bad = arr[on_pole].flat[0]
        raise PoleError(f"Gamma has a pole at z = {bad.real:g}")

    work = arr.copy()
    shift = np.zeros_like(work)
    # Upward recurrence into the Stirling region: Re z >= 10, or Re z >= 0 with
    # |Im z| >= 10, where |z| >= 10 and |arg z| <= pi/2 bound the remainder of
    # the 12-term series by 2e-18.  log_gamma(z) = log_gamma(z + n) - sum
    # log(z + i) reproduces the principal branch because both sides are
    # analytic off (-inf, 0] and agree on the positive reals.
    while True:
        need = (work.real < 10.0) & ((work.real < 0.0) | (np.abs(work.imag) < 10.0))
        if not np.any(need):
            break
        shift = np.where(need, shift + np.log(work), shift)
        work = np.where(need, work + 1.0, work)
    out = _stirling_log_gamma(work) - shift
    return out.item() if scalar else out


def _e1_series(z, n_terms):
    """Power series E1(z) = -gamma - log z - sum (-z)^m / (m! m).

    Alternating (hence cancellation-prone) for Re z > 0, but term signs align
    in the left half-plane, which makes it the accurate route near the cut.
    """
    acc = np.zeros_like(z)
    term = np.ones_like(z)
    for m in range(1, n_terms + 1):
        term = term * (-z) / m
        acc = acc + term / m
    return -GAMMA0 - np.log(z) - acc


# |z| below which the power series is the production route everywhere.
_E1_CROSSOVER = 4.0
# |z| from which the asymptotic expansion replaces the continued fraction.
_E1_ASYMPTOTIC_MIN = 40.0
# Largest |arg z| for which the continued fraction / asymptotic expansion is
# used above the crossover.  The fraction converges for |arg z| < pi but
# impractically slowly near the cut, where the series has aligned term signs
# and stays accurate instead.
_E1_CF_ARG_MAX = 2.0
# The fraction's depth is ceil(_E1_CF_REACH / |z|).  Its truncation error
# behaves like exp(-4 cos(arg z / 2) sqrt(depth |z|)), worst at |arg z| = 2.
# There the fewest depths for 2^-53 relative, measured against mpmath, are 78,
# 62, 51, 37, 29, 22, 17, 14, 11, 9 and 7 at |z| = 4, 5, 6, 8, 10, 13, 16, 20,
# 25, 32 and 40, all at most 320 / |z|.
_E1_CF_REACH = 320.0
# For |arg z| <= 2 the asymptotic series' remainder after its z^-n term is at
# most csc(2) (n+1)! / |z|^(n+1) times its leading term (DLMF 6.12.1).  Entry n
# is the |z| from which that bound is 2^-53; the entries fall with n, and the
# last one (n = 33) is the first below _E1_ASYMPTOTIC_MIN.
_E1_ASYMPTOTIC_REACH = np.exp(
    [(math.lgamma(n + 2) - math.log(2.0**-53 * math.sin(_E1_CF_ARG_MAX))) / (n + 1) for n in range(34)]
)


def _e1_depth(r):
    """The depth of E1's route at points with |z| >= r, for r >= 4 and |arg z| <= 2.

    Below ``_E1_ASYMPTOTIC_MIN`` it is the number of backward steps of the
    continued fraction, ceil(320 / r); from there on it is the highest power
    n of the asymptotic series, the fewest whose remainder bound is 2^-53.
    Both fall as r grows, so the depth at a chunk's smallest |z| serves the
    whole chunk.  Scalar or array r; integer result.
    """
    r = np.asarray(r, dtype=float)
    fraction = np.ceil(_E1_CF_REACH / r)
    asymptotic = np.searchsorted(-_E1_ASYMPTOTIC_REACH, -r)  # entries above r
    return np.where(r < _E1_ASYMPTOTIC_MIN, fraction, asymptotic).astype(int)


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


def _e1_asymptotic(z, terms):
    """Large-|z| expansion e^{-z}/z * sum_{m <= n} (-1)^m m! / z^m, n = terms per point.

    Nested Horner form; z is ordered by non-increasing n.  With n from
    :func:`_e1_depth` the remainder is below 2^-53 relative for |arg z| <= 2.
    """
    w = 1.0 / z
    acc = np.ones_like(z)
    for m, k in _backward_steps(terms):
        head = acc[:k]
        head *= -float(m) * w[:k]
        head += 1.0
    return np.exp(-z) * w * acc


def exp_integral_e1(z):
    """Exponential integral E1(z), principal branch, cut along (-inf, 0].

    Power series for |z| < 4.  Above, in the sector |arg z| <= 2, the
    continued fraction by its backward recurrence below |z| = 40 and the
    asymptotic expansion from there on, each at the depth :func:`_e1_depth`
    gives for the point's own |z|: 80 down to 8 backward steps, or 33 terms
    at |z| = 40 down to 12 at 100 and 6 at 1000, for a truncation error
    below 2^-53 relative.  In the near-cut sector |arg z| > 2 the
    (cancellation-free) series is kept.

    Raises:
        DomainError: if z = 0 (logarithmic singularity).
        BranchCutError: if z lies on the negative real axis.
    """
    arr, scalar = _asarray_complex(z)
    if np.any(arr == 0):
        raise DomainError("E1 has a logarithmic singularity at z = 0")
    on_cut = (arr.imag == 0) & (arr.real < 0)
    if np.any(on_cut):
        raise BranchCutError("E1 is not defined on the negative real axis (branch cut)")

    absz = np.abs(arr)
    out = np.empty_like(arr)

    small = absz < _E1_CROSSOVER
    if np.any(small):
        out[small] = _e1_series(arr[small], 64)

    large = ~small
    if np.any(large):
        zl = arr[large]
        res = np.empty_like(zl)
        near_cut = np.abs(np.angle(zl)) > _E1_CF_ARG_MAX
        if np.any(near_cut):
            zc = zl[near_cut]
            n_terms = int(3.2 * np.abs(zc).max()) + 48
            res[near_cut] = _e1_series(zc, n_terms)
        sector = np.flatnonzero(~near_cut)
        r = np.abs(zl[sector])
        depth = _e1_depth(r)
        far = r >= _E1_ASYMPTOTIC_MIN
        for route, pick in ((_e1_fraction, ~far), (_e1_asymptotic, far)):
            if np.any(pick):
                order = np.argsort(-depth[pick], kind="stable")
                idx = sector[pick][order]
                res[idx] = route(zl[idx], depth[pick][order])
        out[large] = res

    return out.item() if scalar else out


def riemann_siegel_theta(t):
    """theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi for t >= 2."""
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    if np.any(arr < 2.0):
        raise DomainError("riemann_siegel_theta requires t >= 2")
    lg = log_gamma(0.25 + 0.5j * arr)
    out = np.imag(lg) - 0.5 * arr * math.log(math.pi)
    return float(out) if scalar else out


def _em_depth(s_abs, sigma, m_cut):
    """Fewest Euler-Maclaurin corrections p whose remainders are proven below 1e-15.

    With the main sum cut at M, Backlund's bound on the remainder after p
    corrections is

        |R_p(s)| <= |s+2p+1| / (sigma+2p+1) * |B_{2p+2}/(2p+2)! (s)_{2p+1} M^{-s-2p-1}|,

    and Cauchy's estimate on the circle |w - s| = r = 1/log M (where
    |M^{-w}| <= e |M^{-s}|) bounds |R_p'(s)| by max |R_p(w)| / r.  Both are
    taken at the largest |s| and the smallest Re s of the call, in logs.

    Raises:
        CapabilityError: if no p <= _EM_MAX_DEPTH meets both bounds, which
            only an M far below |s| can cause.
    """
    log_m = math.log(m_cut)
    r = 1.0 / log_m
    log_poch = log_poch_r = 0.0  # log of bounds on |(s)_{2p+1}| and |(w)_{2p+1}|
    for p in range(_EM_MAX_DEPTH + 1):
        for i in range(max(0, 2 * p - 1), 2 * p + 1):
            log_poch += math.log(s_abs + i) if s_abs + i > 0 else -math.inf
            log_poch_r += math.log(s_abs + r + i)
        if sigma + 2 * p + 1 - r <= 0:
            continue
        head = math.log(abs(_EM_COEFFS[p])) - (sigma + 2 * p + 1) * log_m
        rem = head + log_poch + math.log((s_abs + 2 * p + 1) / (sigma + 2 * p + 1))
        drem = head + log_poch_r + 1.0 + math.log((s_abs + r + 2 * p + 1) / (sigma - r + 2 * p + 1) / r)
        if max(rem, drem) <= _EM_LOG_TOL:
            return p
    raise CapabilityError(
        f"Euler-Maclaurin truncation M = {m_cut} is too short for |s| = {s_abs:g}: "
        f"no depth <= {_EM_MAX_DEPTH} bounds the remainder by 1e-15"
    )


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


def _main_sums(s, m_cut, want_deriv):
    """sum_{n<M} n^{-s} and, if wanted, its derivative -sum_{n<M} log(n) n^{-s}.

    n^{-s} is completely multiplicative, so exp(-s log p) is taken only at the
    primes p < M; every composite is the product of two entries already in the
    table, spf(n)^{-s} (n/spf(n))^{-s}, filled one Omega level at a time.  The
    rows hold n = 1..M-1 in order of Omega(n), so each level is one slice.
    Takes a 1-D array s and returns an array of shape (1 + want_deriv, len(s)).
    """
    spf, omega = _spf_omega(m_cut)
    order = 1 + np.argsort(omega[1:], kind="stable")  # the n of each row
    row = np.empty(m_cut, dtype=np.intp)
    row[order] = np.arange(m_cut - 1)
    spf_row, rest_row = row[spf[order]], row[order // spf[order]]
    bounds = np.cumsum(np.bincount(omega[1:], minlength=2))  # row 0 is n = 1
    log_n = np.log(order)
    weights = np.stack((np.ones_like(log_n), -log_n)[: 1 + want_deriv])

    table = np.empty((m_cut - 1, s.size), dtype=complex)
    table[0] = 1.0
    np.exp(np.multiply.outer(-log_n[1 : bounds[1]], s), out=table[1 : bounds[1]])
    for a, b in zip(bounds[1:-1], bounds[2:]):
        np.multiply(table[spf_row[a:b]], table[rest_row[a:b]], out=table[a:b])
    # one real product over the table; einsum, not BLAS, whose threaded dgemm
    # at this shape stalled by tens of ms a call on a 2-core Xeon
    return np.einsum("kn,np->kp", weights, table.view(float)).view(complex)


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

    # corrections c_j (s)_{2j-1} M^{-s-2j+1} = c_j q_j M^{-s}: the scaled rising
    # factorial q_j = (s)_{2j-1} / M^{2j-1} stays near |s/M|^{2j-1}, where
    # (s)_{2j-1} alone would overflow at depth 40 and |s| = 1e5
    q = s / m_cut
    dq = np.full_like(s, 1.0 / m_cut)  # dq/ds
    corr = np.zeros_like(s)
    dcorr = np.zeros_like(s) if want_deriv else None
    for j, c in enumerate(_EM_COEFFS[:depth], start=1):
        corr += c * q
        if want_deriv:
            dcorr += c * (dq - log_m * q)
        for i in (2 * j - 1, 2 * j):
            f = (s + i) / m_cut
            if want_deriv:
                dq = dq * f + q / m_cut
            q = q * f
    z += corr * m_pow
    if want_deriv:
        dz += dcorr * m_pow
    return z, dz


def _cutoff(t):
    """The main-sum cutoff M for heights |Im s| <= t."""
    return 30 + math.ceil(t / math.pi)


def _zeta_em(s, want_deriv):
    """The checked path of both public EM routines: (z, dz, scalar) for s.

    The points are taken in ascending |Im s|, in chunks of at most _EM_CHUNK
    points and _TABLE_ENTRIES table entries, and each chunk gets the cutoff M
    and the depth of its own highest point.
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
    z = np.empty_like(flat)
    dz = np.empty_like(flat) if want_deriv else None
    lo = 0
    while lo < flat.size:
        hi = min(lo + _EM_CHUNK, flat.size)
        hi = min(hi, lo + _TABLE_ENTRIES // (_cutoff(heights[hi - 1]) - 1))
        idx = order[lo:hi]
        chunk = flat[idx]
        m_cut = _cutoff(heights[hi - 1])
        depth = _em_depth(float(np.abs(chunk).max()), float(chunk.real.min()), m_cut)
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
    There is no argument to set M.  The number of Bernoulli corrections is
    the fewest (at most 40) for which Backlund's bound on the remainder of
    zeta, and a Cauchy bound on the remainder of zeta', are both <= 1e-15 at
    the chunk's M (see :func:`_em_depth`); it is at most 28 for
    |Im s| <= 1e5.  The derivative is the term-by-term analytic derivative of
    the same expansion.  What remains is rounding in the main sum: zeta' at
    the zeros up to T = 5000 is within 2e-11 of mpmath.  Of the M - 1
    main-sum terms n^{-s}, only the pi(M) at the primes take an exp; every
    other one is a single multiply of two earlier terms, and both sums come
    from one real product over that table.

    Args:
        s: complex scalar or array of points, none equal to 1.

    Raises:
        PoleError: if any s equals 1.
        CapabilityError: if |Im s| exceeds 1e5.
    """
    z, dz, scalar = _zeta_em(s, want_deriv=True)
    if scalar:
        return z.item(), dz.item()
    return z, dz


def zeta_only(s):
    """zeta(s) alone (skips the derivative accumulation; hot path for zero scans).

    Same per-chunk cutoff M and bound-driven depth as :func:`zeta_and_deriv`,
    and likewise no argument to set M.
    """
    z, _, scalar = _zeta_em(s, want_deriv=False)
    return z.item() if scalar else z


def hardy_z(t):
    """Hardy's Z(t) = Re(e^{i theta(t)} zeta(1/2 + it)) for t >= 2.

    Z is real with |Z(t)| = |zeta(1/2+it)|; its sign changes locate the
    critical-line zeros.
    """
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    if np.any(arr < 2.0):
        raise DomainError("hardy_z requires t >= 2")
    theta = riemann_siegel_theta(arr)
    zeta = zeta_only(0.5 + 1j * arr)
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
# Height from which Gabcke's bound on the C0-truncated remainder holds.
RS_T_MIN = 200.0


def hardy_z_rs(t):
    """Riemann-Siegel Z(t) through the C0 term, with Gabcke's bound on its error.

    With tau = t/2pi, N = floor(sqrt(tau)) and p = sqrt(tau) - N,

        Z_RS = 2 sum_{n<=N} n^{-1/2} cos(theta(t) - t log n)
               + (-1)^{N-1} tau^{-1/4} C0(p),

    and |Z(t) - Z_RS| <= 0.127 tau^{-3/4} for t >= 200 (Gabcke 1979; Edwards,
    *Riemann's Zeta Function*, ch. 7).  O(sqrt t) per point, against O(t) for
    :func:`hardy_z`, which stays the reference.

    Returns:
        (Z_RS, bound), scalars or arrays shaped like t.

    Raises:
        DomainError: if any t < 200, where the bound is not established.
    """
    arr = np.asarray(t, dtype=float)
    if np.any(arr < RS_T_MIN):
        raise DomainError(f"hardy_z_rs requires t >= {RS_T_MIN:g}")
    flat = arr.reshape(-1)
    z_rs = np.empty_like(flat)
    for lo in range(0, flat.size, 2048):
        tc = flat[lo : lo + 2048]
        root = np.sqrt(tc / _TWO_PI)
        n_terms = np.floor(root)
        n = np.arange(1.0, n_terms.max() + 1.0)
        phase = riemann_siegel_theta(tc)[:, None] - np.multiply.outer(tc, np.log(n))
        terms = np.where(n <= n_terms[:, None], np.cos(phase) / np.sqrt(n), 0.0)
        w = (1.0 - 2.0 * (root - n_terms)) ** 2
        c0 = np.zeros_like(w)
        for c in reversed(_RS_C0):
            c0 = c0 * w + c
        sign = np.where(n_terms % 2 == 1, 1.0, -1.0)  # (-1)^{N-1}
        z_rs[lo : lo + 2048] = 2.0 * terms.sum(axis=1) + sign * c0 / np.sqrt(root)
    bound = 0.127 * (arr / _TWO_PI) ** -0.75
    if arr.ndim == 0:
        return float(z_rs[0]), float(bound)
    return z_rs.reshape(arr.shape), bound
