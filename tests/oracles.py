"""Independent references the tests check the package against.

None of these runs on a path of the package itself:

* :func:`u_weight`, the mass-1 weight u(y) of the hybrid smoothing, the
  integrand of :func:`kernel_U` and the density behind ``hybrid.mass_above``;
* :func:`kernel_U`, the hybrid kernel by adaptive quadrature, the reference
  of :func:`kernel_U_batch`'s fixed panels;
* :func:`kernel_U_batch`, U by parts per z, one E1 and one row of cos and
  sin per z on its chunk's nodes, the reference of ``hybrid``'s window sum
  (one Dirichlet kernel per node for the j-sum of ``_f_x_direct_values``);
* :func:`kernel_U_panels`, the same panel sums with one E1 per node, the
  reference of both sums by parts;
* :func:`divisor_general`, the generalized divisor function, the reference
  of ``arithmetic.a_coeffs``'s convolution;
* :func:`poly_coeff`, one coefficient a_k(m) of an ``arithmetic.DirichletPoly``,
  and :func:`tail_bound`, the bound on its truncated series at s = 1/2 by the
  divisor function d_{|k|}(m);
* :func:`a1_term` and :func:`b1_term`, the twisted moment's A1(1, m) and
  B1(m, T) at one m from the factorization of m;
* :func:`p_x_euler_trial_division`, P_X by the exponential form with its
  prime powers found by trial division of every n <= X, the bit-for-bit
  reference of ``arithmetic.p_x_euler``'s walk over the sieve's primes;
* :func:`px_support_sum` and :func:`twisted_support_sum`, the m-sums of
  ``px_mean`` and ``twisted_first_moment`` term by term over the support of
  ``arithmetic.a_coeffs``, the references of their closed forms over the
  primes;
* :func:`twisted_m_sum_triangular`, the same closed form with its sum over
  prime pairs taken over the upper triangle of the pi(X) x pi(X) outer
  product, the reference of ``experiments._twisted_m_sum``'s running sum;
* :func:`haar_angle_batch` and :func:`zprime_pow_rows`, Haar matrices by
  QR+eig and the Z'^k statistic at their eigenangles, the reference of the
  Verblunsky-factor samplers in ``rmt``;
* :func:`weighted_verblunsky_rejection`, the weighted Verblunsky
  coefficients by rejection from their Haar law, the reference of
  ``rmt._weighted_verblunsky``'s exact draw;
* :func:`szego_power_sums_phase`, Szegő's recursion with the phase of
  Phi_i(1) summed from the factors' args, the reference of
  ``rmt._szego_power_sums``'s rotated frame;
* :func:`weighted_verblunsky_allocating`, :func:`szego_power_sums_allocating`
  and :func:`verblunsky_draw_allocating`, the Monte-Carlo draw with a fresh
  array for every step, the bit-for-bit references of ``rmt``'s in-place draw;
* :func:`em_main_sums`, the Euler-Maclaurin main sums with one exp per term,
  the reference of ``specfun._main_sums``'s multiplicative table;
* :func:`em_depth_loop`, the Euler-Maclaurin depth by a loop over p, the
  reference of ``specfun._em_depth``'s all-p-at-once arrays;
* :func:`em_corrections_loop`, the Euler-Maclaurin corrections by a loop over
  j, the reference of ``specfun._em_corrections``'s one-pass sums;
* :func:`riemann_siegel_chunked`, the Riemann-Siegel kernel in 2,048-point
  chunks of the caller's order, each over a (terms x points) table padded to
  its largest term count, the bit-for-bit reference of
  ``specfun._riemann_siegel``'s row blocks over sorted points;
* :func:`within`, whether a ``rmt.MomentEstimate`` holds a target inside its
  componentwise band of standard errors;
* :func:`weyl_average`, the Weyl integral on U(n), n <= 3, by a sum over the
  tensor grid of n lattice angles, and :func:`weyl_oracle_tensor_grid`, the
  Z'^k oracle as an (n-1)-angle such sum, the reference of
  ``rmt.weyl_quadrature_oracle``'s Toeplitz determinant.
"""

import math

import numpy as np
from scipy.integrate import quad

from zetalab.errors import CapabilityError, DomainError
from zetalab.arithmetic import (
    _prime_power_limit,
    _smooth_expand,
    factorize,
    prime_power_sums,
    sieve_primes,
    von_mangoldt,
)
from zetalab.hybrid import _by_parts_nodes, _panel_count, _raw_bump, _u_nodes
from zetalab.powerseries import binomial_series
from zetalab.rmt import _FACTOR_BATCH, _require_grid, _turn
from zetalab.specfun import (
    _EM_COEFFS,
    _EM_LOG_TOL,
    _EM_MAX_DEPTH,
    _RS_SERIES,
    GAMMA0,
    _theta_prime,
    exp_integral_e1,
    riemann_siegel_theta,
)

_COINCIDENCE_TOL = 1e-14
_TWO_PI = 2.0 * math.pi
_U_CHUNK = 256  # z values per kernel_U_batch chunk
_WEYL_BLOCK = 1 << 16  # grid points evaluated at once by weyl_average
_RS_CHUNK = 2048  # points per riemann_siegel_chunked chunk


def u_weight(y, spec):
    """The mass-1 weight u(y) = Y f(Y log(y/e) + 1)/y, zero outside [e^{1-1/Y}, e],
    with f the mass-1 bump on [0, 1]."""
    arr = np.asarray(y, dtype=float)
    scalar = arr.ndim == 0
    if np.any(arr <= 0.0):
        raise DomainError("u_weight requires y > 0")
    yy = spec.y_sharpness
    out = yy * (_raw_bump(yy * (np.log(arr) - 1.0) + 1.0) / spec.normalization) / arr
    return float(out) if scalar else out


def kernel_U(z, spec):
    """U(z) = integral of u(y) E1(z log y) dy by adaptive quadrature (1e-12 abs and rel).

    Raises:
        DomainError: at z = 0, where the kernel has a logarithmic singularity
            (and for z on the negative real axis, which would put every
            E1 argument on the cut).
    """
    z = complex(z)
    if z == 0:
        raise DomainError("U(z) has a logarithmic singularity at z = 0")
    if z.imag == 0 and z.real < 0:
        raise DomainError("z on the negative real axis puts E1 on its branch cut")
    lo, hi = spec.support
    val, _ = quad(
        lambda y: u_weight(y, spec) * exp_integral_e1(z * math.log(y)),
        lo,
        hi,
        epsabs=1e-12,
        epsrel=1e-12,
        limit=200,
        complex_func=True,
    )
    return val


def kernel_U_batch(z_values, spec):
    """U on an array of z values with Re z >= 0, by fixed composite Gauss-Legendre in y.

    The z values are taken in chunks of ``_U_CHUNK`` by ascending |z|, each
    on as many panels as ``hybrid._panel_count`` gives the chunk's largest
    |z|, and summed by parts (``hybrid._by_parts_nodes``): one E1 per z, and
    e^{-z l} from the real cos and sin of Im z l (times e^{-Re z l} where
    Re z != 0).  With Re z >= 0, |e^{-z l}| <= 1; for |z| <= 800 the sum is
    within 5.2e-14 of :func:`kernel_U_panels` at Y = 1, and within 4.2e-15 at
    Y = 4.  For Re z < 0 the factors e^{-z l} grow and E1(z) and the sum
    would cancel, so such points are refused.

    Raises:
        DomainError: if any z has Re z < 0.
    """
    z = np.asarray(z_values, dtype=complex)
    flat = z.reshape(-1)
    if flat.size and flat.real.min() < 0.0:
        raise DomainError(f"kernel_U_batch supports Re z >= 0 (got {flat.real.min():g})")
    order = np.argsort(np.abs(flat))
    res = np.empty(flat.shape, dtype=complex)
    for lo in range(0, flat.size, _U_CHUNK):
        idx = order[lo : lo + _U_CHUNK]
        zc = flat[idx]
        ell, v = _by_parts_nodes(_panel_count(np.abs(zc[-1]), spec), spec)
        phase = np.multiply.outer(zc.imag, ell)
        decay = np.exp(np.multiply.outer(-zc.real, ell))
        res[idx] = exp_integral_e1(zc) + (decay * np.cos(phase)) @ v - 1j * ((decay * np.sin(phase)) @ v)
    return res.reshape(z.shape)


def kernel_U_panels(z_values, spec):
    """sum_q W_q E1(z l_q) on the nodes :func:`kernel_U_batch` gives each z.

    The z values are chunked as there, by ascending |z|, and every chunk takes
    one E1 per (z, node), whatever its |z|.
    """
    flat = np.asarray(z_values, dtype=complex).reshape(-1)
    order = np.argsort(np.abs(flat))
    out = np.empty_like(flat)
    for lo in range(0, flat.size, _U_CHUNK):
        idx = order[lo : lo + _U_CHUNK]
        y, ell, w = _u_nodes(_panel_count(np.abs(flat[idx]).max(), spec), spec)
        out[idx] = exp_integral_e1(np.multiply.outer(flat[idx], ell)) @ (u_weight(y, spec) * w)
    return out.reshape(np.shape(z_values))


def divisor_general(k, m):
    """Generalized divisor function d_k(m), multiplicative with d_k(p^r) = C(k+r-1, r).

    Computed as the rising-factorial product k(k+1)...(k+r-1)/r!, which is
    valid for every complex k (including negative integers, where it vanishes
    for large r).
    """
    if m < 1:
        raise DomainError("divisor_general requires m >= 1")
    k = complex(k)
    out = 1.0 + 0j
    for _, r in factorize(m).items():
        val = 1.0 + 0j
        for i in range(r):
            val *= (k + i) / (i + 1)
        out *= val
    return out


def poly_coeff(poly, m):
    """a_k(m) of the DirichletPoly ``poly``: 0 off its support."""
    idx = np.searchsorted(poly.m, m)
    if idx < len(poly.m) and poly.m[idx] == m:
        return complex(poly.a[idx])
    return 0j


def tail_bound(poly):
    """Bound on |sum_{smooth m > m_max} a_k(m) m^{-1/2}| for the DirichletPoly ``poly``.

    Uses |a_k(m)| <= d_{|k|}(m): the full smooth Euler product of
    d_{|k|}(m) m^{-1/2} minus the part captured by the support.  Per prime,
    d_{|k|}(p^r) is the coefficient of z^r in (1 - z)^{-|k|}.
    """
    kk = abs(complex(poly.k))
    primes = [int(p) for p in sieve_primes(int(poly.x_cutoff))]
    full = math.prod((1.0 - p**-0.5) ** (-kk) for p in primes)
    tables = [binomial_series(-kk, _prime_power_limit(p, poly.m_max) + 1) for p in primes]
    m, d = _smooth_expand(primes, tables, poly.m_max)
    captured = np.sum(np.abs(d) / np.sqrt(m))
    return max(full - captured, 0.0)


def _a1(fac):
    """A1(1, m) from the factorization {p: a} of m."""
    if len(fac) == 1:
        (p,) = fac.keys()
        lp = math.log(p)
        return p * lp * lp / (p - 1.0) ** 2
    return 0.0


def _b1_parts(fac):
    """B1(m, T) = b0 + b1 log(T/2pi): the pair (b0, b1) from the factorization
    {p: a} of m, for the prime-power and two-prime cases of the twisted
    subsidiary term:

        m = p^a:          B1 = -(p/(p-1)) (log p (log(T/2pi) - 1 + gamma0) + (a - 1/2) log^2 p)
        m = p1^a1 p2^a2:  B1 = p1 p2 / ((p1-1)(p2-1)) log p1 log p2
        otherwise 0.
    """
    if len(fac) == 1:
        ((p, a),) = fac.items()
        lp = math.log(p)
        slope = -(p / (p - 1.0)) * lp
        return slope * (GAMMA0 - 1.0 + (a - 0.5) * lp), slope
    if len(fac) == 2:
        (p1, p2) = fac.keys()
        return p1 * p2 / ((p1 - 1.0) * (p2 - 1.0)) * math.log(p1) * math.log(p2), 0.0
    return 0.0, 0.0


def a1_term(m):
    """A1(1, m): p (log p)^2 / (p-1)^2 on prime powers m = p^a, else 0."""
    if m < 2:
        raise DomainError("A1 requires m >= 2")
    return _a1(factorize(m))


def b1_term(m, t_height):
    """B1(m, T) = b0 + b1 log(T/2pi) of :func:`_b1_parts`."""
    if m < 2:
        raise DomainError("B1 requires m >= 2")
    b0, b1 = _b1_parts(factorize(m))
    return b0 + b1 * math.log(t_height / _TWO_PI)


def p_x_euler_trial_division(s, k, x_cutoff):
    """``arithmetic.p_x_euler``: exp(k sum_{n<=X} Lambda(n)/(log n n^s)), Lambda by trial division."""
    k = complex(k)
    arr = np.asarray(s, dtype=complex)
    scalar = arr.ndim == 0
    n_max = int(x_cutoff)
    acc = np.zeros(arr.shape, dtype=complex)
    for n in range(2, n_max + 1):
        lam = von_mangoldt(n)
        if lam:
            acc = acc + (lam / math.log(n)) * np.exp(-arr * math.log(n))
    out = np.exp(k * acc)
    return out.item() if scalar else out


def px_support_sum(poly):
    """sum_m a_k(m) Lambda(m)/m over the support of ``poly``, one m at a time."""
    total = 0j
    for m, a in zip(poly.m.tolist(), poly.a.tolist()):
        fac = factorize(m)
        if len(fac) == 1:
            total += a * math.log(next(iter(fac))) / m
    return total


def twisted_support_sum(poly, t_height):
    """sum_{m>=2} (a_{-1}(m)/m) (A1(1,m) + B1(m,T)) over the support of the
    k = -1 ``poly``, one m at a time.  B1 is linear in log(T/2pi), so the
    m-sum is msum0 + msum1 log(T/2pi)."""
    msum0 = msum1 = 0.0
    for m, a in zip(poly.m.tolist(), poly.a.tolist()):
        if m < 2:
            continue
        coeff = a.real  # a_{-1} is real
        if coeff == 0.0:
            continue
        fac = factorize(m)
        b0, b1 = _b1_parts(fac)
        msum0 += coeff / m * (_a1(fac) + b0)
        msum1 += coeff / m * b1
    return msum0 + msum1 * math.log(t_height / _TWO_PI)


def twisted_m_sum_triangular(t_height, x_cutoff):
    """``experiments._twisted_m_sum`` with sum_{p<q} c_p c_q S0_p S0_q taken
    over the upper triangle of the outer product of c S0 with itself."""
    p, g, h = prime_power_sums(x_cutoff)
    log_p = np.log(p)
    c = p / (p - 1.0) * log_p
    s0 = np.expm1(-g)
    s1 = -h * np.exp(-g)
    ell = math.log(t_height / _TWO_PI)
    prime_powers = (c * log_p / (p - 1.0) - c * (ell - 1.0 + GAMMA0 - 0.5 * log_p)) * s0 - c * log_p * s1
    pairs = np.triu(np.multiply.outer(c * s0, c * s0), 1)
    return float(prime_powers.sum() + pairs.sum())


def em_main_sums(s, m_cut):
    """(sum_{n<M} n^{-s}, -sum_{n<M} log(n) n^{-s}) directly, exp(-s log n) at every n."""
    log_n = np.log(np.arange(1, m_cut, dtype=float))
    term = np.exp(-np.multiply.outer(s, log_n))
    return term.sum(axis=-1), -(term * log_n).sum(axis=-1)


def em_depth_loop(s_abs, sigma, m_cut):
    """The fewest p whose Backlund and Cauchy remainder bounds meet 1e-15, found by
    walking p up one step at a time; None where no p <= _EM_MAX_DEPTH does."""
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
    return None


def em_corrections_loop(s, m_cut, depth):
    """(sum_j c_j q_j, sum_j c_j (dq_j - q_j log M)) for j = 1..depth, one j at a time:
    q_j = (s)_{2j-1} / M^{2j-1} and dq_j/ds by the product rule, one factor
    (s + i) / M at a time."""
    log_m = math.log(m_cut)
    q = s / m_cut
    dq = np.full_like(s, 1.0 / m_cut)
    corr = np.zeros_like(s)
    dcorr = np.zeros_like(s)
    for j, c in enumerate(_EM_COEFFS[:depth], start=1):
        corr += c * q
        dcorr += c * (dq - log_m * q)
        for i in (2 * j - 1, 2 * j):
            f = (s + i) / m_cut
            dq = dq * f + q / m_cut
            q = q * f
    return corr, dcorr


def _sum_rows(terms):
    """The sum over the first axis of a (terms x points) table, one row at a time.

    Every point's terms are then added in one order, whatever the other points:
    numpy's pairwise sum along an axis groups them by the table's length, so a
    point's last bits would depend on the longest sum in its chunk.
    """
    total = np.zeros(terms.shape[1:])
    for row in terms:
        total += row
    return total


def riemann_siegel_chunked(t, want_deriv):
    """Z_RS(t) of :func:`riemann_siegel_z` on a 1-D array of t >= 7, or, if
    ``want_deriv``, (theta(t), Z_RS'(t)) with Z_RS' differentiated term by term:

        Z_RS' = -2 sum_{n<=N} n^{-1/2} (theta'(t) - log n) sin(theta(t) - t log n)
                + (-1)^{N-1} sum_{j<=4} d/dt [tau^{-1/4-j/2} C_j(z)],

    dp/dt being 1/(4 pi sqrt(tau)).  With ``want_deriv`` the one Horner pass
    over the stacked C-series also carries their w-derivatives.
    """
    out = np.empty_like(t)
    thetas = np.empty_like(t)
    for lo in range(0, t.size, _RS_CHUNK):
        tc = t[lo : lo + _RS_CHUNK]
        root = np.sqrt(tc / _TWO_PI)
        n_terms = np.floor(root)
        n = np.arange(1.0, n_terms.max() + 1.0)[:, None]
        log_n = np.log(n)
        theta = thetas[lo : lo + _RS_CHUNK] = riemann_siegel_theta(tc)
        if want_deriv:
            terms = (_theta_prime(tc) - log_n) * np.sin(theta - log_n * tc) / np.sqrt(n)
        else:
            terms = np.cos(theta - log_n * tc) / np.sqrt(n)
        terms[n > n_terms] = 0.0
        z = 1.0 - 2.0 * (root - n_terms)
        w = z * z
        # the series in w and their w-derivatives; the zero padding leaves both at 0
        series = np.zeros((len(_RS_SERIES), tc.size))
        slope = np.zeros_like(series)
        for column in _RS_SERIES.T[::-1]:
            if want_deriv:
                slope *= w
                slope += series
            series *= w
            series += column[:, None]
        u = 1.0 / root
        sign = np.where(n_terms % 2 == 1, 1.0, -1.0)  # (-1)^{N-1}
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
            out[lo : lo + _RS_CHUNK] = -2.0 * _sum_rows(terms) - sign * u / (_TWO_PI * np.sqrt(root)) * corr
        else:
            # sum_j C_j u^j by Horner in u = tau^{-1/2}; an odd C_j is z times its series
            corr = series[-1]
            for j in range(len(series) - 2, -1, -1):
                corr = corr * u + (z * series[j] if j % 2 else series[j])
            out[lo : lo + _RS_CHUNK] = 2.0 * _sum_rows(terms) + sign * corr / np.sqrt(root)
    return (thetas, out) if want_deriv else out


def within(est, target, n_se=3.0):
    """True if target lies inside the MomentEstimate's n_se band componentwise."""
    t = complex(target)
    return (
        abs(est.mean.real - t.real) <= n_se * est.se_re
        and abs(est.mean.imag - t.imag) <= n_se * est.se_im
    )


def haar_angle_batch(n, count, rng):
    """Sorted eigenangle rows, shape (count, n), of Haar-distributed unitaries.

    QR of a complex Ginibre matrix with the triangular factor's diagonal
    phases divided out; without that correction the distribution is not Haar.
    """
    z = (rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n)))
    q, r = np.linalg.qr(z)
    d = np.einsum("bii->bi", r)
    q = q * (d / np.abs(d))[:, None, :]
    eig = np.linalg.eigvals(q)
    return np.sort(np.mod(np.angle(eig), _TWO_PI), axis=1)


def weighted_verblunsky_rejection(j, rng):
    """One draw per entry of the index array ``j`` from the law of the j-th
    Verblunsky coefficient gamma_j, weighted by |1 - gamma|^2.

    Rejection from the Haar law sqrt(B_j) e^{i omega}, with B_j ~ Beta(1, j)
    by inversion (B_0 = 1) and omega uniform: a draw is kept with probability
    |1 - gamma|^2 / 4 <= 1, so at least a quarter are kept, gamma = 1 never
    is, and only the rejected entries are drawn again.
    """
    flat = np.asarray(j).ravel()
    out = np.empty(flat.size, dtype=complex)
    todo = np.arange(flat.size)
    while todo.size:
        jj = flat[todo]
        u, v, w = rng.random((3, todo.size))
        # 1 - u is uniform on (0, 1], and 1 - (1 - u)^{1/j} ~ Beta(1, j)
        b = np.where(jj == 0, 1.0, -np.expm1(np.log1p(-u) / np.maximum(jj, 1)))
        g = np.sqrt(b) * np.exp(_TWO_PI * 1j * v)
        keep = np.flatnonzero(4.0 * w < (1.0 - g.real) ** 2 + g.imag**2)
        out[todo[keep]] = g[keep]
        todo = np.delete(todo, keep)
    return out.reshape(np.shape(j))


def szego_power_sums_phase(gam, m_max):
    """Power sums p_m, m = 1..m_max, of the roots of the Szegő polynomial whose
    deformed Verblunsky coefficients are the columns of ``gam``, shape
    (B, N - 1), column N - 2 first; returns shape (B, m_max).

    Phi_{i+1}(z) = z Phi_i(z) - gamma_i u_i^2 Phi_i^*(z) as it stands, with the
    phase u_i of Phi_i(1) = prod_{j<i} (1 - gamma_j) as e^{i sum_{j<i} arg(1 - gamma_j)}:
    the top m_max + 1 coefficients T_t and the conjugated bottom ones C_t are
    carried, and Newton's identities read p_m = -(m T_m + sum_{t<m} T_t p_{m-t}).
    """
    b = gam.shape[0]
    gam = gam[:, ::-1]
    arg = np.arctan2(-gam.imag, 1.0 - gam.real)
    phase = np.cumsum(arg, axis=1) - arg  # arg Phi_i(1): the columns already used
    alpha_bar = gam * np.exp(2j * phase)
    top = np.zeros((m_max + 1, b), dtype=complex)
    top[0] = 1.0
    cbot = top.copy()
    shifted = np.zeros_like(top)  # C_{t-1}, with C_{-1} = 0
    for a, a_conj in zip(alpha_bar.T, alpha_bar.T.conj()):
        shifted[1:] = cbot[:-1]
        top, cbot = top - a * shifted, shifted - a_conj * top
    p = np.zeros((m_max + 1, b), dtype=complex)
    for m in range(1, m_max + 1):
        p[m] = -(m * top[m] + sum(top[t] * p[m - t] for t in range(1, m)))
    return p[1:].T


# The Monte-Carlo draw with a fresh array for every step, as it was before rmt
# took its steps in place and dropped the arrays no later step reads: the
# bit-for-bit references of rmt._weighted_verblunsky, rmt._szego_power_sums
# and rmt._verblunsky_draw.


def weighted_verblunsky_allocating(j, rng):
    """``rmt._weighted_verblunsky``: one weighted gamma_j per entry of ``j``, by inversion."""
    j = np.asarray(j)
    u = rng.random((5,) + j.shape)
    # 1 - u is uniform on (0, 1]: no log of 0 and W <= 1 at u = 0
    log_w = np.minimum(np.log((j + 2) * (1.0 - u[1])) / (j + 1), 0.0)
    log_1mb = np.where(j == 0, -np.inf, np.log1p(-u[0]) / np.maximum(j, 1) + log_w)
    b = -np.expm1(log_1mb)
    r = np.sqrt(b)
    e_alpha = _turn(u[3])
    cos_a, sin_a = e_alpha.real, e_alpha.imag
    c = np.sqrt(u[4]) * cos_a
    uniform = u[2] * (1.0 + b) < (1.0 - r) ** 2
    cos_w = np.where(uniform, cos_a, 2.0 * c * c - 1.0)
    sin_w = np.where(uniform, sin_a, 2.0 * c * np.sqrt((1.0 - c) * (1.0 + c)))
    gam = np.empty(j.shape, dtype=complex)
    np.multiply(r, cos_w, out=gam.real)
    np.multiply(r, sin_w, out=gam.imag)
    return gam


def szego_power_sums_allocating(gam, unit, m_max):
    """``rmt._szego_power_sums``: the roots' power sums by the rotated Szegő recursion."""
    b = gam.shape[1]
    top = np.zeros((m_max + 1, b), dtype=complex)
    top[0] = 1.0
    cbot = top.copy()
    shifted = np.zeros_like(top)  # C_{t-1}, with C_{-1} = 0
    tmp = np.empty_like(top)
    for w, gam_i in zip(unit[::-1], gam[::-1]):
        wb = np.conj(w)
        gi = wb * gam_i  # conj(w_i) gamma_i
        gi_conj = np.conj(gi)
        shifted[1:] = cbot[:-1]
        # in place, C first: it reads the T of step i
        np.multiply(w, shifted, out=cbot)
        cbot -= np.multiply(gi_conj, top, out=tmp)
        top *= wb
        top -= np.multiply(gi, shifted, out=tmp)
    top /= top[0]
    p = np.zeros((m_max + 1, b), dtype=complex)
    for m in range(1, m_max + 1):
        p[m] = -(m * top[m] + sum(top[t] * p[m - t] for t in range(1, m)))
    return p[1:]


def verblunsky_draw_allocating(n, k, count, rng, s_coeffs=(), factors=weighted_verblunsky_allocating):
    """``rmt._verblunsky_draw``: up to ``count`` samples of the Z'^k statistic."""
    b = min(count, max(1, _FACTOR_BATCH // n))
    # factor-major, row j the j-th factor of every sample
    gam = factors(np.broadcast_to(np.arange(n - 1)[:, None], (n - 1, b)), rng)
    fac = 1.0 - gam
    abs_sq = fac.real**2 + fac.imag**2
    # the principal log by real parts: numpy's complex log is many times slower
    log_abs = 0.5 * np.log(abs_sq).sum(axis=0)
    arg = np.arctan2(fac.imag, fac.real).sum(axis=0)
    logs = 1j * math.pi * k / 2.0 + k * (log_abs + 1j * arg)
    if len(s_coeffs):
        s = np.asarray(s_coeffs, dtype=complex)
        unit = fac * (1.0 / np.sqrt(abs_sq))
        # an elementwise sum, not a BLAS product: BLAS threads left spinning slow the next draw
        logs = logs + s.sum() + (szego_power_sums_allocating(gam, unit, len(s)) * s[:, None]).sum(axis=0)
    return np.exp(logs)


def zprime_pow_rows(angle_rows, col_index, k, s_coeffs):
    """The Z'^k statistic for each row, taken at the eigenangle in the given column.

    With delta_n = theta_n - theta_r over the other angles of the row, it is

        i^k e^{sum_m s_m} prod_n (1 - e^{i delta_n})^k e^{sum_m s_m e^{i m delta_n}},

    the hybrid model's Z'_{N,X}(theta_r)^k for its Fourier coefficients
    ``s_coeffs`` = s_1..s_M; with no coefficients it is the bare Z'(theta_r)^k.
    Each factor 1 - e^{i delta} has nonnegative real part, so the principal
    log puts every summand's imaginary part in (-pi/2, pi/2): the branch under
    which the complex power is defined throughout.

    angle_rows: (B, n) sorted angles; col_index: (B,) integer indices.
    Rows with coincident angles (|1 - e^{i delta}| < 1e-14) return nan.
    """
    s_coeffs = np.asarray(s_coeffs, dtype=complex)
    b, n = angle_rows.shape
    log_const = 1j * math.pi * k / 2.0 + s_coeffs.sum()
    if n == 1:
        return np.full(b, np.exp(log_const), dtype=complex)
    rows = np.arange(b)
    sel = angle_rows[rows, col_index]
    mask = np.ones_like(angle_rows, dtype=bool)
    mask[rows, col_index] = False
    diffs = angle_rows[mask].reshape(b, n - 1) - sel[:, None]
    fac = 1.0 - np.exp(1j * diffs)
    bad = np.abs(fac).min(axis=1) < _COINCIDENCE_TOL
    logs = log_const + k * np.log(np.where(fac == 0, 1.0, fac)).sum(axis=1)
    if len(s_coeffs):
        freqs = np.arange(1, len(s_coeffs) + 1)
        logs += (np.exp(1j * np.multiply.outer(diffs, freqs)) @ s_coeffs).sum(axis=1)
    out = np.exp(logs)
    out[bad] = np.nan
    return out


def weyl_average(n, statistic, grid):
    """Tensor-grid quadrature of a statistic against the Weyl density on U(n).

    The nodes are the lattice theta_j = 2 pi j / grid on every axis (rectangle
    rule; the integrand is 2*pi-periodic in every variable) and the density is
    prod_{a<b} |e^{i theta_a} - e^{i theta_b}|^2 / (n! (2 pi)^n).  The first
    axis is walked in blocks and the other n - 1 broadcast, so at most
    max(2^16, grid^(n-1)) points are held at once.

    Args:
        n: 1, 2 or 3 (the cost explodes combinatorially by design).
        statistic: callable mapping broadcastable angle arrays (theta_1, ...,
            theta_n) to a complex array.
        grid: points per angle axis.

    Raises:
        CapabilityError: for n > 3.
        DomainError: for grid < 1.
    """
    _require_weyl_dim(n)
    _require_grid(grid)
    theta = np.arange(grid) * (_TWO_PI / grid)
    # angle a varies along array axis a
    axes = [theta.reshape((grid,) + (1,) * (n - 1 - a)) for a in range(n)]
    phases = [np.exp(1j * ax) for ax in axes]
    rest_dens = 1.0
    for a in range(1, n):
        for b in range(a + 1, n):
            rest_dens = rest_dens * np.abs(phases[a] - phases[b]) ** 2
    rows = max(1, _WEYL_BLOCK // grid ** (n - 1))
    acc = 0j
    for lo in range(0, grid, rows):
        dens = rest_dens
        for ph in phases[1:]:
            dens = dens * np.abs(phases[0][lo : lo + rows] - ph) ** 2
        acc += np.sum(dens * statistic(axes[0][lo : lo + rows], *axes[1:]))
    return complex(acc / (math.factorial(n) * grid**n))


def _require_weyl_dim(n):
    if n not in (1, 2, 3):
        raise CapabilityError("the tensor-grid Weyl average supports n in {1, 2, 3} only")


def weyl_oracle_tensor_grid(n, k, grid):
    """(i^k / n) times the U(n-1) Weyl average of prod_m |1 - e^{i theta_m}|^2 (1 - e^{i theta_m})^k
    by :func:`weyl_average`, n <= 3; a factor with 1 - e^{i theta} = 0 contributes 0."""
    i_k = complex(np.exp(1j * math.pi * k / 2.0))
    if n == 1:
        # single-point product: the integrand is the constant i^k
        return i_k

    def stat(*thetas):
        out = 1.0
        for th in thetas:
            fac = 1.0 - np.exp(1j * th)
            hit = fac == 0
            power = np.exp(k * np.log(np.where(hit, 1.0, fac)))
            out = out * np.where(hit, 0.0, np.abs(fac) ** 2 * power)
        return out

    return i_k / n * weyl_average(n - 1, stat, grid)
