"""The smoothed hybrid model: bump weight, E1 kernel, F_X and its Fourier coefficients.

The model multiplies each characteristic-polynomial factor by
exp(F_X(theta - theta_n)), where

    F_X(v) = -log(1 - e^{-iv}) - sum_j U(i (v + 2*pi*j) log X),
    U(z)   = integral of u(y) E1(z log y) over the bump support,

and u is a mass-1 smooth weight supported on [e^{1-1/Y}, e].  The punchline
is that k*F_X(-v) is a *finite* trigonometric polynomial: its Fourier
coefficients are (k/m) * (mass of u above e^{m/log X}) for 1 <= m < log X and
vanish otherwise, so the direct and polynomial representations can be played
against each other numerically.

The Monte-Carlo estimate of the model's moment, :func:`mc_hybrid_moment`, is
one call to ``rmt._mc_estimate``, the driver behind ``rmt.mc_moment`` too,
drawing the same independent weighted Verblunsky factors with the Fourier
coefficients s_m as the statistic's weights.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DomainError
from .rmt import _mc_estimate, _verblunsky_draw
from .specfun import _E1_ASYMPTOTIC_MIN, _E1_CF_ARG_MAX, _e1_depth, exp_integral_e1

_TWO_PI = 2.0 * math.pi
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)  # one panel's rule on [-1, 1]
_BUMP_PANELS = 64  # equal panels on [0, x] for the bump's integral
# the panel rule's nodes on [0, 1]; times x they are its nodes on [0, x]
_BUMP_NODES = (np.arange(_BUMP_PANELS)[:, None] + 0.5 * (1.0 + _GL_NODES)) / _BUMP_PANELS
_MIN_PANELS = 24  # kernel_U_batch's floor on its Gauss-Legendre panels
_U_CHUNK = 256  # z values per kernel_U_batch chunk


def _raw_bump(x):
    """Unnormalized C-infinity bump exp(-1/(x(1-x))) on (0,1), zero outside."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = (x > 0.0) & (x < 1.0)
    xi = x[inside]
    out[inside] = np.exp(-1.0 / (xi * (1.0 - xi)))
    return out


def _bump_integral(x):
    """Integral of the unnormalized bump over [0, x], for each x in [0, 1].

    ``_BUMP_PANELS`` equal 10-node Gauss-Legendre panels on [0, x].  The
    bump is smooth and vanishes to all orders at 0 and 1; the rule agrees
    with adaptive quadrature to rounding (``tests/test_hybrid.py``).
    """
    x = np.asarray(x, dtype=float)
    pts = x[..., None, None] * _BUMP_NODES
    return (_raw_bump(pts) @ _GL_WEIGHTS).sum(axis=-1) * ((0.5 / _BUMP_PANELS) * x)


class SmoothingSpec:
    """The smoothing choice: sharpness Y and the fixed mass-1 bump f on [0, 1].

    The weight u(y) = Y f(Y log(y/e) + 1) / y then has mass 1 supported on
    [e^{1-1/Y}, e].  The normalization and the bump CDF are integrals of the
    unnormalized bump over [0, 1] and [0, x], each by the same panel
    Gauss-Legendre rule (:func:`_bump_integral`).
    """

    def __init__(self, y_sharpness=4.0):
        if y_sharpness < 1.0:
            raise DomainError("smoothing sharpness Y must be >= 1")
        self.y_sharpness = float(y_sharpness)
        self.normalization = float(_bump_integral(1.0))

    def bump(self, x):
        """The mass-1 bump f on [0, 1]."""
        return _raw_bump(x) / self.normalization

    def bump_cdf(self, x):
        """CDF of the bump, clamped to [0, 1] outside the support."""
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        out = np.clip(_bump_integral(x) / self.normalization, 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    @property
    def support(self):
        """Support of the induced weight u: [e^{1-1/Y}, e]."""
        return math.exp(1.0 - 1.0 / self.y_sharpness), math.e


@dataclass(frozen=True)
class HybridParams:
    """(N, X, smoothing): matrix dimension, prime cutoff, and the bump choice."""

    n: int
    x_cutoff: float
    smoothing: SmoothingSpec

    def __post_init__(self):
        if self.x_cutoff < 2.0:
            raise DomainError("prime cutoff X must be >= 2")
        if self.n < 1:
            raise DomainError("matrix dimension must be >= 1")

    @property
    def log_x(self):
        return math.log(self.x_cutoff)


def u_weight(y, spec):
    """The mass-1 weight u(y) = Y f(Y log(y/e) + 1)/y, zero outside [e^{1-1/Y}, e]."""
    arr = np.asarray(y, dtype=float)
    scalar = arr.ndim == 0
    if np.any(arr <= 0.0):
        raise DomainError("u_weight requires y > 0")
    yy = spec.y_sharpness
    out = yy * spec.bump(yy * (np.log(arr) - 1.0) + 1.0) / arr
    return float(out) if scalar else out


def mass_above(v, spec):
    """Mass of u above e^v: integral of u over [e^v, e].

    Equals 1 for v <= 1 - 1/Y, 0 for v >= 1, and is non-increasing in v.
    (Substituting w = Y log(y/e) + 1 reduces it to 1 - bump_cdf.)
    """
    arr = np.asarray(v, dtype=float)
    scalar = arr.ndim == 0
    if np.any(arr < 0.0):
        raise DomainError("mass_above requires v >= 0")
    w = spec.y_sharpness * (arr - 1.0) + 1.0
    out = 1.0 - spec.bump_cdf(w)
    return float(out) if scalar else out


def _u_nodes(z_abs_max, spec):
    """log y and u(y) times the weight at the panel nodes for a chunk up to |z| = z_abs_max.

    The phase of E1(z log y) turns through |z| log(hi/lo) across the support,
    so the chunk takes one 10-node Gauss-Legendre panel per turn at its
    largest |z|, and at least ``_MIN_PANELS``.
    """
    lo, hi = spec.support
    panels = max(_MIN_PANELS, int(z_abs_max * math.log(hi / lo) / _TWO_PI) + 1)
    edges = np.linspace(lo, hi, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (hi - lo) / panels
    y = (mids[:, None] + half * _GL_NODES[None, :]).reshape(-1)
    return np.log(y), u_weight(y, spec) * np.tile(_GL_WEIGHTS, panels) * half


def kernel_U_batch(z_values, spec):
    """U on an array of z values, by fixed composite Gauss-Legendre in y.

    The z values are taken in chunks of ``_U_CHUNK`` by ascending |z|, each
    on the nodes y_q, weights W_q of :func:`_u_nodes`, with l_q = log y_q.  u
    vanishes to all orders at the support endpoints, so panel quadrature
    converges fast, and oscillatory integrands (z on the imaginary axis in the
    periodized sums) stay resolved.  U(z) = sum_q W_q E1(z l_q), with one E1
    per (z, node), unless every z of the chunk has |arg z| <= 2 and
    |z| min_q l_q >= 40, where E1's asymptotic series holds at every node.
    Its terms separate in z and l, so there

        U(z) = sum_{m<=n} (-1)^m m! z^{-m-1} M_m(z),
        M_m(z) = sum_q W_q l_q^{-m-1} e^{-z l_q},

    one exp per (z, node) and one matrix product for all the moments, with n
    from ``specfun._e1_depth`` at the chunk's smallest |z| l.  Cross-checked
    against the adaptive ``kernel_U`` and the per-node E1 sum of
    ``tests/oracles.py``.
    """
    z = np.asarray(z_values, dtype=complex)
    flat = z.reshape(-1)
    order = np.argsort(np.abs(flat))
    res = np.empty(flat.shape, dtype=complex)
    for lo_i in range(0, len(flat), _U_CHUNK):
        idx = order[lo_i : lo_i + _U_CHUNK]
        zc = flat[idx]
        ell, uw = _u_nodes(np.abs(zc[-1]), spec)
        reach = np.abs(zc[0]) * ell[0]  # the smallest |z l| of the chunk
        if reach >= _E1_ASYMPTOTIC_MIN and np.all(np.abs(np.angle(zc)) <= _E1_CF_ARG_MAX):
            n = int(_e1_depth(reach))
            # M_0..M_n in one BLAS product: einsum took 2-8 ms at this shape, @ 0.2 ms
            powers = uw[:, None] * ell[:, None] ** -np.arange(1.0, n + 2)
            moments = np.exp(np.multiply.outer(-zc, ell)) @ powers
            w = 1.0 / zc
            acc = moments[:, n]
            for m in range(n, 0, -1):  # Horner in w = 1/z
                acc = moments[:, m - 1] - m * w * acc
            res[idx] = w * acc
        else:
            res[idx] = exp_integral_e1(np.multiply.outer(zc, ell)) @ uw
    return res.reshape(z.shape)


@dataclass(frozen=True)
class FourierCoeffs:
    """Coefficients s_1..s_{m_max} of the finite Fourier sum k F_X(-v) = sum s_m e^{imv}."""

    values: np.ndarray  # s_m for m = 1 .. len(values)

    @property
    def sum(self):
        """sum_m s_m = k F_X(0)."""
        return complex(self.values.sum())


def fourier_s(m, k, params):
    """The m-th Fourier coefficient of k F_X(-v).

    Zero for m <= 0 and for m >= log X; (k/m) * mass_above(m / log X) in
    between.
    """
    k = complex(k)
    if m <= 0:
        return 0j
    v = m / params.log_x
    if v >= 1.0:
        return 0j
    return (k / m) * mass_above(v, params.smoothing)


def fourier_coeffs(k, params):
    """All nonzero coefficients s_1 .. s_{ceil(log X) - 1} as a FourierCoeffs."""
    m_top = int(math.ceil(params.log_x)) - 1
    if math.isclose(params.log_x, round(params.log_x), rel_tol=0, abs_tol=1e-12):
        m_top = int(round(params.log_x)) - 1
    vals = np.array([fourier_s(m, k, params) for m in range(1, m_top + 1)], dtype=complex)
    return FourierCoeffs(values=vals)


def F_X_poly(v, k, params):
    """k F_X(-v) as the exact finite sum sum_m s_m e^{imv} (entire trig polynomial)."""
    coeffs = fourier_coeffs(k, params)
    arr = np.asarray(v, dtype=float)
    scalar = arr.ndim == 0
    m = np.arange(1, len(coeffs.values) + 1)
    out = np.exp(1j * np.multiply.outer(arr, m)) @ coeffs.values
    return complex(out) if scalar else out


def _f_x_direct_values(v_array, params, j_window):
    """F_X on an array of angles via the defining combination (truncated j-sum)."""
    if j_window < 0:
        raise DomainError(f"j_window must be >= 0 (got {j_window})")
    v = np.asarray(v_array, dtype=float)
    log_x = params.log_x
    j = np.arange(-j_window, j_window + 1)
    z = 1j * (v[:, None] + _TWO_PI * j[None, :]) * log_x
    u_sum = kernel_U_batch(z, params.smoothing).sum(axis=1)
    return -np.log(1.0 - np.exp(-1j * v)) - u_sum


def F_X_direct(v, params, j_window=50):
    """F_X(v) from the defining combination -log(1 - e^{-iv}) - sum_j U(i(v+2 pi j) log X).

    The two logarithmic singularities cancel, but each term alone diverges at
    v = 0 mod 2*pi, so that point is served from the (exact) Fourier
    polynomial instead -- call :func:`F_X_poly` there.

    Raises:
        DomainError: at v = 0 mod 2*pi, and for j_window < 0.
    """
    arr = np.asarray(v, dtype=float)
    scalar = arr.ndim == 0
    wrapped = np.mod(arr, _TWO_PI)
    if np.any(np.minimum(wrapped, _TWO_PI - wrapped) < 1e-12):
        raise DomainError(
            "F_X_direct is termwise singular at v = 0 mod 2*pi; "
            "use F_X_poly (exact finite sum) for that point"
        )
    out = _f_x_direct_values(np.atleast_1d(arr), params, j_window)
    return complex(out[0]) if scalar else out.reshape(arr.shape)


def fourier_coeffs_by_quadrature(params, m_max, j_window=50, grid=128):
    """Fourier coefficients of F_X(-v) for m = 0..m_max by periodic quadrature.

    Midpoint-rule sampling of the *direct* representation (so the sample
    points dodge its termwise singularity at v = 0); since F_X is a finite
    trigonometric polynomial the rule is exact up to the j-window truncation
    noise.  Multiplying by k gives the quantities checked against the
    closed form :func:`fourier_s`.

    Raises:
        DomainError: for grid < 1, j_window < 0 or m_max < 0.
    """
    if grid < 1 or m_max < 0:
        raise DomainError(f"quadrature needs grid >= 1 and m_max >= 0 (got grid {grid}, m_max {m_max})")
    v = (np.arange(grid) + 0.5) * (_TWO_PI / grid)
    g_vals = _f_x_direct_values(-v, params, j_window)
    m = np.arange(0, m_max + 1)
    return (np.exp(-1j * np.multiply.outer(m, v)) @ g_vals) / grid


def mc_hybrid_moment(params, k, samples, seed, workers=1):
    """Monte-Carlo estimate of E_N[Z'_{N,X}(theta_r, A)^k].

    Uses the product form Z'_{N,X}(theta_r)^k = exp(i k pi/2 + k F_X(0)
    + sum_{n != r} [k log(1 - e^{i(theta_n - theta_r)}) + k F_X(theta_r - theta_n)])
    with the same per-factor branch as the bare characteristic polynomial; the
    e^{k F_X} factors are exponentials by construction and need no extra
    branch choice.  Seen from theta_r, the other N - 1 eigenvalues are drawn
    as the N - 1 independent weighted Verblunsky coefficients of
    ``rmt.mc_moment``, and the Fourier sum sum_n k F_X(theta_r - theta_n)
    = sum_m s_m p_m needs only the power sums p_m of those eigenvalues for
    m < log X, which Szegő's recursion on the same coefficients gives
    (``rmt._szego_power_sums``).  A sample costs O(N log X), with no cap on N.
    Seeding and the other checks (``workers`` >= 1) are those of
    :func:`zetalab.rmt.mc_moment`: both run the one driver in ``rmt``.
    """
    draw = partial(_verblunsky_draw, s_coeffs=fourier_coeffs(k, params).values)
    return _mc_estimate(params.n, k, samples, seed, workers, draw)
