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
from functools import cached_property, partial

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

from .errors import DomainError
from .rmt import _mc_estimate, _verblunsky_draw
from .specfun import exp_integral_e1

_TWO_PI = 2.0 * math.pi
_CDF_GRID = 10_000
_MIN_PANELS = 24  # kernel_U_batch's floor on its Gauss-Legendre panels


def _raw_bump(x):
    """Unnormalized C-infinity bump exp(-1/(x(1-x))) on (0,1), zero outside."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = (x > 0.0) & (x < 1.0)
    xi = x[inside]
    out[inside] = np.exp(-1.0 / (xi * (1.0 - xi)))
    return out


class SmoothingSpec:
    """The smoothing choice: sharpness Y and the fixed mass-1 bump f on [0, 1].

    The weight u(y) = Y f(Y log(y/e) + 1) / y then has mass 1 supported on
    [e^{1-1/Y}, e].  The bump CDF is tabulated once on a 1e4-point grid and
    served through a monotone (PCHIP) interpolant.
    """

    def __init__(self, y_sharpness=4.0):
        if y_sharpness < 1.0:
            raise DomainError("smoothing sharpness Y must be >= 1")
        self.y_sharpness = float(y_sharpness)
        norm, _ = quad(lambda x: math.exp(-1.0 / (x * (1.0 - x))), 0.0, 1.0, epsabs=1e-15, epsrel=1e-13)
        self.normalization = norm

    def bump(self, x):
        """The mass-1 bump f on [0, 1]."""
        return _raw_bump(x) / self.normalization

    @cached_property
    def _cdf(self):
        # panel Gauss-Legendre between grid nodes keeps each increment exact
        # to machine precision; cumulative sum then gives CDF nodes
        nodes, weights = np.polynomial.legendre.leggauss(10)
        grid = np.linspace(0.0, 1.0, _CDF_GRID + 1)
        half = 0.5 / _CDF_GRID
        mids = 0.5 * (grid[:-1] + grid[1:])
        pts = mids[:, None] + half * nodes[None, :]
        increments = (self.bump(pts) @ weights) * half
        cdf = np.concatenate(([0.0], np.cumsum(increments)))
        cdf /= cdf[-1]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # the exactly-flat tails make PCHIP's harmonic-mean slope divide by zero;
            # it resolves them to flat segments, which is what we want
            return PchipInterpolator(grid, cdf)

    def bump_cdf(self, x):
        """CDF of the bump, clamped to [0, 1] outside the support."""
        x = np.asarray(x, dtype=float)
        out = np.clip(self._cdf(np.clip(x, 0.0, 1.0)), 0.0, 1.0)
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


def kernel_U(z, spec):
    """U(z) = integral of u(y) E1(z log y) dy by adaptive quadrature (1e-10 abs).

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
    """U on an array of z values via fixed composite Gauss-Legendre in y.

    The phase of E1(z log y) turns through |z| log(hi/lo) across the support,
    so each chunk of z values takes one 10-node panel per turn at its largest
    |z| (at least ``_MIN_PANELS``): oscillatory integrands (z on the imaginary
    axis in the periodized sums) stay resolved.  u vanishes to all orders at
    the support endpoints, so panel quadrature converges fast.  Cross-checked
    against the adaptive :func:`kernel_U`.
    """
    z = np.asarray(z_values, dtype=complex)
    lo, hi = spec.support
    flat = z.reshape(-1)
    order = np.argsort(np.abs(flat))
    nodes, weights = np.polynomial.legendre.leggauss(10)
    chunk = 256
    res = np.empty(flat.shape, dtype=complex)
    for lo_i in range(0, len(flat), chunk):
        idx = order[lo_i : lo_i + chunk]
        zc = flat[idx]
        zmax = np.abs(zc).max()
        panels = max(_MIN_PANELS, int(zmax * math.log(hi / lo) / _TWO_PI) + 1)
        edges = np.linspace(lo, hi, panels + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (hi - lo) / panels
        y = (mids[:, None] + half * nodes[None, :]).reshape(-1)
        w = np.tile(weights, panels) * half
        uw = u_weight(y, spec) * w
        e1 = exp_integral_e1(np.multiply.outer(zc, np.log(y)))
        res[idx] = e1 @ uw
    out = res.reshape(z.shape)
    return out


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
    """
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
