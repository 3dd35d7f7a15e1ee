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

The direct form sums the j-window in closed form: U by parts is E1(z) plus a
node sum of e^{-z l}, and on the lattice z = i (v + 2*pi*j) log X that factor
splits into a part in v and a part in j, so each angle takes one E1 per z and
the j-sum of the node factors is one real Dirichlet kernel per node
(:func:`_f_x_direct_values`).

The Monte-Carlo estimate of the model's moment, :func:`mc_hybrid_moment`, is
one call to ``rmt._mc_estimate``, the driver behind ``rmt.mc_moment`` too,
drawing the same independent weighted Verblunsky factors with the Fourier
coefficients s_m as the statistic's weights.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .arithmetic import _require_cutoff
from .errors import CapabilityError, DomainError
from .rmt import _finite_order, _mc_estimate, _verblunsky_draw
from .specfun import exp_integral_e1

_TWO_PI = 2.0 * math.pi
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)  # one panel's rule on [-1, 1]
_BUMP_PANELS = 64  # equal panels on [0, 1] for the bump's integral
_MIN_PANELS = 24  # floor on the Gauss-Legendre panels of U's nodes
# cos or sin values per block of the node sums: 256 rows on the fewest nodes
_BLOCK_VALUES = 256 * 10 * _MIN_PANELS
# Largest sizes of the Fourier quadrature: at all three, with X = 1e5 and Y = 1
# (the most nodes), a call took 1.2 s and a 128 MB peak (2-core Xeon, tracemalloc)
_QUADRATURE_CAPS = {"grid": 4096, "j_window": 128, "m_max": 1024}


def _raw_bump(x):
    """Unnormalized C-infinity bump exp(-1/(x(1-x))) on (0,1), zero outside."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = (x > 0.0) & (x < 1.0)
    xi = x[inside]
    out[inside] = np.exp(-1.0 / (xi * (1.0 - xi)))
    return out


def _bump_panel(a, b):
    """Integral of the unnormalized bump over [a, b] by one 10-node Gauss-Legendre panel."""
    half = 0.5 * (b - a)
    return (_raw_bump((a + half)[..., None] + half[..., None] * _GL_NODES) @ _GL_WEIGHTS) * half


_BUMP_EDGES = np.arange(_BUMP_PANELS + 1) / _BUMP_PANELS
# the integral of the unnormalized bump over [0, k/64], for k = 0..64
_BUMP_CUMULATIVE = np.concatenate(([0.0], np.cumsum(_bump_panel(_BUMP_EDGES[:-1], _BUMP_EDGES[1:]))))


def _bump_integral(x):
    """Integral of the unnormalized bump over [0, x], for each x in [0, 1].

    The table of the integrals over [0, k/64] up to the panel edge below x,
    plus one 10-node Gauss-Legendre panel on [edge, x]: ten exps a point.
    The bump is smooth and vanishes to all orders at 0 and 1; the rule agrees
    with adaptive quadrature to rounding (``tests/test_hybrid.py``).
    """
    x = np.asarray(x, dtype=float)
    k = (x * _BUMP_PANELS).astype(int)
    return _BUMP_CUMULATIVE[k] + _bump_panel(_BUMP_EDGES[k], x)


class SmoothingSpec:
    """The smoothing choice: sharpness Y and the fixed mass-1 bump f on [0, 1].

    The weight u(y) = Y f(Y log(y/e) + 1) / y then has mass 1 supported on
    [e^{1-1/Y}, e].  The normalization and the bump CDF are integrals of the
    unnormalized bump over [0, 1] and [0, x], both from the one table of the
    64 fixed Gauss-Legendre panels on [0, 1] and one panel up to x
    (:func:`_bump_integral`).
    """

    def __init__(self, y_sharpness=4.0):
        if not (math.isfinite(y_sharpness) and y_sharpness >= 1.0):
            raise DomainError(f"smoothing sharpness Y must be finite and >= 1 (got {y_sharpness:g})")
        self.y_sharpness = float(y_sharpness)
        self.normalization = float(_bump_integral(1.0))

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
        _require_cutoff(self.x_cutoff)
        if self.n < 1:
            raise DomainError("matrix dimension must be >= 1")

    @property
    def log_x(self):
        return math.log(self.x_cutoff)


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


def _panel_count(z_abs_max, spec):
    """Gauss-Legendre panels on the support for every z up to |z| = z_abs_max.

    The phase of E1(z log y) turns through |z| log(hi/lo) across the support,
    so the rule takes one 10-node panel per turn at the largest |z|, and at
    least ``_MIN_PANELS``.
    """
    lo, hi = spec.support
    return max(_MIN_PANELS, int(z_abs_max * math.log(hi / lo) / _TWO_PI) + 1)


def _u_nodes(panels, spec):
    """y, log y and the rule's weights at the nodes of ``panels`` equal panels on the support."""
    lo, hi = spec.support
    edges = np.linspace(lo, hi, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (hi - lo) / panels
    y = (mids[:, None] + half * _GL_NODES[None, :]).reshape(-1)
    return y, np.log(y), np.tile(_GL_WEIGHTS, panels) * half


def _by_parts_nodes(panels, spec):
    """l_q = log y_q and the weights V_q of U's sum by parts on ``panels`` panels.

    Let F(l) = bump_cdf(Y (l - 1) + 1) be the mass of u below e^l, so that
    F = 0 at l_0 = 1 - 1/Y and F = 1 at l = 1.  Since d/dl E1(z l) =
    -e^{-z l} / l, integrating by parts in l gives

        U(z) = E1(z) + integral_{l_0}^{1} F(l) e^{-z l} dl / l
             = E1(z) + sum_q V_q e^{-z l_q},   V_q = F(l_q) w_q / (y_q l_q),

    on the nodes y_q and weights w_q of :func:`_u_nodes`.  F vanishes to all
    orders at l_0, so the 1/l does no harm even at Y = 1 (l_0 = 0).
    """
    y, ell, w = _u_nodes(panels, spec)
    return ell, spec.bump_cdf(spec.y_sharpness * (ell - 1.0) + 1.0) * w / (y * ell)


def _row_blocks(rows, cols):
    """Slices of ``rows`` rows, each block at most ``_BLOCK_VALUES`` values of ``cols`` columns."""
    step = max(1, _BLOCK_VALUES // cols)
    return (slice(i, i + step) for i in range(0, rows, step))


def fourier_s(m, k, params):
    """The m-th Fourier coefficient of k F_X(-v), for any finite k.

    Zero for m <= 0 and for m >= log X; (k/m) * mass_above(m / log X) in
    between.
    """
    k = _finite_order(k)
    if m <= 0:
        return 0j
    v = m / params.log_x
    if v >= 1.0:
        return 0j
    return (k / m) * mass_above(v, params.smoothing)


def fourier_coeffs(k, params):
    """The nonzero coefficients s_1 .. s_{ceil(log X) - 1} of the finite Fourier
    sum k F_X(-v) = sum_m s_m e^{imv}, as an array."""
    k = _finite_order(k)
    m_top = int(math.ceil(params.log_x)) - 1
    if math.isclose(params.log_x, round(params.log_x), rel_tol=0, abs_tol=1e-12):
        m_top = int(round(params.log_x)) - 1
    return np.array([fourier_s(m, k, params) for m in range(1, m_top + 1)], dtype=complex)


def F_X_poly(v, k, params):
    """k F_X(-v) as the exact finite sum sum_m s_m e^{imv} (entire trig polynomial)."""
    coeffs = fourier_coeffs(k, params)
    arr = np.asarray(v, dtype=float)
    scalar = arr.ndim == 0
    m = np.arange(1, len(coeffs) + 1)
    # einsum, not BLAS: at 4096 angles OpenBLAS's threaded product took 8 ms a
    # call, against 25 us, in 2 of 14 fresh processes on a 2-core Xeon
    out = np.einsum("...m,m->...", np.exp(1j * np.multiply.outer(arr, m)), coeffs)
    return complex(out) if scalar else out


def _f_x_direct_values(v_array, params, j_window):
    """F_X on an array of angles via the defining combination (truncated j-sum).

    With z_j = i (v + 2 pi j) log X, U by parts (:func:`_by_parts_nodes`) on
    one node set, with as many panels as :func:`_panel_count` gives the
    window's largest |z|, separates e^{-z_j l} into e^{-i v log X l}
    e^{-2 pi i j log X l}, so the window sums in closed form:

        sum_{|j|<=J} U(z_j) = sum_j E1(z_j) + sum_q V_q e^{-i v a_q} D_J(a_q),

    with a_q = log X l_q and D_J(a) = 1 + 2 sum_{j=1}^{J} cos(2 pi j a) the
    real Dirichlet kernel.  E1 is taken once per z; cos and sin at grid x
    nodes values for the angles and cos at J x nodes for D_J, each in blocks
    of at most ``_BLOCK_VALUES`` values, so memory stays bounded at any J.
    D_J is summed term by term: the closed form sin((2J+1) pi a) / sin(pi a)
    loses digits near integer a and divides by 0 at them.  Cross-checked
    against the per-z and per-node sums of ``tests/oracles.py``.
    """
    if j_window < 0:
        raise DomainError(f"j_window must be >= 0 (got {j_window})")
    v = np.asarray(v_array, dtype=float)
    log_x = params.log_x
    z = 1j * (v[:, None] + _TWO_PI * np.arange(-j_window, j_window + 1)) * log_x
    spec = params.smoothing
    ell, weights = _by_parts_nodes(_panel_count(np.abs(z).max(initial=0.0), spec), spec)
    a = log_x * ell
    dirichlet = np.ones_like(a)
    freqs = _TWO_PI * np.arange(1, j_window + 1)
    for rows in _row_blocks(j_window, a.size):
        dirichlet += 2.0 * np.cos(np.multiply.outer(freqs[rows], a)).sum(axis=0)
    weights = weights * dirichlet
    node_sum = np.empty(v.shape, dtype=complex)
    for rows in _row_blocks(v.size, a.size):
        phase = np.multiply.outer(v[rows], a)
        # BLAS dgemv on at most 256 x 240 values, a size that never stalled in 16 fresh processes
        node_sum[rows] = np.cos(phase) @ weights - 1j * (np.sin(phase) @ weights)
    return -np.log(1.0 - np.exp(-1j * v)) - exp_integral_e1(z).sum(axis=1) - node_sum


def F_X_direct(v, params, j_window=50):
    """F_X(v) from the defining combination -log(1 - e^{-iv}) - sum_j U(i(v+2 pi j) log X).

    The two logarithmic singularities cancel, but each term alone diverges at
    v = 0 mod 2*pi, so that point is served from the (exact) Fourier
    polynomial instead -- call :func:`F_X_poly` there.  A call takes E1 at
    each of the angles x (2 j_window + 1) points, and cos and sin at (angles +
    j_window) x nodes values, one node set for the whole window
    (:func:`_f_x_direct_values`).

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
    out = _f_x_direct_values(arr.reshape(-1), params, j_window)
    return complex(out[0]) if scalar else out.reshape(arr.shape)


def fourier_coeffs_by_quadrature(params, m_max, j_window=50, grid=128):
    """Fourier coefficients of F_X(-v) for m = 0..m_max by periodic quadrature.

    Midpoint-rule sampling of the *direct* representation (so the sample
    points dodge its termwise singularity at v = 0); since F_X is a finite
    trigonometric polynomial the rule is exact up to the j-window truncation
    noise.  Multiplying by k gives the quantities checked against the
    closed form :func:`fourier_s`.  The direct samples cost E1 at grid x
    (2 j_window + 1) points and cos and sin at (grid + j_window) x nodes
    values; at X = e^2, Y = 4, j_window 30 and grid 40 that is 2,440 E1
    values and 240 nodes.

    Raises:
        DomainError: for grid < 1, j_window < 0 or m_max < 0.
        CapabilityError: for grid, j_window or m_max above its cap in
            ``_QUADRATURE_CAPS``.
    """
    if grid < 1 or m_max < 0:
        raise DomainError(f"quadrature needs grid >= 1 and m_max >= 0 (got grid {grid}, m_max {m_max})")
    for field, value in (("grid", grid), ("j_window", j_window), ("m_max", m_max)):
        cap = _QUADRATURE_CAPS[field]
        if value > cap:
            raise CapabilityError(f"the Fourier quadrature supports {field} <= {cap} (got {value})")
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
    (``rmt._szego_power_sums``).  A sample costs O(N log X), for N up to the
    cap of ``rmt._mc_estimate``, 2^16.
    Seeding and the other checks (``workers`` >= 1) are those of
    :func:`zetalab.rmt.mc_moment`: both run the one driver in ``rmt``.
    """
    draw = partial(_verblunsky_draw, s_coeffs=fourier_coeffs(k, params))
    return _mc_estimate(params.n, k, samples, seed, workers, draw)
