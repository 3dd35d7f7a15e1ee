"""Haar-unitary sampling and moments of the characteristic polynomial derivative.

Implements the exact Haar average

    E_N[(1/N) sum_n Z'(theta_n, A)^k] = e^{i pi k / 2} Gamma(N+k+1) / (N! Gamma(k+2)),

its Monte-Carlo estimation with branch-correct complex powers, and a small-N
Weyl-measure quadrature oracle that fixes one eigenangle by rotation
invariance and sums over the other N - 1 on a lattice.

Seen from one eigenangle theta_r of a Haar matrix, the other N - 1 angles
are CUE_{N-1} weighted by prod |1 - e^{i theta}|^2, a circular Jacobi
ensemble, so Z'(theta_r) has the law of i prod_{j=0}^{N-2} (1 - gamma_j)
with independent Verblunsky coefficients gamma_j (Bourgade, Hughes,
Nikeghbali & Yor, Duke Math. J. 145 (2008); Bourgade, Nikeghbali & Rouault,
IMRN 2009, delta = 1).  Under Haar gamma_j = sqrt(B_j) e^{i omega} with
B_j ~ Beta(1, j) (B_0 = 1) and omega uniform; the weighting multiplies that
law by |1 - gamma|^2.  Averaging over omega gives
E[(1 - gamma_j)^k] = (j + k + 2)/(j + 2), whose product over j is the exact
moment above divided by i^k.

The same gamma_j are the deformed Verblunsky coefficients of the other N - 1
eigenvalues e^{i delta_n}, delta_n = theta_n - theta_r: Szegő's recursion
rebuilds their polynomial prod_n (z - e^{i delta_n}) from them, and its top
coefficients give the power sums sum_n e^{i m delta_n} that the hybrid model's
Fourier weights need (:func:`_szego_power_sums`).

``_mc_estimate`` is the one Monte-Carlo driver and ``_verblunsky_draw`` its one
sampler.  It serves :func:`mc_moment` (the bare Z'^k) and
``hybrid.mc_hybrid_moment`` (Z'^k weighted by the hybrid model's Fourier sum).
The tests' independent reference, QR+eig Haar matrices and the statistic
taken at their eigenangles, lives in ``tests/oracles.py``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, CapabilityError, DomainError, PoleError
from .specfun import _stirling_series, log_gamma

_FACTOR_BATCH = 1 << 16  # Verblunsky factors drawn at once by _verblunsky_draw
_WEYL_BLOCK = 1 << 16  # grid points evaluated at once by weyl_average
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class MomentEstimate:
    """Monte-Carlo mean with separate standard errors for the two components."""

    mean: complex
    se_re: float
    se_im: float
    samples: int
    seed: object = None

    def within(self, target, n_se=3.0):
        """True if target lies inside the n_se band componentwise."""
        t = complex(target)
        return (
            abs(self.mean.real - t.real) <= n_se * self.se_re
            and abs(self.mean.imag - t.imag) <= n_se * self.se_im
        )


def require_admissible(k):
    """Validate Re(k) > -3 (convergence region of the exact moment formula)."""
    k = complex(k)
    if k.real <= -3.0:
        raise AdmissibilityError(f"moment order must satisfy Re(k) > -3, got {k}")
    return k


def _log1p(w):
    """Principal log(1 + w) for complex w, accurate to a few ulps of |w| when w is small."""
    return complex(0.5 * math.log1p(w.real * (2.0 + w.real) + w.imag**2), math.atan2(w.imag, 1.0 + w.real))


def _log_gamma_ratio(z, a):
    """log Gamma(z + a) - log Gamma(z) for real z >= 1 and complex a, forming neither term.

    The recurrence log Gamma(w + 1) = log Gamma(w) + log w walks z up until z
    and Re(z + a) reach 10; there the two Stirling series are differenced as

        (z - 1/2) log(1 + a/z) + a log(z + a) - a + sigma(z + a) - sigma(z),

    sigma being the series' correction sum.  Every term is of size |a| log z,
    so the rounding error is a few ulps of that, where log Gamma(z + a) and
    log Gamma(z) are each of size z log z.
    """
    shift = max(0, math.ceil(10.0 - z - min(a.real, 0.0)))
    acc = -sum(_log1p(a / (z + m)) for m in range(shift))
    z += shift
    sigma = _stirling_series(np.array([z + a, z]))
    return acc + (z - 0.5) * _log1p(a / z) + a * np.log(z + a) - a + complex(sigma[0] - sigma[1])


def exact_moment(n, k):
    """e^{i pi k/2} Gamma(N+k+1) / (N! Gamma(k+2)) via log-Gamma arithmetic.

    Valid for complex k with k not in {-3, -4, ...}; no overflow for any n.
    log Gamma(N+k+1) - log Gamma(N+1) is taken as one difference
    (:func:`_log_gamma_ratio`), so the relative error stays a few ulps of
    |k| log N instead of growing like N log N.  At k = -2 the reciprocal
    Gamma factor vanishes and the moment is 0, except at N = 1, where
    Gamma(N+k+1) cancels it and the moment is i^k.
    """
    if n < 1:
        raise DomainError("matrix dimension must be >= 1")
    k = complex(k)
    if k.imag == 0 and k.real == round(k.real) and k.real <= -3:
        raise PoleError(f"exact moment has poles at negative integers k <= -3 (got k={k.real:g})")
    if k == -2:
        return complex(np.exp(1j * math.pi * k / 2.0)) if n == 1 else 0j
    log_val = 1j * math.pi * k / 2.0 + _log_gamma_ratio(n + 1.0, k) - log_gamma(k + 2.0)
    return complex(np.exp(log_val))


def conjecture_rhs(t_height, k):
    """(1/Gamma(k+2)) (log(T/2pi))^k with the real positive branch of the log power."""
    if t_height <= _TWO_PI:
        raise DomainError("height T must exceed 2*pi")
    k = require_admissible(k)
    if k == -2:
        return 0j
    log_l = math.log(math.log(t_height / _TWO_PI))
    return complex(np.exp(k * log_l - log_gamma(k + 2.0)))


def _weighted_verblunsky(j, rng):
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


def _szego_power_sums(gam, m_max):
    """Power sums p_m = sum_n lambda_n^m, m = 1..m_max, of the roots of the
    Szegő polynomial whose deformed Verblunsky coefficients are the columns of
    ``gam``, shape (B, N - 1), column N - 2 first and column 0 (on the unit
    circle) last; returns shape (B, m_max).

    The recursion Phi_{i+1}(z) = z Phi_i(z) - conj(alpha_i) Phi_i^*(z) with
    conj(alpha_i) = gamma u^2, u the phase of Phi_i(1), keeps
    Phi_{i+1}(1) = Phi_i(1) (1 - gamma), so Phi_{N-1}(1) = prod_j (1 - gamma_j)
    (Bourgade, Nikeghbali & Rouault, IMRN 2009).  Only the top m_max + 1
    coefficients T_t (of z^{i-t}) and the conjugated bottom ones C_t (of z^t)
    are carried: O(N m_max) a row.  T_t = (-1)^t e_t, so Newton's identities
    read p_m = -(m T_m + sum_{t<m} T_t p_{m-t}).
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


def _verblunsky_draw(n, k, count, rng, s_coeffs=()):
    """Up to ``count`` samples of the Z'^k statistic from independent weighted factors.

    The sample is i^k e^{sum_m s_m} prod_j (1 - gamma_j)^k e^{sum_m s_m p_m},
    the hybrid model's Z'_{N,X}(theta_r)^k for its Fourier coefficients
    ``s_coeffs`` = s_1..s_M, with p_m the eigenvalue power sums of
    :func:`_szego_power_sums`; with no coefficients it is the bare
    i^k prod_j (1 - gamma_j)^k.  The N - 1 factors are independent weighted
    Verblunsky coefficients (:func:`_weighted_verblunsky`), so a sample costs
    O(N (M + 1)).  Each factor 1 - gamma has nonnegative real part and takes
    the principal log, as each factor 1 - e^{i delta} does in the eigenangle
    statistic of the tests' QR+eig reference; the two sums of logs agree
    sample by sample.
    """
    b = min(count, max(1, _FACTOR_BATCH // n))
    gam = _weighted_verblunsky(np.broadcast_to(np.arange(n - 1), (b, n - 1)), rng)
    fac = 1.0 - gam
    # the principal log by real parts: numpy's complex log is many times slower
    log_abs = 0.5 * np.log(fac.real**2 + fac.imag**2).sum(axis=1)
    arg = np.arctan2(fac.imag, fac.real).sum(axis=1)
    logs = 1j * math.pi * k / 2.0 + k * (log_abs + 1j * arg)
    if len(s_coeffs):
        s = np.asarray(s_coeffs, dtype=complex)
        # an elementwise sum, not a BLAS product: BLAS threads left spinning slow the next draw
        logs = logs + s.sum() + (_szego_power_sums(gam, len(s)) * s).sum(axis=1)
    return np.exp(logs)


def _mc_worker(args):
    n, k, count, child_seed, draw = args
    rng = np.random.default_rng(child_seed)
    total = 0j
    total_sq = 0.0 + 0j  # sum of re^2 + i*sum of im^2
    done = 0
    while done < count:
        vals = draw(n, k, count - done, rng)
        total += vals.sum()
        total_sq += (vals.real**2).sum() + 1j * (vals.imag**2).sum()
        done += len(vals)
    return total, total_sq, done


def _merge_mc(pieces, seed):
    total = sum(p[0] for p in pieces)
    total_sq = sum(p[1] for p in pieces)
    count = sum(p[2] for p in pieces)
    mean = total / count
    var_re = max(total_sq.real / count - mean.real**2, 0.0) * count / (count - 1)
    var_im = max(total_sq.imag / count - mean.imag**2, 0.0) * count / (count - 1)
    return MomentEstimate(
        mean=complex(mean),
        se_re=math.sqrt(var_re / count),
        se_im=math.sqrt(var_im / count),
        samples=count,
        seed=seed,
    )


def _mc_estimate(n, k, samples, seed, workers, draw):
    """The Monte-Carlo driver: the mean of the samples ``draw`` returns.

    ``draw(n, k, count, rng)`` is a module-level function (or a partial of
    one, so that it pickles for the worker processes) returning at most
    ``count`` independent samples of the statistic; it picks its own batch
    size.  Sampling splits deterministically into ``workers`` child streams
    spawned from the seed; the merged result is bit-reproducible for fixed
    (seed, workers).
    """
    if n < 1:
        raise DomainError("matrix dimension must be >= 1")
    k = require_admissible(k)
    if samples < 100:
        raise DomainError("need at least 100 samples")
    if workers < 1:
        raise DomainError(f"need at least one worker, got {workers}")
    if k == 0:
        return MomentEstimate(mean=1.0 + 0j, se_re=0.0, se_im=0.0, samples=samples, seed=seed)

    counts = [samples // workers] * workers
    counts[-1] += samples - sum(counts)
    children = np.random.SeedSequence(seed).spawn(workers)
    jobs = [(n, k, c, ss, draw) for c, ss in zip(counts, children)]
    if workers == 1:
        pieces = [_mc_worker(jobs[0])]
    else:
        # imported here: a one-worker run never pays for multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            pieces = list(pool.map(_mc_worker, jobs))
    return _merge_mc(pieces, seed)


def mc_moment(n, k, samples, seed, workers=1):
    """Monte-Carlo estimate of E_N[(1/N) sum_n Z'(theta_n, A)^k].

    By rotation invariance and exchangeability the average is that of
    Z'(theta_r)^k at one eigenangle, which has the law of
    i^k prod_{j=0}^{N-2} (1 - gamma_j)^k with independent Verblunsky
    coefficients gamma_j, each from its Haar law sqrt(Beta(1, j)) e^{i omega}
    weighted by |1 - gamma|^2 (Bourgade, Hughes, Nikeghbali & Yor, Duke
    Math. J. 145 (2008); Bourgade, Nikeghbali & Rouault, IMRN 2009).  Each
    sample draws those N - 1 factors exactly (:func:`_verblunsky_draw`): O(N)
    work and no cap on N.  ``workers`` >= 1 child streams; the result is
    bit-reproducible for fixed (seed, workers).
    """
    return _mc_estimate(n, k, samples, seed, workers, _verblunsky_draw)


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
        raise CapabilityError("Weyl quadrature oracle supports n in {1, 2, 3} only")


def _require_grid(grid):
    if grid < 1:
        raise DomainError(f"the Weyl grid needs at least one point per axis (got {grid})")


def weyl_quadrature_oracle(n, k, grid):
    """Weyl integral of Z'(theta_1)^k over U(n), n <= 3, as an (n-1)-angle sum.

    By exchangeability Z'(theta_1)^k has the same Haar average as
    (1/N) sum_r Z'(theta_r)^k, and rotation invariance fixes theta_1 = 0:

        E_n[Z'(theta_1)^k]
            = (i^k / n) E_{U(n-1)}[prod_m |1 - e^{i theta_m}|^2 (1 - e^{i theta_m})^k],

    evaluated by :func:`weyl_average` on the lattice, where both identities
    hold exactly.  Each factor takes the principal log; a factor with
    1 - e^{i theta} = 0 (a coincidence, where the density vanishes to second
    order) contributes 0.  Converges to :func:`exact_moment` as the grid
    refines (spectrally for integer k; like grid^-(3+Re k) otherwise, from
    the algebraic coincidence singularity).

    Raises:
        CapabilityError: for n > 3.
        DomainError: for grid < 1.
    """
    k = require_admissible(k)
    _require_weyl_dim(n)
    _require_grid(grid)
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
