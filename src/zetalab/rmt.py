"""Haar-unitary sampling and moments of the characteristic polynomial derivative.

Implements the exact Haar average

    E_N[(1/N) sum_n Z'(theta_n, A)^k] = e^{i pi k / 2} Gamma(N+k+1) / (N! Gamma(k+2)),

its Monte-Carlo estimation with branch-correct complex powers, and a small-N
Weyl-measure quadrature oracle that fixes one eigenangle by rotation
invariance and sums over the other N - 1 on a lattice.

``_mc_estimate`` is the one Monte-Carlo driver: it serves both
:func:`mc_moment` (the bare Z'^k) and ``hybrid.mc_hybrid_moment`` (Z'^k
weighted by the hybrid model's Fourier sum) through the one statistic
``_zprime_pow_rows``.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, CapabilityError, DomainError, PoleError
from .specfun import log_gamma

_COINCIDENCE_TOL = 1e-14
_MC_DIM_CAP = 512
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


def _haar_angle_batch(n, count, rng):
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


def exact_moment(n, k):
    """e^{i pi k/2} Gamma(N+k+1) / (N! Gamma(k+2)) via log-Gamma arithmetic.

    Valid for complex k with k not in {-3, -4, ...}; no overflow for n up to
    1e6.  At k = -2 the reciprocal Gamma factor vanishes and the moment is 0,
    except at N = 1, where Gamma(N+k+1) cancels it and the moment is i^k.
    """
    if n < 1:
        raise DomainError("matrix dimension must be >= 1")
    k = complex(k)
    if k.imag == 0 and k.real == round(k.real) and k.real <= -3:
        raise PoleError(f"exact moment has poles at negative integers k <= -3 (got k={k.real:g})")
    if k == -2:
        return complex(np.exp(1j * math.pi * k / 2.0)) if n == 1 else 0j
    log_val = (
        1j * math.pi * k / 2.0
        + log_gamma(n + k + 1.0)
        - log_gamma(n + 1.0)
        - log_gamma(k + 2.0)
    )
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


def _zprime_pow_rows(angle_rows, col_index, k, s_coeffs):
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


def _mc_worker(args):
    n, k, count, child_seed, s_coeffs = args
    rng = np.random.default_rng(child_seed)
    total = 0j
    total_sq = 0.0 + 0j  # sum of re^2 + i*sum of im^2
    done = 0
    batch_cap = max(1, min(32768, 4_000_000 // (n * n)))
    while done < count:
        b = min(batch_cap, count - done)
        ang = _haar_angle_batch(n, b, rng)
        # uniformly random eigenangle per sample: the label-exchangeable
        # realization of "no distinguished eigenvalues" (sorted-position
        # selection is gap-size-biased and would skew the estimate)
        cols = rng.integers(0, n, size=b)
        vals = _zprime_pow_rows(ang, cols, k, s_coeffs)
        nan = np.isnan(vals)
        while nan.any():  # degenerate float collisions: resample those rows whole
            m = int(nan.sum())
            ang2 = _haar_angle_batch(n, m, rng)
            cols2 = rng.integers(0, n, size=m)
            vals[nan] = _zprime_pow_rows(ang2, cols2, k, s_coeffs)
            nan = np.isnan(vals)
        total += vals.sum()
        total_sq += (vals.real**2).sum() + 1j * (vals.imag**2).sum()
        done += b
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


def _mc_estimate(n, k, samples, seed, workers, s_coeffs):
    """The Monte-Carlo driver: mean of the :func:`_zprime_pow_rows` statistic.

    Each sample is one Haar matrix and one uniformly drawn eigenangle; a
    sample with coincident angles is replaced by a fresh matrix and column.
    Sampling splits deterministically into ``workers`` child streams spawned
    from the seed; the merged result is bit-reproducible for fixed
    (seed, workers).
    """
    if n < 1:
        raise DomainError("matrix dimension must be >= 1")
    if n > _MC_DIM_CAP:
        raise CapabilityError(f"Monte-Carlo dimension capped at {_MC_DIM_CAP}")
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
    jobs = [(n, k, c, ss, s_coeffs) for c, ss in zip(counts, children)]
    if workers == 1:
        pieces = [_mc_worker(jobs[0])]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pieces = list(pool.map(_mc_worker, jobs))
    return _merge_mc(pieces, seed)


def mc_moment(n, k, samples, seed, workers=1):
    """Monte-Carlo estimate of E_N[(1/N) sum_n Z'(theta_n, A)^k].

    By rotation invariance the statistic is evaluated at a single uniformly
    chosen eigenangle per sample.  ``workers`` >= 1 child streams; the result
    is bit-reproducible for fixed (seed, workers).
    """
    return _mc_estimate(n, k, samples, seed, workers, ())


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
    """
    _require_weyl_dim(n)
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
    """
    k = require_admissible(k)
    _require_weyl_dim(n)
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
