"""Fourier coefficients of the singular symbol and Heine's Toeplitz determinant.

Heine's identity turns the Haar average of the hybrid product statistic into
D_{N-1}[f], the (N-1) x (N-1) Toeplitz determinant of

    f(v) = |1 - e^{iv}|^2 (1 - e^{iv})^k e^{k F_X(-v)}
         = (1 - z^{-1}) h(z),   h(z) = (1 - z)^{k+1} e^{S(z)},   z = e^{iv},

with S(z) = sum_m s_m z^m the finite Fourier sum of k F_X(-v).  The
determinant is one power-series coefficient:

    fhat_{-1} = -1 and fhat_j = 0 for j <= -2, so D_n = sum_{r<n} fhat_r D_{n-1-r};
    sum_{r>=0} fhat_r w^{r+1} = 1 - (1 - w) h(w), so sum_n D_n w^n = 1 / ((1 - w) h(w));
    hence D_{N-1}[f] = [w^{N-1}] (1 - w)^{-k-2} e^{-S(w)}.

The coefficients fhat_j themselves are assembled by exact convolution
(generalized binomials x two-term factor x entire exponential series) rather
than grid transforms, since the symbol's algebraic singularity at v = 0 makes
trigonometric-grid extraction converge slowly.  :func:`symbol_coeffs` returns
fhat_{-1} .. fhat_{max_freq} as one complex array, fhat_j at index j + 1; with
a dense LU (:func:`toeplitz_det`) they are the test oracle of the series.
"""

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, DomainError
from .hybrid import fourier_coeffs
from .powerseries import binomial_series, exp_series_coeffs
from .rmt import require_admissible
from .specfun import log_gamma_ratio

# Largest N of the series: exp_series_coeffs convolves at full length once per
# Fourier coefficient, O(N^2 log X) work; at N = 16,000 it took 0.15 s at
# X = e^3 and 0.86 s at X = 1e5 (2-core Xeon)
_SERIES_N_MAX = 1 << 14


def _warn_cancellation(magnitude, value, what):
    """Warn when summands of total size ``magnitude`` cancel to ``value`` by more than 1e6.

    The warning names the first line outside this package up the stack: the
    line that called into it.
    """
    if magnitude > 1e6 * value:
        frame, level = sys._getframe(1), 2  # stacklevel 2 is this function's caller
        while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] == "zetalab":
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"cancellation amplifies rounding by {magnitude / value:.1e} in {what}, "
            "which may carry fewer than 10 digits",
            stacklevel=level,
        )


def symbol_coeffs(k, params, max_freq):
    """Symbol coefficients fhat_{-1} .. fhat_{max_freq} by exact convolution.

    Returns them as one complex array of length max_freq + 2, fhat_j at index
    j + 1; fhat_j vanishes for j <= -2.  Warns when the convolution cancels:
    when the largest sum of the summands' magnitudes exceeds 1e6 times the
    largest |fhat|.
    """
    k = require_admissible(k)
    if max_freq < 0:
        raise DomainError("max_freq must be >= 0")
    h = exp_series_coeffs(fourier_coeffs(k, params), max_freq + 2)
    # fhat_n = sum_l h_l d_{n-l} with d_j = c_j - c_{j+1} (c_j = 0 for j < 0),
    # so d_{-1} = -c_0; d is stored from j = -1, and fhat_n sits at index n + 1
    d = -np.diff(binomial_series(k + 1, max_freq + 2), prepend=0.0)
    values = np.convolve(h, d)[: max_freq + 2]
    # largest sum of the summands' magnitudes against the largest coefficient:
    # measured per coefficient, one that is exactly 0 would read as total loss
    mag = np.convolve(np.abs(h), np.abs(d))[: max_freq + 2]
    _warn_cancellation(mag.max(), np.abs(values).max(),
                       f"the coefficients to max_freq = {max_freq}, relative to the largest")
    return values


def toeplitz_det(fhat, size, method="dense"):
    """D_size[f] = det(fhat_{j-l}), 1 <= j, l <= size, by LU with partial pivoting.

    ``fhat`` is :func:`symbol_coeffs`' array, built to max_freq >= size - 1.
    The test oracle of the power series in :func:`es_comparison`.
    ``"dense"`` is the only ``method``.
    """
    if method != "dense":
        raise ValueError(f"unknown method {method!r}")
    if size < 1:
        raise DomainError("determinant size must be >= 1")
    if size + 1 > len(fhat):
        raise DomainError(f"size {size} needs frequencies up to {size - 1}, built up to {len(fhat) - 2}")
    # entry (j, l) is fhat_{j-l}, at index j - l + size - 1 of fhat_{1-size} .. fhat_{size-1}
    diagonals = np.concatenate((np.zeros(size), fhat[: size + 1]))[2:]
    j = np.arange(size)
    return complex(np.linalg.det(diagonals[j[:, None] - j[None, :] + size - 1]))


@dataclass(frozen=True)
class ToeplitzResult:
    """Determinant route vs asymptotic prediction at one (k, X, N)."""

    det: complex  # D_{N-1}[f]
    expectation: complex  # e^{i k pi/2} e^{k F_X(0)} det / N
    asymptotic: complex  # e^{i k pi/2} N^k / Gamma(k+2)


def es_comparison(k, params):
    """Assemble the finite-N Toeplitz expectation and its power-law limit.

    The determinant is D_{N-1}[f] = [w^{N-1}] (1 - w)^{-k-2} e^{-S(w)} (module
    docstring): fhat_{-1} = -1 makes the last-column expansion
    D_n = sum_{r<n} fhat_r D_{n-1-r}, whose generating function is
    1 / ((1 - w) h(w)) with h = (1 - w)^{k+1} e^{S}.  It warns when the
    coefficient's terms cancel by more than 1e6.

    The symbol has singularity exponents gamma = k+1, delta = 1, for which the
    Barnes-G constant collapses: G(2+k) G(2) / G(3+k) = 1 / Gamma(k+2), so the
    prediction is e^{i k pi/2} N^k / Gamma(k+2), which is 0 at k = -2.
    """
    return es_comparisons(k, params, [params.n])[0]


def es_comparisons(k, params, sizes):
    """:func:`es_comparison` at each N in ``sizes``, whatever ``params.n`` is.

    S does not depend on N, and a prefix of the two series is the series of
    that length, so both are built once, to the largest N; each D_{N-1} then
    sums the same terms, in the same order, as a series built to N would.

    Raises:
        CapabilityError: for N above 16384.
    """
    k = require_admissible(k)
    if min(sizes) < 1:
        raise DomainError("matrix dimension must be >= 1")
    n_max = max(sizes)
    if n_max > _SERIES_N_MAX:
        raise CapabilityError(f"the Toeplitz series supports N <= {_SERIES_N_MAX} (got {n_max})")
    s = fourier_coeffs(k, params)
    binom = binomial_series(-k - 2, n_max)
    exp_s = exp_series_coeffs(-s, n_max)
    phase = 1j * math.pi * k / 2.0
    # 1/Gamma(k+2) vanishes at k = -2, the admissible pole of Gamma
    log_gamma_k2 = None if k == -2 else log_gamma_ratio(2.0, k)
    out = []
    for n in sizes:
        terms = binom[:n] * exp_s[:n][::-1]
        det = complex(terms.sum())
        _warn_cancellation(np.abs(terms).sum(), abs(det), f"the size-{n - 1} determinant")
        expectation = np.exp(phase + s.sum()) * det / n
        asymptotic = 0j if log_gamma_k2 is None else np.exp(phase + k * math.log(n) - log_gamma_k2)
        out.append(ToeplitzResult(det=det, expectation=complex(expectation), asymptotic=complex(asymptotic)))
    return out
