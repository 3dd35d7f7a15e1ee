"""Fourier coefficients of the singular symbol and Toeplitz determinants.

Heine's identity turns the Haar average of the hybrid product statistic into
D_{N-1}[f], the (N-1) x (N-1) Toeplitz determinant of

    f(v) = |1 - e^{iv}|^2 (1 - e^{iv})^k e^{k F_X(-v)}
         = (1 - z)^{k+1} (1 - z^{-1}) exp(sum_m s_m z^m),   z = e^{iv}.

The only negative-frequency factor is (1 - z^{-1}), so fhat_j = 0 for j <= -2
and fhat_{-1} = -1: the Toeplitz matrix is Hessenberg and its determinant
satisfies an O(size^2) recurrence.  The coefficients themselves are assembled
by exact convolution (generalized binomials x two-term factor x entire
exponential series) rather than grid transforms, since the symbol's algebraic
singularity at v = 0 makes trigonometric-grid extraction converge slowly.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DomainError, IncompleteCoefficientsError
from .hybrid import fourier_coeffs
from .powerseries import exp_series_coeffs
from .rmt import require_admissible
from .specfun import log_gamma


@dataclass(frozen=True)
class SymbolCoeffs:
    """Fourier coefficients fhat_{-1} .. fhat_{max_freq} of the symbol.

    ``fhat[j]`` is stored at ``values[j + 1]``; frequencies below -1 vanish
    identically.
    """

    values: np.ndarray
    k: complex
    log_x: float
    sum_s: complex  # sum of the trig-polynomial coefficients, = k F_X(0)

    @property
    def max_freq(self):
        return len(self.values) - 2

    def fhat(self, j):
        if j <= -2:
            return 0j
        if j > self.max_freq:
            raise IncompleteCoefficientsError(
                f"frequency {j} not built (max_freq = {self.max_freq})"
            )
        return complex(self.values[j + 1])


def _binomial_series(k, count):
    """Coefficients of (1 - z)^(k+1): c_j = (-1)^j C(k+1, j) for j = 0..count-1."""
    c = np.empty(count, dtype=complex)
    c[0] = 1.0
    for j in range(1, count):
        c[j] = c[j - 1] * (j - k - 2.0) / j
    return c


def symbol_coeffs(k, params, max_freq):
    """Symbol coefficients by exact convolution, for frequencies -1 .. max_freq.

    Emits a precision warning when the binomial factor has not decayed at the
    requested frequency range (|C(k+1, j)| = O(j^{-Re k - 2}), so very
    negative Re k needs care).
    """
    k = require_admissible(k)
    if max_freq < 0:
        raise DomainError("max_freq must be >= 0")
    s = fourier_coeffs(k, params)
    h = exp_series_coeffs(s.values, max_freq + 2)
    # fhat_n = sum_l h_l d_{n-l} with d_j = c_j - c_{j+1} (c_j = 0 for j < 0),
    # so d_{-1} = -c_0; d is stored from j = -1, and fhat_n sits at index n + 1
    d = -np.diff(_binomial_series(k, max_freq + 2), prepend=0.0)
    values = np.convolve(h, d)[: max_freq + 2]
    # largest sum of the summands' magnitudes against the largest coefficient:
    # measured per coefficient, one that is exactly 0 would read as total loss
    mag = np.convolve(np.abs(h), np.abs(d))[: max_freq + 2]
    amplification = mag.max() / np.abs(values).max()
    if amplification > 1e6:
        warnings.warn(
            f"binomial-tail cancellation amplifies rounding by {amplification:.1e} "
            f"at max_freq = {max_freq}; coefficients may carry fewer than 10 digits "
            "relative to the largest",
            stacklevel=2,
        )
    return SymbolCoeffs(values=values, k=k, log_x=params.log_x, sum_s=s.sum)


def toeplitz_det(sc, size, method="hessenberg"):
    """D_size[f] = det(fhat_{j-l}), 1 <= j, l <= size.

    ``method="hessenberg"`` uses the O(size^2) recurrence valid because
    fhat_j = 0 for j <= -2; ``method="dense"`` builds the matrix and runs LU
    with partial pivoting (the cross-check oracle for sizes <= 64).
    """
    if size < 1:
        raise DomainError("determinant size must be >= 1")
    if size - 1 > sc.max_freq:
        raise IncompleteCoefficientsError(
            f"size {size} needs frequencies up to {size - 1}, built up to {sc.max_freq}"
        )
    fpos = sc.values[1 : size + 1]  # fhat_0 .. fhat_{size-1}
    fm1 = sc.values[0]  # fhat_{-1}
    if method == "dense":
        # first column fhat_0..fhat_{size-1}, first row fhat_0, fhat_{-1}, 0, ...
        first_row = np.pad(sc.values[1::-1], (0, size))[:size]
        return complex(np.linalg.det(scipy.linalg.toeplitz(fpos, first_row)))
    if method != "hessenberg":
        raise ValueError(f"unknown method {method!r}")
    # expansion along the last column of the (transposed, upper-Hessenberg)
    # matrix: D_n = sum_{r=0}^{n-1} fhat_r (-fhat_{-1})^r D_{n-1-r}
    dets = np.empty(size + 1, dtype=complex)
    dets[0] = 1.0
    scaled = fpos * (-fm1) ** np.arange(size)
    for n in range(1, size + 1):
        dets[n] = np.dot(scaled[:n], dets[n - 1 :: -1][:n])
    return complex(dets[size])


@dataclass(frozen=True)
class ToeplitzResult:
    """Determinant route vs asymptotic prediction at one (k, X, N)."""

    size: int  # N - 1
    det: complex
    expectation: complex  # e^{i k pi/2} e^{k F_X(0)} det / N
    asymptotic: complex  # e^{i k pi/2} N^k / Gamma(k+2)
    ratio: complex


def es_comparison(k, params):
    """Assemble the finite-N Toeplitz expectation and its power-law limit.

    The symbol has singularity exponents gamma = k+1, delta = 1, for which the
    Barnes-G constant collapses: G(2+k) G(2) / G(3+k) = 1 / Gamma(k+2), so the
    prediction is e^{i k pi/2} N^k / Gamma(k+2).
    """
    k = require_admissible(k)
    if k.imag == 0 and k.real == round(k.real) and k.real <= -3:
        raise DomainError("k at a negative integer <= -3 is a pole of the prediction")
    n = params.n
    sc = symbol_coeffs(k, params, max_freq=max(n - 2, 0))
    det = toeplitz_det(sc, n - 1) if n > 1 else 1.0 + 0j
    prefactor = np.exp(1j * math.pi * k / 2.0 + sc.sum_s)
    expectation = prefactor * det / n
    asymptotic = np.exp(1j * math.pi * k / 2.0 + k * math.log(n) - log_gamma(k + 2.0))
    return ToeplitzResult(
        size=n - 1,
        det=complex(det),
        expectation=complex(expectation),
        asymptotic=complex(asymptotic),
        ratio=complex(expectation / asymptotic),
    )
