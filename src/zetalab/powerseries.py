"""Power-series utilities shared by the Toeplitz and Dirichlet-coefficient machinery."""

import numpy as np


def exp_series_coeffs(log_coeffs, n_terms):
    """Taylor coefficients of exp(g(z)) where g(z) = sum_j log_coeffs[j-1] * z**j.

    exp(g) is the product over j of exp(g_j z^j), whose coefficients
    g_j^r / r! sit at z^{jr}; each factor is one cumprod, and the factors are
    multiplied by truncated convolutions.  Returns h_0..h_{n_terms-1}, h_0 = 1.
    """
    h = np.zeros(n_terms, dtype=complex)
    h[0] = 1.0
    for j, g in enumerate(np.asarray(log_coeffs, dtype=complex), start=1):
        factor = np.zeros(n_terms, dtype=complex)
        factor[::j] = np.cumprod(np.append(1.0, g / np.arange(1, (n_terms - 1) // j + 1)))
        h = np.convolve(h, factor)[:n_terms]
    return h


def binomial_series(a, n_terms):
    """Coefficients c_0..c_{n_terms-1} of (1 - z)^a, c_j = (-1)^j C(a, j).

    Built as c_j = c_{j-1} (j - 1 - a) / j in this order and in Python complex
    arithmetic, whose division by j is exact where numpy's multiplies by 1/j,
    so integer a gives exact integers (a cumprod of the ratios does not).
    """
    a = complex(a)
    c = [1 + 0j]
    for j in range(1, n_terms):
        c.append(c[-1] * (j - 1 - a) / j)
    return np.array(c)
