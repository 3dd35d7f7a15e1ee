"""Power-series utilities shared by the Toeplitz and Dirichlet-coefficient machinery."""

import numpy as np


def exp_series_coeffs(log_coeffs, n_terms):
    """Taylor coefficients of exp(g(z)) where g(z) = sum_j log_coeffs[j-1] * z**j.

    Uses the derivative recurrence n*h_n = sum_{j<=min(n,d)} j*g_j*h_{n-j},
    which is exact given exact g_j. Returns h_0..h_{n_terms-1} with h_0 = 1.
    """
    g = np.asarray(log_coeffs, dtype=complex)
    d = len(g)
    h = np.zeros(n_terms, dtype=complex)
    h[0] = 1.0
    jg = np.arange(1, d + 1) * g
    for n in range(1, n_terms):
        jmax = min(n, d)
        h[n] = np.dot(jg[:jmax], h[n - jmax:n][::-1]) / n
    return h

