"""Independent references the tests check the package against.

None of these runs on a path of the package itself:

* :func:`kernel_U`, the hybrid kernel by adaptive quadrature, the reference
  of ``hybrid.kernel_U_batch``'s fixed panels;
* :func:`kernel_U_panels`, the same panel sums with one E1 per node, the
  reference of ``hybrid.kernel_U_batch``'s asymptotic moments;
* :func:`haar_angle_batch` and :func:`zprime_pow_rows`, Haar matrices by
  QR+eig and the Z'^k statistic at their eigenangles, the reference of the
  Verblunsky-factor samplers in ``rmt``;
* :func:`em_main_sums`, the Euler-Maclaurin main sums with one exp per term,
  the reference of ``specfun._main_sums``'s multiplicative table.
"""

import math

import numpy as np
from scipy.integrate import quad

from zetalab.errors import DomainError
from zetalab.hybrid import _U_CHUNK, _u_nodes, u_weight
from zetalab.specfun import exp_integral_e1

_COINCIDENCE_TOL = 1e-14
_TWO_PI = 2.0 * math.pi


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


def kernel_U_panels(z_values, spec):
    """sum_q W_q E1(z l_q) on the nodes ``hybrid.kernel_U_batch`` gives each z.

    The z values are chunked as there, by ascending |z|, and every chunk takes
    one E1 per (z, node), whatever its |z|.
    """
    flat = np.asarray(z_values, dtype=complex).reshape(-1)
    order = np.argsort(np.abs(flat))
    out = np.empty_like(flat)
    for lo in range(0, flat.size, _U_CHUNK):
        idx = order[lo : lo + _U_CHUNK]
        ell, uw = _u_nodes(np.abs(flat[idx]).max(), spec)
        out[idx] = exp_integral_e1(np.multiply.outer(flat[idx], ell)) @ uw
    return out.reshape(np.shape(z_values))


def em_main_sums(s, m_cut):
    """(sum_{n<M} n^{-s}, -sum_{n<M} log(n) n^{-s}) directly, exp(-s log n) at every n."""
    log_n = np.log(np.arange(1, m_cut, dtype=float))
    term = np.exp(-np.multiply.outer(s, log_n))
    return term.sum(axis=-1), -(term * log_n).sum(axis=-1)


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
