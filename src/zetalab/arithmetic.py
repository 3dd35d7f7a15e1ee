"""Primes, von Mangoldt, generalized divisor function, and the coefficients of P_X^k.

P_X(s) = exp(sum_{n<=X} Lambda(n) / (log n * n^s)) is an exponential of a
finite Dirichlet polynomial, so any complex power expands as an absolutely
convergent Dirichlet series sum a_k(m) m^{-s} supported on X-smooth m.  The
per-prime coefficient generator is

    sum_r a_k(p^r) z^r = exp(sum_{j<=l(p)} (k/j) z^j),   l(p) = max{l : p^l <= X},

assembled multiplicatively over smooth integers.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, DomainError
from .powerseries import exp_series_coeffs

_SMOOTH_BUDGET = 5_000_000


def sieve_primes(limit):
    """Primes up to limit (inclusive) by Eratosthenes."""
    if limit < 2:
        return np.array([], dtype=np.int64)
    is_p = np.ones(limit + 1, dtype=bool)
    is_p[:2] = False
    for i in range(2, int(limit**0.5) + 1):
        if is_p[i]:
            is_p[i * i :: i] = False
    return np.nonzero(is_p)[0].astype(np.int64)


def factorize(n):
    """Prime factorization of n >= 1 as {p: exponent} by trial division."""
    if n < 1:
        raise DomainError("factorize requires n >= 1")
    out = {}
    m = int(n)
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def von_mangoldt(n):
    """Lambda(n): log p if n = p^a for a prime p, else 0."""
    if n < 1:
        raise DomainError("von Mangoldt function requires n >= 1")
    if n == 1:
        return 0.0
    fac = factorize(n)
    if len(fac) == 1:
        (p,) = fac.keys()
        return math.log(p)
    return 0.0


def divisor_general(k, m):
    """Generalized divisor function d_k(m), multiplicative with d_k(p^r) = C(k+r-1, r).

    Computed as the rising-factorial product k(k+1)...(k+r-1)/r!, which is
    valid for every complex k (including negative integers, where it vanishes
    for large r).
    """
    if m < 1:
        raise DomainError("divisor_general requires m >= 1")
    k = complex(k)
    out = 1.0 + 0j
    for _, r in factorize(m).items():
        val = 1.0 + 0j
        for i in range(r):
            val *= (k + i) / (i + 1)
        out *= val
    return out


@dataclass(frozen=True)
class DirichletPoly:
    """Truncated Dirichlet expansion of P_X(s)^k over X-smooth support.

    Attributes:
        k: the complex power.
        x_cutoff: the prime cutoff X.
        m: sorted X-smooth integers <= m_max (support; a_k vanishes elsewhere).
        a: coefficients a_k(m), with a_k(1) = 1.
        lam: von Mangoldt values Lambda(m) on the support.
        m_max: truncation bound.
    """

    k: complex
    x_cutoff: float
    m: np.ndarray
    a: np.ndarray
    lam: np.ndarray
    m_max: int

    @property
    def primes(self):
        return sieve_primes(int(self.x_cutoff))

    def coeff(self, m):
        idx = np.searchsorted(self.m, m)
        if idx < len(self.m) and self.m[idx] == m:
            return complex(self.a[idx])
        return 0j

    def tail_bound(self):
        """Bound on |sum_{smooth m > m_max} a_k(m) m^{-1/2}|.

        Uses |a_k(m)| <= d_{|k|}(m): the full smooth Euler product of
        d_{|k|}(m) m^{-1/2} minus the part captured by the support.
        """
        kk = abs(complex(self.k))
        full = 1.0
        for p in self.primes:
            full *= (1.0 - p**-0.5) ** (-kk)
        captured = 0.0
        for m, _ in zip(self.m, self.a):
            captured += abs(divisor_general(kk, int(m))) / math.sqrt(m)
        return max(full - captured, 0.0)


def _prime_power_limit(p, x_cutoff):
    """Largest l with p**l <= X (at least 1 when p <= X)."""
    ell = 0
    v = 1
    while v * p <= x_cutoff:
        v *= p
        ell += 1
    return ell


def a_coeffs(k, x_cutoff, m_max=10**6):
    """Dirichlet coefficients a_k(m) of P_X(s)^k over X-smooth m <= m_max.

    Per prime p <= X the generator exp(sum_{j<=l(p)} (k/j) z^j) is expanded by
    the shared derivative recurrence; coefficients are then assembled
    multiplicatively by a bounded DFS over prime-exponent vectors.
    """
    if x_cutoff < 2:
        raise DomainError("prime cutoff X must be >= 2")
    if m_max < 1:
        raise DomainError("m_max must be >= 1")
    k = complex(k)
    primes = [int(p) for p in sieve_primes(int(x_cutoff))]

    per_prime = []
    for p in primes:
        ell = _prime_power_limit(p, x_cutoff)
        r_max = _prime_power_limit(p, m_max)
        gen = [k / j for j in range(1, ell + 1)]
        per_prime.append(exp_series_coeffs(gen, r_max + 1))

    ms, coeffs, lams = [], [], []

    def dfs(i, m, a, n_prime_factors, last_lam):
        if i == len(primes):
            ms.append(m)
            coeffs.append(a)
            lams.append(last_lam if n_prime_factors <= 1 else 0.0)
            return
        if len(ms) > _SMOOTH_BUDGET:
            raise CapabilityError("smooth-number enumeration exceeds the memory budget")
        p = primes[i]
        table = per_prime[i]
        dfs(i + 1, m, a, n_prime_factors, last_lam)
        r, v = 1, p
        while m * v <= m_max and r < len(table):
            dfs(i + 1, m * v, a * table[r], n_prime_factors + 1, math.log(p))
            r += 1
            v *= p

    dfs(0, 1, 1.0 + 0j, 0, 0.0)
    order = np.argsort(np.array(ms))
    return DirichletPoly(
        k=k,
        x_cutoff=float(x_cutoff),
        m=np.array(ms, dtype=np.int64)[order],
        a=np.array(coeffs, dtype=complex)[order],
        lam=np.array(lams, dtype=float)[order],
        m_max=int(m_max),
    )


def p_x_pow(s, k, poly):
    """P_X(s)^k = sum over the support of a_k(m) m^{-s}, vectorized over s.

    ``poly`` must have been built with the same (k, X).  The sum is cut at
    m_max, so it is the check of the coefficients a_k(m) against
    :func:`p_x_euler`, not a route to P_X on the critical line.
    """
    if complex(k) != complex(poly.k):
        raise DomainError("DirichletPoly was built for a different k")
    arr = np.asarray(s, dtype=complex)
    scalar = arr.ndim == 0
    flat = arr.reshape(-1)
    log_m = np.log(poly.m.astype(float))
    out = np.zeros(flat.shape, dtype=complex)
    chunk = max(1, 20_000_000 // max(len(log_m), 1))
    for lo in range(0, len(flat), chunk):
        block = flat[lo : lo + chunk]
        out[lo : lo + chunk] = np.exp(-np.multiply.outer(block, log_m)) @ poly.a
    out = out.reshape(arr.shape)
    return out.item() if scalar else out


def p_x_euler(s, k, x_cutoff):
    """Direct route: exp(k * sum_{n<=X} Lambda(n)/(log n * n^s)).

    The defining exponential form, exact up to rounding with one term per
    prime power n <= X; the experiments evaluate P_X at the zeros with it.
    """
    k = complex(k)
    arr = np.asarray(s, dtype=complex)
    scalar = arr.ndim == 0
    n_max = int(x_cutoff)
    acc = np.zeros(arr.shape, dtype=complex)
    for n in range(2, n_max + 1):
        lam = von_mangoldt(n)
        if lam:
            acc = acc + (lam / math.log(n)) * np.exp(-arr * math.log(n))
    out = np.exp(k * acc)
    return out.item() if scalar else out
