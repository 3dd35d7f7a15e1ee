"""Primes, von Mangoldt, generalized divisor function, and the coefficients of P_X^k.

P_X(s) = exp(sum_{n<=X} Lambda(n) / (log n * n^s)) is an exponential of a
finite Dirichlet polynomial, so any complex power expands as an absolutely
convergent Dirichlet series sum a_k(m) m^{-s} supported on X-smooth m.  The
per-prime coefficient generator is

    sum_r a_k(p^r) z^r = exp(sum_{j<=l(p)} (k/j) z^j),   l(p) = max{l : p^l <= X},

assembled multiplicatively over smooth integers; at z = 1/p it is P_X's Euler
factor at s = 1 (:func:`prime_power_sums`).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, DomainError
from .powerseries import exp_series_coeffs

_SMOOTH_BUDGET = 5_000_000
# Largest prime cutoff X: the sieve and the prime sums grow with X, and at
# X = 1e5 px-mean on 4,520 zeros already takes 3.3 s.
_X_MAX = 1e5


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
    fac = factorize(n)
    if len(fac) == 1:
        (p,) = fac.keys()
        return math.log(p)
    return 0.0


@dataclass(frozen=True)
class DirichletPoly:
    """Truncated Dirichlet expansion of P_X(s)^k over X-smooth support.

    Attributes:
        k: the complex power.
        x_cutoff: the prime cutoff X.
        m: sorted X-smooth integers <= m_max (support; a_k vanishes elsewhere).
        a: coefficients a_k(m), with a_k(1) = 1.
        m_max: truncation bound.
    """

    k: complex
    x_cutoff: float
    m: np.ndarray
    a: np.ndarray
    m_max: int


def _prime_power_limit(p, x_cutoff):
    """Largest l with p**l <= X (at least 1 when p <= X)."""
    ell = 0
    v = 1
    while v * p <= x_cutoff:
        v *= p
        ell += 1
    return ell


def _require_cutoff(x_cutoff):
    """Refuse a prime cutoff X that is not finite or is below 2, or exceeds 1e5."""
    if not (math.isfinite(x_cutoff) and x_cutoff >= 2):
        raise DomainError(f"prime cutoff X must be finite and >= 2 (got {x_cutoff:g})")
    if x_cutoff > _X_MAX:
        raise CapabilityError(f"prime cutoff X = {x_cutoff:g} exceeds the supported {_X_MAX:g}")


def prime_power_sums(x_cutoff):
    """The primes p <= X, with g_p = sum_{j<=l(p)} p^{-j}/j and h_p = sum_{j<=l(p)} p^{-j}.

    Over the powers of p, sum_r a_k(p^r) p^{-r} = e^{k g_p} and
    sum_r r a_k(p^r) p^{-r} = k h_p e^{k g_p}, for every k.  Returns three
    float arrays (p, g, h).
    """
    _require_cutoff(x_cutoff)
    primes = sieve_primes(int(x_cutoff))
    g, h = [], []
    for p in primes:
        inv = [float(p) ** -j for j in range(1, _prime_power_limit(p, x_cutoff) + 1)]
        g.append(math.fsum(v / j for j, v in enumerate(inv, start=1)))
        h.append(math.fsum(inv))
    return primes.astype(float), np.array(g), np.array(h)


def _smooth_expand(primes, tables, m_max):
    """Multiply per-prime tables out over the X-smooth integers m <= m_max.

    ``tables[i][r]`` is the factor at ``primes[i]**r``.  m stays sorted: for
    each prime and each r >= 1 the prefix m <= m_max // p^r is appended, times
    p^r, with its values times ``tables[i][r]``.  Returns (m, values).
    """
    m = np.ones(1, dtype=np.int64)
    vals = np.ones(1, dtype=complex)
    for p, table in zip(primes, tables):
        powers = [p**r for r in range(1, len(table))]
        cuts = [int(np.searchsorted(m, m_max // v, side="right")) for v in powers]
        if len(m) + sum(cuts) > _SMOOTH_BUDGET:
            raise CapabilityError("smooth-number enumeration exceeds the memory budget")
        m = np.concatenate([m] + [m[:c] * v for c, v in zip(cuts, powers)])
        vals = np.concatenate([vals] + [vals[:c] * t for c, t in zip(cuts, table[1:])])
        order = np.argsort(m)
        m, vals = m[order], vals[order]
    return m, vals


def a_coeffs(k, x_cutoff, m_max=10**6):
    """Dirichlet coefficients a_k(m) of P_X(s)^k over X-smooth m <= m_max.

    Per prime p <= X the generator exp(sum_{j<=l(p)} (k/j) z^j) is expanded by
    :func:`exp_series_coeffs`, and :func:`_smooth_expand` multiplies the
    tables out over the smooth integers.
    """
    _require_cutoff(x_cutoff)
    if m_max < 1:
        raise DomainError("m_max must be >= 1")
    k = complex(k)
    primes = [int(p) for p in sieve_primes(int(x_cutoff))]
    tables = [
        exp_series_coeffs([k / j for j in range(1, _prime_power_limit(p, x_cutoff) + 1)],
                          _prime_power_limit(p, m_max) + 1)
        for p in primes
    ]
    m, a = _smooth_expand(primes, tables, m_max)
    return DirichletPoly(k=k, x_cutoff=float(x_cutoff), m=m, a=a, m_max=int(m_max))


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

    Raises:
        DomainError: unless X is finite and >= 2.
        CapabilityError: for X > 1e5.
    """
    _require_cutoff(x_cutoff)
    k = complex(k)
    arr = np.asarray(s, dtype=complex)
    scalar = arr.ndim == 0
    n_max = int(x_cutoff)
    # the prime powers n = p^r <= X from the sieve, summed in ascending n
    powers = []
    for p in sieve_primes(n_max).tolist():
        n = p
        while n <= n_max:
            powers.append((n, p))
            n *= p
    acc = np.zeros(arr.shape, dtype=complex)
    for n, p in sorted(powers):
        log_n = math.log(n)
        acc = acc + (math.log(p) / log_n) * np.exp(-arr * log_n)
    out = np.exp(k * acc)
    return out.item() if scalar else out
