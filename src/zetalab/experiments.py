"""Zeta-side discrete sums over the computed zeros.

Each experiment pairs an empirical sum over zeros, correctly rounded by
math.fsum, with the closed-form prediction it is conjectured (or proven) to track:

* :func:`zeta_prime_moments` -- (1/N(T)) sum zeta'(rho)^k against
  (1/Gamma(k+2)) log(T/2pi)^k, at several heights T from one evaluation of
  zeta' at the zeros.
* :func:`landau_gonek` -- sum m^{-rho} against -(T/2pi) Lambda(m)/m.
* :func:`px_mean` -- sum P_X(rho)^k against N(T) minus the subsidiary
  (T/2pi) sum a_k(m) Lambda(m)/m term.
* :func:`twisted_first_moment` -- sum zeta'(rho) P_X(rho)^{-1} against the
  three-term polynomial main term plus the A1/B1 prime sums.

The m-sums of the last two over the coefficients a_k(m) of P_X(s)^k are
taken in closed form over the primes p <= X, untruncated.  Each sum runs over
``ZeroList.covering(T)``, the list's ordinates up to T once it holds the count N(T).
Main and subsidiary prediction pieces are always reported separately so
slow-convergence diagnostics stay visible.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .arithmetic import p_x_euler, prime_power_sums, von_mangoldt
from .errors import DomainError
from .rmt import conjecture_rhs, require_admissible
from .specfun import GAMMA0, GAMMA1, zeta_prime_at_zeros

_TWO_PI = 2.0 * math.pi
# Largest m for landau_gonek: Lambda(m) is found by trial division, 0.06 s at
# the prime 999,999,999,989.
_LANDAU_GONEK_M_MAX = 10**12

INTEGER_POWER = "integer-power"
RECIPROCAL = "reciprocal"
PRINCIPAL_LOG = "principal-log"


@dataclass(frozen=True)
class MomentResult:
    """One experiment outcome: empirical sum vs prediction."""

    empirical: complex
    predicted: complex
    n_zeros: int
    branch: str = ""
    details: dict = field(default_factory=dict)


def resolve_branch(k):
    """integer-power for k in Z>=0, reciprocal for k in Z<0, else principal-log.

    The principal-log strategy is experimental: the model's branch for
    non-integer powers is defined through the hybrid product, not by
    continuous variation of log zeta', so it is excluded from acceptance.
    """
    k = complex(k)
    if k.imag == 0 and k.real == round(k.real):
        return INTEGER_POWER if k.real >= 0 else RECIPROCAL
    return PRINCIPAL_LOG


def _int_power(values, n):
    """Repeated-multiplication integer power (binary exponentiation), n >= 0."""
    out = np.ones_like(values)
    base = values.copy()
    n = int(n)
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


def complex_fsum(values):
    """Correctly rounded sum (math.fsum) of the real and imaginary parts of a 1-D array.

    fsum reads Python floats from a list without boxing each one as np.float64.
    """
    values = np.asarray(values, dtype=complex)
    return complex(math.fsum(values.real.tolist()), math.fsum(values.imag.tolist()))


def _branch_power(values, k, branch):
    if branch == INTEGER_POWER:
        return _int_power(values, int(k.real))
    if branch == RECIPROCAL:
        small = np.abs(values) < 1e-12
        if small.any():
            raise DomainError(
                "negative moment hit |zeta'(rho)| < 1e-12 (near-multiple zero); "
                f"first offender at index {int(np.nonzero(small)[0][0])}"
            )
        return 1.0 / _int_power(values, -int(k.real))
    return np.exp(k * np.log(values))


def zeta_prime_moments(zeros, heights, k):
    """(1/N(T)) sum_{gamma<=T} zeta'(1/2+i gamma)^k vs (1/Gamma(k+2)) log(T/2pi)^k,
    at each T of ``heights``, in their order.

    Args:
        zeros: a ZeroList covering (0, T] for every T.
        heights: the heights T.
        k: moment order, Re(k) > -3; the power takes :func:`resolve_branch`'s branch.

    zeta' is evaluated once, at the zeros below the largest height
    (:func:`zeta_prime_at_zeros`), and each height reduces over its prefix of
    those values.  From t = 200 (``specfun.RS_T_MIN``) on, each zero's zeta'
    is computed on its own, so at every height T >= 200 a moment equals the
    one-height call ``zeta_prime_moments(zeros, [T], k)`` bit for bit.  The
    zeros below 200 go to Euler-Maclaurin, whose chunks share a cutoff, so a
    height below 200 can differ from a one-height call by that rounding.
    Each result's details hold the bare sum, the main term n_formula of N(T)
    and the sum normalized by it.

    Raises:
        DomainError: for a height with no zero at or below it, where the
            moment would average over no zeros.
    """
    k = require_admissible(k)
    gammas = zeros.below(max(heights))
    for t in heights:
        zeros.covering(t)
        if not (gammas.size and gammas[0] <= t):
            raise DomainError(f"no zero at or below T = {t:g}: the moment averages over the zeros up to T")
    branch = resolve_branch(k)
    powers = _branch_power(zeta_prime_at_zeros(gammas), k, branch)
    out = []
    for t in heights:
        n = int(np.searchsorted(gammas, t, side="right"))
        total = complex_fsum(powers[:n])
        n_formula = (t / _TWO_PI) * math.log(t / (_TWO_PI * math.e))
        details = {"sum": total, "n_formula": n_formula, "normalized_by_formula": total / n_formula}
        out.append(MomentResult(empirical=total / n, predicted=complex(conjecture_rhs(t, k)), n_zeros=n,
                                branch=branch, details=details))
    return out


def landau_gonek(zeros, m, t_height):
    """sum_{0<gamma<=T} m^{-rho} vs the Landau-Gonek main term -(T/2pi) Lambda(m)/m.

    Raises:
        DomainError: for m < 2 -- the formula excludes m = 1, where the sum
            trivially equals N(T) -- and for m > 10^12.
    """
    if m < 2:
        raise DomainError("Landau-Gonek requires m >= 2 (at m = 1 the sum is trivially N(T))")
    if m > _LANDAU_GONEK_M_MAX:
        raise DomainError("Landau-Gonek takes m <= 10^12, where Lambda(m) comes by trial division")
    gammas = zeros.covering(t_height)
    terms = m**-0.5 * np.exp(-1j * gammas * math.log(m))
    empirical = complex_fsum(terms)
    predicted = complex(-(t_height / _TWO_PI) * von_mangoldt(m) / m)
    return MomentResult(empirical=complex(empirical), predicted=predicted, n_zeros=len(gammas))


def px_mean(zeros, t_height, k, x_cutoff):
    """sum_{gamma<=T} P_X(rho)^k vs N(T) - (T/2pi) sum_m a_k(m) Lambda(m)/m.

    The empirical side is the exact P_X(rho)^k = exp(k sum_{n<=X}
    Lambda(n)/(log n n^rho)) (:func:`p_x_euler`).  The m-sum is
    :func:`_px_subsidiary`'s closed form, complex for non-real k (at T = 5000,
    X = log T, k = 1+i the predicted imaginary part is -1628.7 against
    -1608.3 measured).  Both the bare N(T) comparison and the two-term
    comparison are reported (details["predicted_bare"] vs the headline
    prediction).
    """
    gammas = zeros.covering(t_height)
    k = require_admissible(k)
    subsidiary = _px_subsidiary(k, x_cutoff)
    if x_cutoff > 4.0 * math.log(t_height):
        warnings.warn(
            f"X = {x_cutoff:g} strains the X = O(log T) growth condition at T = {t_height:g}",
            stacklevel=2,
        )
    n = len(gammas)
    values = p_x_euler(0.5 + 1j * gammas, k, x_cutoff)
    empirical = complex_fsum(values)
    predicted = n - (t_height / _TWO_PI) * subsidiary
    return MomentResult(
        empirical=complex(empirical),
        predicted=complex(predicted),
        n_zeros=n,
        details={"predicted_bare": complex(n), "subsidiary_sum": subsidiary},
    )


def _px_subsidiary(k, x_cutoff):
    """sum_m a_k(m) Lambda(m)/m = sum_{p<=X} log p (e^{k g_p} - 1): Lambda
    vanishes off the prime powers (g_p from :func:`arithmetic.prime_power_sums`)."""
    p, g, _ = prime_power_sums(x_cutoff)
    return complex(np.sum(np.log(p) * np.expm1(k * g)))


def cgg_main_term(t_height):
    """Three-term polynomial main term of sum_{gamma<=T} zeta'(rho).

    (T/4pi) [log^2(T/2pi) - 2(1-gamma0) log(T/2pi) + 2(1-gamma0-3*gamma1-gamma0^2)].
    """
    ell = math.log(t_height / _TWO_PI)
    return (t_height / (4.0 * math.pi)) * (
        ell * ell
        - 2.0 * (1.0 - GAMMA0) * ell
        + 2.0 * (1.0 - GAMMA0 - 3.0 * GAMMA1 - GAMMA0 * GAMMA0)
    )


def cgg_leading_term(t_height):
    """Bare leading term (T/4pi) log^2(T/2pi) of the same sum."""
    ell = math.log(t_height / _TWO_PI)
    return (t_height / (4.0 * math.pi)) * ell * ell


def _twisted_m_sum(t_height, x_cutoff):
    """sum_{m>=2} (a_{-1}(m)/m) (A1(1,m) + B1(m,T)), prime by prime.

    With c_p = (p/(p-1)) log p, A1(1, p^a) = c_p log p/(p-1) and
    B1 = -c_p (log(T/2pi) - 1 + gamma0 + (a - 1/2) log p) on prime powers,
    B1 = c_p c_q on p^a q^b, and both vanish elsewhere.  So with
    S0_p = sum_{a>=1} a_{-1}(p^a) p^{-a} = e^{-g_p} - 1 and
    S1_p = sum_{a>=1} a a_{-1}(p^a) p^{-a} = -h_p e^{-g_p}
    (:func:`arithmetic.prime_power_sums`) the sum is

        sum_p [(A1(1, p) - c_p (log(T/2pi) - 1 + gamma0 - log(p)/2)) S0_p - c_p log p S1_p]
          + sum_{p<q} c_p c_q S0_p S0_q.
    """
    p, g, h = prime_power_sums(x_cutoff)
    log_p = np.log(p)
    c = p / (p - 1.0) * log_p
    s0 = np.expm1(-g)
    s1 = -h * np.exp(-g)
    ell = math.log(t_height / _TWO_PI)
    prime_powers = (c * log_p / (p - 1.0) - c * (ell - 1.0 + GAMMA0 - 0.5 * log_p)) * s0 - c * log_p * s1
    a = c * s0
    pairs = a[1:] @ np.cumsum(a)[:-1]  # sum over primes q of a_q times the a_p with p < q
    return float(prime_powers.sum() + pairs)


def twisted_first_moment(zeros, t_height, x_cutoff):
    """sum_{gamma<=T} zeta'(rho) P_X(rho)^{-1} vs the twisted-moment expansion.

    The prediction is the three-term polynomial main term plus
    (T/2pi) sum_{m>=2} (a_{-1}(m)/m) (A1(1,m) + B1(m,T)), taken in closed form
    over the primes p <= X (:func:`_twisted_m_sum`).  The empirical side uses
    the exact P_X(rho)^{-1} (:func:`p_x_euler`).
    """
    gammas = zeros.covering(t_height)
    m_sum = _twisted_m_sum(t_height, x_cutoff)
    n = len(gammas)
    zp = zeta_prime_at_zeros(gammas)
    pxinv = p_x_euler(0.5 + 1j * gammas, -1, x_cutoff)
    empirical = complex_fsum(zp * pxinv)

    main = cgg_main_term(t_height)
    subsidiary = (t_height / _TWO_PI) * m_sum
    return MomentResult(
        empirical=complex(empirical),
        predicted=complex(main + subsidiary),
        n_zeros=n,
        details={"main_term": main, "subsidiary_term": subsidiary},
    )
