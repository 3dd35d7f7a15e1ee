"""Zeta-side discrete sums over the computed zeros.

Each experiment pairs an empirical sum over zeros, correctly rounded by
math.fsum, with the closed-form prediction it is conjectured (or proven) to track:

* :func:`zeta_prime_moment` -- (1/N(T)) sum zeta'(rho)^k against
  (1/Gamma(k+2)) log(T/2pi)^k; :func:`zeta_prime_moments` takes several
  heights T from one evaluation of zeta' at the zeros.
* :func:`landau_gonek` -- sum m^{-rho} against -(T/2pi) Lambda(m)/m.
* :func:`px_mean` -- sum P_X(rho)^k against N(T) minus the subsidiary
  (T/2pi) sum a_k(m) Lambda(m)/m term.
* :func:`twisted_first_moment` -- sum zeta'(rho) P_X(rho)^{-1} against the
  three-term polynomial main term plus the A1/B1 prime sums.

Main and subsidiary prediction pieces are always reported separately so
slow-convergence diagnostics stay visible.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .arithmetic import factorize, p_x_euler, von_mangoldt
from .errors import DomainError
from .rmt import conjecture_rhs, require_admissible
from .specfun import GAMMA0, GAMMA1, zeta_prime_at_zeros
from .zeros import zero_count

_TWO_PI = 2.0 * math.pi

INTEGER_POWER = "integer-power"
RECIPROCAL = "reciprocal"
PRINCIPAL_LOG = "principal-log"


@dataclass(frozen=True)
class MomentResult:
    """One experiment outcome: empirical sum vs prediction."""

    k: object  # complex moment order, or None when not applicable
    t_height: float
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
    """Correctly rounded sum (math.fsum) of the real and imaginary parts of a 1-D array."""
    values = np.asarray(values, dtype=complex)
    return complex(math.fsum(values.real), math.fsum(values.imag))


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


def _require_coverage(zeros, t_height):
    """A list covers (0, T] if it holds exactly the certified number N(T) of
    zeros up to T, whatever its t_max: a table that reaches T may still miss an
    ordinate.  Beyond the range of :func:`zero_count` (10 <= T <= 1e5), a list
    whose t_max reaches T is taken as it is."""
    if zeros.t_max >= t_height and not 10.0 <= t_height <= 1e5:
        return
    expected = zero_count(t_height)
    if len(zeros.below(t_height)) == expected:
        return
    raise DomainError(
        f"zero list covers only t <= {zeros.t_max:g} "
        f"({len(zeros.below(t_height))} zeros, expected {expected} below {t_height:g})"
    )


def zeta_prime_moment(zeros, t_height, k):
    """(1/N(T)) sum_{gamma<=T} zeta'(1/2+i gamma)^k vs (1/Gamma(k+2)) log(T/2pi)^k.

    Args:
        zeros: a ZeroList covering (0, T].
        t_height: the height T.
        k: moment order, Re(k) > -3; the power takes :func:`resolve_branch`'s branch.
    """
    return zeta_prime_moments(zeros, [t_height], k)[0]


def zeta_prime_moments(zeros, heights, k):
    """:func:`zeta_prime_moment` at each of ``heights``, in their order.

    zeta' is evaluated once, at the zeros below the largest height
    (:func:`zeta_prime_at_zeros`), and each height reduces over its prefix of
    those values.  From t = 200 (``specfun.RS_T_MIN``) on, each zero's zeta'
    is computed on its own, so at every height T >= 200 a moment equals a
    lone :func:`zeta_prime_moment` call bit for bit.  The zeros below 200 go
    to Euler-Maclaurin, whose chunks share a cutoff, so a height below 200 can
    differ from a lone call by that rounding.
    """
    k = require_admissible(k)
    for t in heights:
        _require_coverage(zeros, t)
    gammas = zeros.below(max(heights))
    branch = resolve_branch(k)
    if k == 0:
        powers = np.ones(len(gammas), dtype=complex)
    else:
        powers = _branch_power(zeta_prime_at_zeros(gammas), k, branch)
    return [_zeta_prime_result(gammas, powers, t, k, branch) for t in heights]


def _zeta_prime_result(gammas, powers, t_height, k, branch):
    n = int(np.searchsorted(gammas, t_height, side="right"))
    total = complex_fsum(powers[:n])
    empirical = total / n
    predicted = conjecture_rhs(t_height, k)
    n_formula = (t_height / _TWO_PI) * math.log(t_height / (_TWO_PI * math.e))
    details = {
        "sum": total,
        "n_formula": n_formula,
        "normalized_by_formula": total / n_formula,
    }
    return MomentResult(
        k=k,
        t_height=float(t_height),
        empirical=complex(empirical),
        predicted=complex(predicted),
        n_zeros=n,
        branch=branch,
        details=details,
    )


def landau_gonek(zeros, m, t_height):
    """sum_{0<gamma<=T} m^{-rho} vs the Landau-Gonek main term -(T/2pi) Lambda(m)/m.

    Raises:
        DomainError: for m < 2 -- the formula excludes m = 1, where the sum
            trivially equals N(T).
    """
    if m < 2:
        raise DomainError("Landau-Gonek requires m >= 2 (at m = 1 the sum is trivially N(T))")
    _require_coverage(zeros, t_height)
    gammas = zeros.below(t_height)
    terms = m**-0.5 * np.exp(-1j * gammas * math.log(m))
    empirical = complex_fsum(terms)
    predicted = complex(-(t_height / _TWO_PI) * von_mangoldt(m) / m)
    return MomentResult(
        k=None,
        t_height=float(t_height),
        empirical=complex(empirical),
        predicted=predicted,
        n_zeros=len(gammas),
        details={"m": m},
    )


def px_mean(zeros, t_height, k, poly):
    """sum_{gamma<=T} P_X(rho)^k vs N(T) - (T/2pi) sum a_k(m) Lambda(m)/m.

    The empirical side is the exact P_X(rho)^k = exp(k sum_{n<=X}
    Lambda(n)/(log n n^rho)) (:func:`p_x_euler`); ``poly``'s coefficients
    a_k(m) enter only the prediction.  Both the bare N(T) comparison and the
    two-term comparison are reported (details["predicted_bare"] vs the
    headline prediction).
    """
    k = require_admissible(k)
    if complex(poly.k) != k:
        raise DomainError("DirichletPoly was built for a different k")
    if poly.x_cutoff > 4.0 * math.log(t_height):
        warnings.warn(
            f"X = {poly.x_cutoff:g} strains the X = O(log T) growth condition at T = {t_height:g}",
            stacklevel=2,
        )
    _require_coverage(zeros, t_height)
    gammas = zeros.below(t_height)
    n = len(gammas)
    values = p_x_euler(0.5 + 1j * gammas, k, poly.x_cutoff)
    empirical = complex_fsum(values)
    subsidiary = float(np.real(np.sum(poly.a * poly.lam / poly.m)))
    predicted = n - (t_height / _TWO_PI) * subsidiary
    return MomentResult(
        k=k,
        t_height=float(t_height),
        empirical=complex(empirical),
        predicted=complex(predicted),
        n_zeros=n,
        details={"predicted_bare": complex(n), "subsidiary_sum": subsidiary},
    )


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


def a1_term(m):
    """A1(1, m): p (log p)^2 / (p-1)^2 on prime powers m = p^a, else 0."""
    if m < 2:
        raise DomainError("A1 requires m >= 2")
    return _a1(factorize(m))


def _a1(fac):
    """:func:`a1_term` from the factorization {p: a} of m."""
    if len(fac) == 1:
        (p,) = fac.keys()
        lp = math.log(p)
        return p * lp * lp / (p - 1.0) ** 2
    return 0.0


def _b1_parts(fac):
    """B1(m, T) = b0 + b1 log(T/2pi): the pair (b0, b1) from the factorization
    {p: a} of m, for the prime-power and two-prime cases of the twisted
    subsidiary term:

        m = p^a:          B1 = -(p/(p-1)) (log p (log(T/2pi) - 1 + gamma0) + (a - 1/2) log^2 p)
        m = p1^a1 p2^a2:  B1 = p1 p2 / ((p1-1)(p2-1)) log p1 log p2
        otherwise 0.
    """
    if len(fac) == 1:
        ((p, a),) = fac.items()
        lp = math.log(p)
        slope = -(p / (p - 1.0)) * lp
        return slope * (GAMMA0 - 1.0 + (a - 0.5) * lp), slope
    if len(fac) == 2:
        (p1, p2) = fac.keys()
        return p1 * p2 / ((p1 - 1.0) * (p2 - 1.0)) * math.log(p1) * math.log(p2), 0.0
    return 0.0, 0.0


def twisted_first_moment(zeros, t_height, poly):
    """sum_{gamma<=T} zeta'(rho) P_X(rho)^{-1} vs the twisted-moment expansion.

    ``poly`` must be the k = -1 coefficient set.  The prediction is the
    three-term polynomial main term plus (T/2pi) sum_{m>=2} (a_{-1}(m)/m)
    (A1(1,m) + B1(m,T)) over the Dirichlet support, where a_{-1} vanishes off
    X-smooth integers.  The empirical side uses the exact P_X(rho)^{-1}
    (:func:`p_x_euler`), not the truncated Dirichlet series.
    """
    if complex(poly.k) != -1:
        raise DomainError("twisted first moment needs the k = -1 DirichletPoly")
    _require_coverage(zeros, t_height)
    gammas = zeros.below(t_height)
    n = len(gammas)
    zp = zeta_prime_at_zeros(gammas)
    pxinv = p_x_euler(0.5 + 1j * gammas, -1, poly.x_cutoff)
    empirical = complex_fsum(zp * pxinv)

    # B1 is linear in log(T/2pi), so the m-sum is msum0 + msum1 log(T/2pi)
    msum0 = msum1 = 0.0
    for m, a in zip(poly.m, poly.a):
        if m < 2:
            continue
        coeff = a.real  # a_{-1} is real for real k
        if coeff == 0.0:
            continue
        fac = factorize(int(m))
        b0, b1 = _b1_parts(fac)
        msum0 += coeff / m * (_a1(fac) + b0)
        msum1 += coeff / m * b1

    main = cgg_main_term(t_height)
    subsidiary = (t_height / _TWO_PI) * (msum0 + msum1 * math.log(t_height / _TWO_PI))
    return MomentResult(
        k=-1,
        t_height=float(t_height),
        empirical=complex(empirical),
        predicted=complex(main + subsidiary),
        n_zeros=n,
        branch=RECIPROCAL,
        details={"main_term": main, "subsidiary_term": subsidiary},
    )
