"""Closed-form scaling exponents for dissipation-dimension lower bounds.

Every function here evaluates an explicit formula: the two-term energy
cylinder exponent for inviscid velocity fields, its three-term viscous
analogue, the isotropic space-time exponent for generic conservation laws,
the optimal time-anisotropy parameter, and the admissibility condition for
forced balances.

Extended reals: ``math.inf`` is a legal value for the integrability
exponents ``q`` and ``r``.  Each infinity limit is written once, in a small
helper (``_part``, ``_per``, ``_conj``) that returns the limit at ``inf`` and
the plain quotient otherwise, so no IEEE ``inf`` arithmetic runs and an
``inf - inf`` can never appear.  All arithmetic flows through the input number
types, so passing ``fractions.Fraction`` (or ints) yields exact rational
results while floats yield floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .errors import VerificationError

__all__ = [
    "RegimeError",
    "IntegrabilityClass",
    "ExponentReport",
    "euler_exponent",
    "euler_optimal",
    "euler_unbounded_pressure",
    "conservation_law_exponent",
    "navier_stokes_exponent",
    "case_numerology",
    "case1_optimal_r",
    "forcing_admissible",
    "CASE_UNIFORM_IN_TIME_LR",
    "CASE_BESOV_13",
    "CASE_SOBOLEV_BETA",
]

CASE_UNIFORM_IN_TIME_LR = "uniform_in_time_Lr"
CASE_BESOV_13 = "besov_13"
CASE_SOBOLEV_BETA = "sobolev_beta"

_REL_TOL = 1e-12


class RegimeError(ValueError):
    """Input rejected by a regime's validity conditions."""


def _is_inf(x) -> bool:
    return x == math.inf


def _part(x, p, k):
    """x*(p-k)/p, which is x at p = inf."""
    return x if _is_inf(p) else x * (p - k) / p


def _per(x, p):
    """x/p, which is 0 at p = inf."""
    return 0 if _is_inf(p) else x / p


def _conj(p, k=1):
    """The Hoelder exponent p/(p-k), which is 1 at p = inf and inf at p = k."""
    if _is_inf(p):
        return 1
    return math.inf if p == k else p / (p - k)


def _convention(q, r):
    """Label naming the exponents that sit at infinity ("finite" if none)."""
    return ",".join(f"{name}=inf" for name, p in (("q", q), ("r", r)) if _is_inf(p)) or "finite"


def _as_float(name, x) -> float:
    """x as a float64; RegimeError for an int or fraction beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        raise RegimeError(f"{name} does not fit a float64, got {x!r}") from None


def _check_finite_or_inf(name, x):
    if x == -math.inf or (isinstance(x, float) and math.isnan(x)):
        raise RegimeError(f"{name} must be a real number or +inf, got {x!r}")
    _as_float(name, x)


def _check_dimension(d):
    if not isinstance(d, int) or d < 1:
        raise RegimeError(f"spatial dimension d must be an integer >= 1, got {d!r}")
    _as_float("d", d)


@dataclass(frozen=True)
class IntegrabilityClass:
    """Integrability of a velocity field: time exponent q, space exponent r.

    ``d`` is the spatial dimension.  For the velocity regimes both
    exponents live in [3, inf]; validation happens here so the formula
    functions can assume a legal class.
    """

    d: int
    q: object = math.inf
    r: object = math.inf

    def __post_init__(self):
        _check_dimension(self.d)
        for name, value in (("q", self.q), ("r", self.r)):
            _check_finite_or_inf(name, value)
            if value < 3:
                raise RegimeError(f"{name} must satisfy 3 <= {name} <= inf, got {value!r}")


@dataclass(frozen=True)
class ExponentReport:
    """A (s, alpha) pair plus the candidate terms whose minimum defines s."""

    s: object
    alpha: object
    terms: tuple
    regime: str
    convention_applied: str
    d: int
    q: object = None
    r: object = None
    vacuous: bool = field(default=False)
    open_exponent: bool = False
    endpoint_limit: bool = False

    def to_json_dict(self) -> dict:
        return {
            "regime": self.regime,
            "d": self.d,
            "q": _json_number(self.q),
            "r": _json_number(self.r),
            "alpha": _json_number(self.alpha),
            "s": _json_number(self.s),
            "terms": [{"label": lab, "value": _json_number(val)} for lab, val in self.terms],
            "convention_applied": self.convention_applied,
            "vacuous": self.vacuous,
            "open_exponent": self.open_exponent,
            "endpoint_limit": self.endpoint_limit,
        }


def _json_number(x):
    if x is None:
        return None
    if _is_inf(x):
        return "inf"
    return float(x)


def _report(terms, alpha, regime, d, q, r, **flags):
    """The report of the minimum term; RegimeError where a term overflows to
    a non-finite value or beyond the float range, which JSON cannot carry."""
    for label, val in terms:
        if not math.isfinite(_as_float(label, val)):
            raise RegimeError(f"term {label} is not finite ({val!r}): the inputs overflow a float64")
    s = min(val for _, val in terms)
    return ExponentReport(
        s=s,
        alpha=alpha,
        terms=tuple(terms),
        regime=regime,
        convention_applied=_convention(q, r),
        d=d,
        q=q,
        r=r,
        vacuous=bool(s < 0),
        **flags,
    )


def _check_alpha(alpha):
    if not 0 < alpha < math.inf:
        raise RegimeError(f"alpha must be positive and finite, got {alpha!r}")
    _as_float("alpha", alpha)


# ---------------------------------------------------------------------------
# Inviscid (Euler-type) regime: two-term minimum.
# ---------------------------------------------------------------------------

def _euler_terms(d, q, r, alpha):
    """The two cylinder-estimate exponents.

    Term one comes from the time-cutoff derivative, term two from the
    spatial-cutoff derivative against the cubic transport flux.
    """
    t1 = _part(d, r, 2) - _per(alpha * 2, q)
    t2 = _part(d, r, 3) - 1 + _part(alpha, q, 3)
    return [("time_cutoff", t1), ("transport_flux", t2)]


def euler_exponent(cls: IntegrabilityClass, alpha) -> ExponentReport:
    """Dimension exponent s = min of the two inviscid cylinder terms.

    s = min( d(r-2)/r - alpha*2/q,  d(r-3)/r - 1 + alpha*(q-3)/q )
    with the limits 1/q = 0 at q = inf and 1/r = 0 at r = inf.
    A negative minimum sets the ``vacuous`` flag rather than erroring.
    """
    _check_alpha(alpha)
    return _report(_euler_terms(cls.d, cls.q, cls.r, alpha), alpha, "euler", cls.d, cls.q, cls.r)


def _alpha_opt(d, q, r):
    # q/(q-1) * (r+d)/r, each factor 1 at infinity; q >= 3 guarantees q > 1.
    return _conj(q) * _part(1, r, -d)


def euler_optimal(cls: IntegrabilityClass) -> ExponentReport:
    """Balance the two inviscid terms: alpha = q/(q-1) * (r+d)/r.

    Returns s = d(r-2)/r - (2/(q-1)) (r+d)/r at that alpha, specialising to
    (s=d, alpha=1) for q = r = inf.  The two min-terms are checked to agree
    (exactly for rational inputs, to relative 1e-12 for floats); a failed
    balance raises VerificationError.
    """
    d, q, r = cls.d, cls.q, cls.r
    alpha = _alpha_opt(d, q, r)
    report = euler_exponent(cls, alpha)
    (_, t1), (_, t2) = report.terms
    if not _close(t1, t2):
        raise VerificationError(
            f"min-terms failed to balance at alpha_opt: {t1!r} vs {t2!r}"
        )
    return report


def _close(a, b, rel=_REL_TOL):
    if a == b:
        return True
    scale = max(abs(a), abs(b), 1)
    return abs(a - b) <= rel * scale


def euler_unbounded_pressure(cls: IntegrabilityClass) -> ExponentReport:
    """Exponent pair for r = inf without an integrability assumption on p.

    s = d - 2/(q-1) and alpha = q/(q-1); the conclusion then holds at every
    exponent strictly below s, which the ``open_exponent`` flag records.
    """
    if not _is_inf(cls.r):
        raise RegimeError(f"requires r = inf, got r = {cls.r!r}")
    if _is_inf(cls.q):
        raise RegimeError("requires a finite q; use euler_optimal for q = r = inf")
    alpha = _conj(cls.q)
    return _report(_euler_terms(cls.d, cls.q, cls.r, alpha), alpha, "euler", cls.d, cls.q, cls.r,
                   open_exponent=True)


# ---------------------------------------------------------------------------
# Generic conservation laws: single isotropic space-time exponent.
# ---------------------------------------------------------------------------

def conservation_law_exponent(d: int, r) -> ExponentReport:
    """s = d+1 - r/(r-1) for an entropy pair integrable at exponent r.

    Isotropic (alpha = 1); s = d at r = inf and s = 0 at the lower endpoint
    r = (d+1)/d, below which the formula would go negative and is rejected.
    """
    _check_dimension(d)
    _check_finite_or_inf("r", r)
    if r * d < d + 1:
        raise RegimeError(f"r must satisfy r >= (d+1)/d, got r = {r!r} for d = {d}")
    s = d + 1 - _conj(r)
    return _report([("space_time_divergence", s)], 1, "conservation_law", d, None, r)


# ---------------------------------------------------------------------------
# Viscous (Navier-Stokes-type) regime: three-term minimum.
# ---------------------------------------------------------------------------

def _ns_terms(d, q, r, alpha):
    t3 = _part(d, r, 2) - 2 + _part(alpha, q, 2)
    return _euler_terms(d, q, r, alpha) + [("laplacian", t3)]


def navier_stokes_exponent(cls: IntegrabilityClass, alpha) -> ExponentReport:
    """Three-term viscous cylinder exponent.

    s = min( d(r-2)/r - alpha*2/q,
             -1 + d(r-3)/r + alpha*(q-3)/q,
             -2 + d(r-2)/r + alpha*(q-2)/q )
    with 1/q = 0 and 1/r = 0 at infinity.  At alpha = 2 and finite q, r with
    2/q + d/r >= 1, the minimum collapses to the parabolic closed form
    s = d+1 - 3(d/r + 2/q); negative s is reported via ``vacuous``.
    """
    _check_alpha(alpha)
    return _report(_ns_terms(cls.d, cls.q, cls.r, alpha), alpha, "navier_stokes",
                   cls.d, cls.q, cls.r)


# ---------------------------------------------------------------------------
# Named physically relevant cases.
# ---------------------------------------------------------------------------

def case1_optimal_r(d: int):
    """The space exponent 3d/(d-1) at which the uniform-in-time case peaks."""
    if not isinstance(d, int) or d < 2:
        raise RegimeError(f"requires integer d >= 2, got {d!r}")
    return Fraction(3 * d, d - 1)


def case_numerology(d: int, case: str, param=None) -> ExponentReport:
    """Exponent pairs for three named integrability scenarios.

    ``uniform_in_time_Lr``: bounded-in-time L^r velocity with
        r in [3, 3d/(d-1)]; alpha = 1 + d/r, s = d - 2d/r.  At the optimal
        r = 3d/(d-1) both equal (2+d)/3.
    ``besov_13``: the endpoint one-third-Besov class; the same optimal pair
        (2+d)/3 holds in the limit, flagged via ``endpoint_limit`` since the
        endpoint itself is reached only through exponents r < 3d/(d-1).
    ``sobolev_beta``: bounded-in-time H^beta velocity with
        beta in (d/6, 5/6), d < 5; alpha = 1 + (d-2*beta)/2, s = 2*beta.
    """
    if not isinstance(d, int) or d < 2:
        raise RegimeError(f"case numerology requires integer d >= 2, got {d!r}")

    if case == CASE_UNIFORM_IN_TIME_LR:
        r = param
        if r is None:
            raise RegimeError("uniform_in_time_Lr requires the space exponent r as param")
        _check_finite_or_inf("r", r)
        r_top = case1_optimal_r(d)
        if not (3 <= r <= r_top):
            raise RegimeError(f"r must lie in [3, 3d/(d-1)] = [3, {r_top}], got {r!r}")
        return euler_optimal(IntegrabilityClass(d, math.inf, r))

    if case == CASE_BESOV_13:
        base = euler_optimal(IntegrabilityClass(d, math.inf, case1_optimal_r(d)))
        return replace(base, endpoint_limit=True)

    if case == CASE_SOBOLEV_BETA:
        beta = param
        if beta is None:
            raise RegimeError("sobolev_beta requires the smoothness beta as param")
        if d >= 5:
            raise RegimeError(f"sobolev_beta requires d < 5, got d = {d}")
        # lower endpoint included (it is exactly the space exponent r = 3);
        # the upper endpoint is excluded (no dissipation survives there)
        lo, hi = Fraction(d, 6), Fraction(5, 6)
        if not (lo <= beta < hi):
            raise RegimeError(f"beta must lie in [d/6, 5/6), got {beta!r}")
        r = 2 * d / (d - 2 * beta)
        return euler_optimal(IntegrabilityClass(d, math.inf, r))

    raise RegimeError(f"unknown case {case!r}")


# ---------------------------------------------------------------------------
# Forcing admissibility.
# ---------------------------------------------------------------------------

def forcing_admissible(d: int, alpha, s, m, l) -> bool:
    """Whether a force with power density in L^m_t L^l_x preserves exponent s.

    True iff d*(l-1)/l + alpha*(m-1)/m >= s, with (x-1)/x -> 1 as x -> inf.
    """
    _check_dimension(d)
    _check_alpha(alpha)
    for name, value in (("m", m), ("l", l)):
        _check_finite_or_inf(name, value)
        if value < 1:
            raise RegimeError(f"{name} must satisfy {name} >= 1, got {value!r}")
    return d * _part(1, l, 1) + alpha * _part(1, m, 1) >= s
