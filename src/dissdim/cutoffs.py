"""Explicit cutoff profiles and analytic test functions.

All localized test objects share two fixed taper shapes.  No constant of the
cylinder estimates is tabulated here: the Hoelder bound in ``weak_balance``
takes every one as a realized norm of a cutoff or its derivatives on the grid.

* ``cubic``: the unique cubic with value 1, slope 0 at the inner edge and
  value 0, slope 0 at the outer edge.  Peak slope 3/2 over the taper width.
* ``quintic``: the C^2 smootherstep analogue, used to check that balance
  quadratures probe the measure rather than the cutoff.  Peak slope 15/8.

A spatial bump at radius delta equals 1 on the ball of radius delta and
vanishes outside radius 2*delta; a time bump at (delta, alpha) equals 1 on
the interval of half-length delta**alpha and vanishes outside half-length
(2*delta)**alpha.

Generic test functions are separable products of ``PlateauProfile``
factors: 1 on [lo, hi] with a taper of width ``ramp`` on each side.  The one
profile class also gives the one-sided plateau, hi = inf, which rises over
[lo - ramp, lo] and stays 1 onward; as a time factor it keeps phi alive at
t = T for the boundary-extended balance.  Every factor states the
``support`` outside which it and its derivatives vanish; the pairings'
margin rule reads only these (it must leave the grid's two edge nodes free).

Each factor computes its taper coordinate in one place, which value and
every derivative read: a spatial bump the offset y - center and its length
(``_offset``), with one guard for the division by that length at the center
(``_over_radius``); a time bump its ``_ramp``; a plateau the distance past
the plateau in ramp widths (``_coord``).  A separable test function's
gradient and laplacian share one product rule (``_product_rule``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .aniso_measure import Cylinder, scale_power, squared_norm

__all__ = [
    "taper_profile",
    "CutoffPair",
    "SpatialBump",
    "TimeBump",
    "PlateauProfile",
    "SpatialTestFunction",
    "SpaceTimeTestFunction",
]


class _Cubic:
    @staticmethod
    def value(s):
        s = np.clip(s, 0.0, 1.0)
        return 1.0 - 3.0 * s ** 2 + 2.0 * s ** 3

    @staticmethod
    def deriv(s):
        inside = (s > 0.0) & (s < 1.0)
        s = np.clip(s, 0.0, 1.0)
        return np.where(inside, -6.0 * s + 6.0 * s ** 2, 0.0)

    @staticmethod
    def second(s):
        inside = (s > 0.0) & (s < 1.0)
        s = np.clip(s, 0.0, 1.0)
        return np.where(inside, -6.0 + 12.0 * s, 0.0)


class _Quintic:
    @staticmethod
    def value(s):
        s = np.clip(s, 0.0, 1.0)
        return 1.0 - (10.0 * s ** 3 - 15.0 * s ** 4 + 6.0 * s ** 5)

    @staticmethod
    def deriv(s):
        s = np.clip(s, 0.0, 1.0)
        return -30.0 * s ** 2 * (1.0 - s) ** 2

    @staticmethod
    def second(s):
        s = np.clip(s, 0.0, 1.0)
        return -60.0 * s * (1.0 - s) * (1.0 - 2.0 * s)


_PROFILES = {"cubic": _Cubic, "quintic": _Quintic}


def taper_profile(name: str):
    """Look up a taper shape (value/deriv/second on the unit ramp) by name."""
    try:
        return _PROFILES[name]
    except KeyError:
        raise ValueError(f"unknown taper profile {name!r}; choose from {sorted(_PROFILES)}")


@dataclass(frozen=True)
class SpatialBump:
    """chi(y) = psi((|y - center|/delta - 1)), equal to 1 on B_delta, 0 outside B_{2 delta}."""

    center: tuple
    delta: float
    profile: str = "cubic"

    def _offset(self, y):
        """y - center and its length |y - center|."""
        diff = np.asarray(y, dtype=float) - np.asarray(self.center)
        return diff, np.sqrt(squared_norm(diff))

    @staticmethod
    def _over_radius(num, rho):
        """num / rho, and 0 at the center (rho = 0)."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(rho > 0, num / np.where(rho == 0, 1.0, rho), 0.0)

    def value(self, y):
        _, rho = self._offset(y)
        return taper_profile(self.profile).value(rho / self.delta - 1.0)

    def gradient(self, y):
        diff, rho = self._offset(y)
        dpsi = taper_profile(self.profile).deriv(rho / self.delta - 1.0) / self.delta
        return dpsi[..., None] * self._over_radius(diff, rho[..., None])

    def laplacian(self, y):
        p = taper_profile(self.profile)
        _, rho = self._offset(y)
        s = rho / self.delta - 1.0
        dpsi = p.deriv(s) / self.delta
        d2psi = p.second(s) / scale_power(self.delta, 2)
        return d2psi + self._over_radius(dpsi * (len(self.center) - 1), rho)

    @property
    def support(self) -> tuple:
        """Per-axis (lo, hi) of a box outside which value, gradient and
        laplacian vanish: the center +- 2 delta."""
        return tuple((c - 2 * self.delta, c + 2 * self.delta) for c in self.center)


@dataclass(frozen=True)
class TimeBump:
    """eta(t) = 1 on |t - t0| < delta**alpha, 0 outside |t - t0| < (2 delta)**alpha."""

    t0: float
    delta: float
    alpha: float
    profile: str = "cubic"

    @property
    def inner(self) -> float:
        return scale_power(self.delta, self.alpha)

    @property
    def outer(self) -> float:
        return scale_power(2.0 * self.delta, self.alpha)

    @property
    def support(self) -> tuple:
        """(lo, hi) outside which value and deriv vanish: t0 +- (2 delta)**alpha."""
        return (self.t0 - self.outer, self.t0 + self.outer)

    def _ramp(self, t):
        return (np.abs(np.asarray(t, dtype=float) - self.t0) - self.inner) / (self.outer - self.inner)

    def value(self, t):
        return taper_profile(self.profile).value(self._ramp(t))

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        sgn = np.sign(t - self.t0)
        dpsi = taper_profile(self.profile).deriv(self._ramp(t))
        return dpsi * sgn / (self.outer - self.inner)


def _is_normal(x: float) -> bool:
    """x is a finite float64 of at least the smallest positive normal."""
    return sys.float_info.min <= x < math.inf


@dataclass(frozen=True)
class CutoffPair:
    """A spatial bump chi, 1 on the ball of ``cylinder``, and a time bump eta,
    1 on its time interval.  ``build`` checks only what the bumps add to the
    ``Cylinder``'s checks: the squares and ramp they divide by are normal."""

    cylinder: Cylinder
    chi: SpatialBump
    eta: TimeBump

    @classmethod
    def build(cls, center, delta: float, alpha: float, profile: str = "cubic") -> "CutoffPair":
        cylinder = Cylinder(center, delta, alpha)
        if not all(_is_normal(scale_power(radius, 2)) for radius in (delta, 2 * delta)):
            raise ValueError(f"delta={delta!r}: delta**2, which scales the laplacian of the "
                             "spatial bump, and (2 delta)**2, the collar's squared radius, "
                             "must be positive normal floats")
        chi = SpatialBump(cylinder.center[:-1], delta, profile)
        eta = TimeBump(cylinder.center[-1], delta, alpha, profile)
        if not (0 < eta.inner < eta.outer < math.inf and _is_normal(eta.outer - eta.inner)):
            raise ValueError(f"time bump at delta={delta!r}, alpha={alpha!r} needs "
                             "0 < delta**alpha < (2 delta)**alpha < inf with a ramp "
                             "width (2 delta)**alpha - delta**alpha that is a positive "
                             "normal float")
        return cls(cylinder, chi, eta)


# ---------------------------------------------------------------------------
# Plateau profiles for generic test functions.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlateauProfile:
    """1 on [lo, hi], tapering to 0 over ``ramp`` on both sides; ``hi = math.inf``
    gives the one-sided plateau, a rise over [lo - ramp, lo] and then 1 onward."""

    lo: float
    hi: float
    ramp: float
    profile: str = "cubic"

    def __post_init__(self):
        if not (self.ramp > 0 and self.hi >= self.lo):
            raise ValueError("need hi >= lo and ramp > 0")

    def _coord(self, x):
        """x as an array, and its distance past the plateau in ramp widths."""
        x = np.asarray(x, dtype=float)
        return x, np.maximum(np.maximum(self.lo - x, x - self.hi), 0.0) / self.ramp

    def value(self, x):
        return taper_profile(self.profile).value(self._coord(x)[1])

    def deriv(self, x):
        x, s = self._coord(x)
        dpsi = taper_profile(self.profile).deriv(s) / self.ramp
        return np.where(x < self.lo, -dpsi, np.where(x > self.hi, dpsi, 0.0))

    def second(self, x):
        return taper_profile(self.profile).second(self._coord(x)[1]) / scale_power(self.ramp, 2)

    @property
    def support(self) -> tuple:
        """(lo, hi) outside which value, deriv and second vanish."""
        return (self.lo - self.ramp, self.hi + self.ramp)

    @property
    def integral(self) -> float:
        """Exact integral: plateau length plus one full ramp (half per side)."""
        return (self.hi - self.lo) + self.ramp


class SpatialTestFunction:
    """Separable product of per-axis plateau profiles; analytic derivatives."""

    def __init__(self, profiles):
        self.profiles = tuple(profiles)
        self.d = len(self.profiles)

    @property
    def support(self) -> tuple:
        """Per-axis (lo, hi) of a box outside which value, gradient and
        laplacian vanish."""
        return tuple(p.support for p in self.profiles)

    def value(self, y):
        y = np.asarray(y, dtype=float)
        out = np.ones(y.shape[:-1])
        for i, p in enumerate(self.profiles):
            out = out * p.value(y[..., i])
        return out

    def _product_rule(self, y, deriv: str) -> list:
        """Per axis i, the ``deriv`` ("deriv" or "second") of factor i times
        the values of the other factors, multiplied in axis order."""
        y = np.asarray(y, dtype=float)
        vals = [p.value(y[..., i]) for i, p in enumerate(self.profiles)]
        terms = []
        for i, p in enumerate(self.profiles):
            term = getattr(p, deriv)(y[..., i])
            for j, v in enumerate(vals):
                if j != i:
                    term = term * v
            terms.append(term)
        return terms

    def gradient(self, y):
        return np.stack(self._product_rule(y, "deriv"), axis=-1)

    def laplacian(self, y):
        return sum(self._product_rule(y, "second"))


class SpaceTimeTestFunction:
    """phi(x, t) = X(x) * H(t) with analytic space and time factors.

    ``space`` is a SpatialTestFunction (or any object with value/gradient/
    laplacian and a per-axis ``support`` box, such as a SpatialBump); ``time``
    any object with value/deriv and a ``support`` interval (PlateauProfile,
    TimeBump).
    """

    def __init__(self, space, time):
        self.space = space
        self.time = time

    def value(self, y, t):
        return self.space.value(y) * self.time.value(t)
