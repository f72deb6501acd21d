"""Explicit cutoff profiles and analytic test functions.

All localized test objects share two fixed taper shapes so that every
"up to a constant" in the cylinder estimates becomes a number:

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
t = T for the boundary-extended balance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aniso_measure import SpaceTimePoint
from .errors import VerificationError

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
    slope_max = 1.5
    curvature_max = 6.0

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
    slope_max = 1.875
    curvature_max = 10.0 / math.sqrt(3.0)

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

    def _rho(self, y):
        y = np.asarray(y, dtype=float)
        c = np.asarray(self.center)
        return np.sqrt(np.sum((y - c) ** 2, axis=-1))

    def value(self, y):
        rho = self._rho(y) / self.delta
        return taper_profile(self.profile).value(rho - 1.0)

    def gradient(self, y):
        p = taper_profile(self.profile)
        y = np.asarray(y, dtype=float)
        c = np.asarray(self.center)
        diff = y - c
        rho = np.sqrt(np.sum(diff ** 2, axis=-1))
        scaled = rho / self.delta
        dpsi = p.deriv(scaled - 1.0) / self.delta
        with np.errstate(invalid="ignore", divide="ignore"):
            unit = np.where(rho[..., None] > 0, diff / np.where(rho == 0, 1.0, rho)[..., None], 0.0)
        return dpsi[..., None] * unit

    def laplacian(self, y):
        p = taper_profile(self.profile)
        rho = self._rho(y)
        scaled = rho / self.delta
        d = len(self.center)
        dpsi = p.deriv(scaled - 1.0) / self.delta
        d2psi = p.second(scaled - 1.0) / self.delta ** 2
        with np.errstate(invalid="ignore", divide="ignore"):
            radial = np.where(rho > 0, dpsi * (d - 1) / np.where(rho == 0, 1.0, rho), 0.0)
        return d2psi + radial

    @property
    def grad_constant(self) -> float:
        """Realized C with sup |grad chi| = C / delta."""
        return taper_profile(self.profile).slope_max

    @property
    def laplacian_constant(self) -> float:
        """Realized C with sup |lap chi| <= C / delta**2."""
        p = taper_profile(self.profile)
        d = len(self.center)
        return p.curvature_max + p.slope_max * (d - 1)


@dataclass(frozen=True)
class TimeBump:
    """eta(t) = 1 on |t - t0| < delta**alpha, 0 outside |t - t0| < (2 delta)**alpha."""

    t0: float
    delta: float
    alpha: float
    profile: str = "cubic"

    @property
    def inner(self) -> float:
        return self.delta ** self.alpha

    @property
    def outer(self) -> float:
        return (2.0 * self.delta) ** self.alpha

    def _ramp(self, t):
        return (np.abs(np.asarray(t, dtype=float) - self.t0) - self.inner) / (self.outer - self.inner)

    def value(self, t):
        return taper_profile(self.profile).value(self._ramp(t))

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        sgn = np.sign(t - self.t0)
        dpsi = taper_profile(self.profile).deriv(self._ramp(t))
        return dpsi * sgn / (self.outer - self.inner)

    @property
    def deriv_constant(self) -> float:
        """Realized C with sup |eta'| = C / delta**alpha."""
        return taper_profile(self.profile).slope_max * self.inner / (self.outer - self.inner)


@dataclass(frozen=True)
class CutoffPair:
    """A spatial bump and a time bump localizing one space-time cylinder."""

    center: SpaceTimePoint
    delta: float
    alpha: float
    chi: SpatialBump
    eta: TimeBump

    @classmethod
    def build(cls, center: SpaceTimePoint, delta: float, alpha: float,
              profile: str = "cubic") -> "CutoffPair":
        if not delta > 0:
            raise ValueError(f"delta must be positive, got {delta!r}")
        if not alpha > 0:
            raise ValueError(f"alpha must be positive, got {alpha!r}")
        chi = SpatialBump(center.x, delta, profile)
        eta = TimeBump(center.t, delta, alpha, profile)
        return cls(center, float(delta), float(alpha), chi, eta)

    @property
    def constants(self) -> dict:
        """Realized cutoff constants: |grad chi| <= C_chi/delta, etc."""
        return {
            "C_chi": self.chi.grad_constant,
            "C_eta": self.eta.deriv_constant,
            "C_lap_chi": self.chi.laplacian_constant,
        }

    def validate_on_grid(self, x_nodes, t_nodes) -> None:
        """Check support, range and derivative bounds pointwise on sample nodes.

        ``x_nodes`` is an (n, d) array of spatial nodes, ``t_nodes`` a time axis;
        a failed check raises VerificationError.
        """
        chi = self.chi.value(x_nodes)
        if np.any(chi < -1e-14) or np.any(chi > 1 + 1e-14):
            raise VerificationError("spatial bump escapes [0, 1]")
        r = np.sqrt(np.sum((np.asarray(x_nodes) - np.asarray(self.center.x)) ** 2, axis=-1))
        if np.any(chi[r >= 2 * self.delta] != 0):
            raise VerificationError("spatial bump support exceeds B_{2 delta}")
        if np.any(np.abs(chi[r <= self.delta] - 1) > 1e-14):
            raise VerificationError("spatial bump is not 1 on B_delta")
        grad = np.sqrt(np.sum(self.chi.gradient(x_nodes) ** 2, axis=-1))
        if np.any(grad > self.chi.grad_constant / self.delta * (1 + 1e-12)):
            raise VerificationError("spatial gradient bound violated")
        if np.any(np.abs(self.chi.laplacian(x_nodes)) >
                  self.chi.laplacian_constant / self.delta ** 2 * (1 + 1e-12)):
            raise VerificationError("spatial curvature bound violated")
        eta = self.eta.value(t_nodes)
        if np.any(eta < -1e-14) or np.any(eta > 1 + 1e-14):
            raise VerificationError("time bump escapes [0, 1]")
        s = np.abs(np.asarray(t_nodes) - self.center.t)
        if np.any(eta[s >= self.eta.outer] != 0):
            raise VerificationError("time bump support exceeds the 2-delta cylinder")
        if np.any(np.abs(self.eta.deriv(t_nodes)) >
                  self.eta.deriv_constant / self.delta ** self.alpha * (1 + 1e-12)):
            raise VerificationError("time derivative bound violated")


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

    def value(self, x):
        x = np.asarray(x, dtype=float)
        s = np.maximum(np.maximum(self.lo - x, x - self.hi), 0.0) / self.ramp
        return taper_profile(self.profile).value(s)

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        below = x < self.lo
        above = x > self.hi
        s = np.maximum(np.maximum(self.lo - x, x - self.hi), 0.0) / self.ramp
        dpsi = taper_profile(self.profile).deriv(s) / self.ramp
        return np.where(below, -dpsi, np.where(above, dpsi, 0.0))

    def second(self, x):
        x = np.asarray(x, dtype=float)
        s = np.maximum(np.maximum(self.lo - x, x - self.hi), 0.0) / self.ramp
        return taper_profile(self.profile).second(s) / self.ramp ** 2

    @property
    def integral(self) -> float:
        """Exact integral: plateau length plus one full ramp (half per side)."""
        return (self.hi - self.lo) + self.ramp


class SpatialTestFunction:
    """Separable product of per-axis plateau profiles; analytic derivatives."""

    def __init__(self, profiles):
        self.profiles = tuple(profiles)
        self.d = len(self.profiles)

    def value(self, y):
        y = np.asarray(y, dtype=float)
        out = np.ones(y.shape[:-1])
        for i, p in enumerate(self.profiles):
            out = out * p.value(y[..., i])
        return out

    def gradient(self, y):
        y = np.asarray(y, dtype=float)
        vals = [p.value(y[..., i]) for i, p in enumerate(self.profiles)]
        grads = []
        for i, p in enumerate(self.profiles):
            g = p.deriv(y[..., i])
            for j, v in enumerate(vals):
                if j != i:
                    g = g * v
            grads.append(g)
        return np.stack(grads, axis=-1)

    def laplacian(self, y):
        y = np.asarray(y, dtype=float)
        vals = [p.value(y[..., i]) for i, p in enumerate(self.profiles)]
        out = np.zeros(y.shape[:-1])
        for i, p in enumerate(self.profiles):
            term = p.second(y[..., i])
            for j, v in enumerate(vals):
                if j != i:
                    term = term * v
            out = out + term
        return out


class SpaceTimeTestFunction:
    """phi(x, t) = X(x) * H(t) with analytic space and time factors.

    ``space`` is a SpatialTestFunction (or any object with value/gradient/
    laplacian, such as a SpatialBump); ``time`` any object with value/deriv
    (PlateauProfile, TimeBump).
    """

    def __init__(self, space, time):
        self.space = space
        self.time = time

    def value(self, y, t):
        return self.space.value(y) * self.time.value(t)
