"""Discrete anisotropic space-time measure machinery.

Cylinders here are spatial balls of radius delta crossed with time
intervals of half-length delta**alpha; alpha = 1 is the isotropic case and
alpha = 2 the parabolic one.  Box counting against a lattice whose cells
share that (delta, delta**alpha) shape gives a practical surrogate for the
anisotropic Hausdorff dimension: finite data cannot distinguish the two,
and the dimension tolerances used in tests absorb the gap.

Membership is strict on both factors (open ball, open interval), so atoms
sitting exactly on a cylinder boundary are excluded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "SpaceTimePoint",
    "Cylinder",
    "AtomicMeasure",
    "DensityLadder",
    "BoxCountResult",
    "AlphaMonotonicityResult",
    "cylinder_mass",
    "box_counting_dimension",
    "density_ladder",
    "certify_lower_bound",
    "covering_premeasure",
    "alpha_monotonicity_check",
    "as_point_array",
]

SUPPORT_WEIGHT_CUTOFF = 1e-12    # relative to total mass, for the default center policy
FIT_RESIDUAL_LIMIT = 0.25        # log-space RMS beyond which verdicts are inconclusive
CERTIFY_SCAN_STEP = 0.005
CERTIFY_CONSTANT = 2.0           # density cap = CERTIFY_CONSTANT x coarsest density
NONINCREASING_FACTOR = 1.25      # slack when checking densities for a bounded modulus


@dataclass(frozen=True)
class SpaceTimePoint:
    x: tuple
    t: float

    def __post_init__(self):
        xs = tuple(float(v) for v in self.x)
        object.__setattr__(self, "x", xs)
        object.__setattr__(self, "t", float(self.t))
        if not all(np.isfinite(xs)) or not np.isfinite(self.t):
            raise ValueError("space-time point must have finite coordinates")

    @property
    def d(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class Cylinder:
    """Open ball of radius delta times the open interval of half-length delta**alpha."""

    center: SpaceTimePoint
    delta: float
    alpha: float

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta!r}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")

    @property
    def time_half_length(self) -> float:
        return self.delta ** self.alpha

    def contains(self, x, t) -> np.ndarray:
        """Strict membership test, vectorized over rows of x and entries of t."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        t = np.atleast_1d(np.asarray(t, dtype=float))
        c = np.asarray(self.center.x)
        spatial = np.sum((x - c) ** 2, axis=1) < self.delta ** 2
        temporal = np.abs(t - self.center.t) < self.time_half_length
        return spatial & temporal


class AtomicMeasure:
    """Finite weighted atom list in R^d x R representing a positive measure.

    Immutable after construction; all queries are read-only.
    """

    def __init__(self, positions, times, weights, d=None, label=""):
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        times = np.asarray(times, dtype=float).ravel()
        weights = np.asarray(weights, dtype=float).ravel()
        if positions.shape[0] != times.shape[0] or times.shape[0] != weights.shape[0]:
            raise ValueError("positions, times and weights must have matching lengths")
        if d is None:
            d = positions.shape[1] if positions.size else 1
        if positions.size and positions.shape[1] != d:
            raise ValueError(f"positions have dimension {positions.shape[1]}, expected {d}")
        if positions.size == 0:
            positions = positions.reshape(0, d)
        if not (np.all(np.isfinite(positions)) and np.all(np.isfinite(times))
                and np.all(np.isfinite(weights))):
            raise ValueError("atoms must have finite coordinates and weights")
        if np.any(weights < 0):
            raise ValueError("weights must be non-negative (positive measure)")
        self._positions = positions
        self._times = times
        self._weights = weights
        for arr in (self._positions, self._times, self._weights):
            arr.setflags(write=False)
        self.d = int(d)
        self.label = label

    @classmethod
    def from_atoms(cls, atoms: Sequence, d=None, label=""):
        """Build from an iterable of (SpaceTimePoint, weight) pairs."""
        pts = [a[0] for a in atoms]
        ws = [a[1] for a in atoms]
        if pts:
            d = pts[0].d if d is None else d
            pos = np.array([p.x for p in pts], dtype=float)
            ts = np.array([p.t for p in pts], dtype=float)
        else:
            pos = np.zeros((0, d or 1))
            ts = np.zeros(0)
        return cls(pos, ts, np.asarray(ws, dtype=float), d=d, label=label)

    @property
    def positions(self) -> np.ndarray:
        return self._positions

    @property
    def times(self) -> np.ndarray:
        return self._times

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def n_atoms(self) -> int:
        return self._weights.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self._weights.sum())

    def support_points(self, weight_cutoff=SUPPORT_WEIGHT_CUTOFF) -> np.ndarray:
        """Atoms carrying weight above ``weight_cutoff`` x total mass, as (n, d+1) rows."""
        mask = self._weights > weight_cutoff * max(self.total_mass, 0.0)
        return np.column_stack([self._positions[mask], self._times[mask]])


def as_point_array(points, d=None) -> np.ndarray:
    """Normalize a point collection to an (n, d+1) array of [x..., t] rows."""
    if isinstance(points, AtomicMeasure):
        return np.column_stack([points.positions, points.times])
    if len(points) and isinstance(points[0], SpaceTimePoint):
        d = points[0].d
        return np.array([[*p.x, p.t] for p in points], dtype=float)
    arr = np.atleast_2d(np.asarray(points, dtype=float))
    if d is not None and arr.shape[1] != d + 1:
        raise ValueError(f"expected points with {d + 1} columns, got {arr.shape[1]}")
    return arr


def cylinder_mass(mu: AtomicMeasure, c: Cylinder) -> float:
    """Sum of weights of atoms strictly inside the cylinder."""
    if c.center.d != mu.d:
        raise ValueError(f"cylinder dimension {c.center.d} does not match measure dimension {mu.d}")
    if mu.n_atoms == 0:
        return 0.0
    mask = c.contains(mu.positions, mu.times)
    return float(mu.weights[mask].sum())


def _masses_at_scale(mu: AtomicMeasure, centers: np.ndarray, delta: float, alpha: float,
                     chunk: int = 256) -> np.ndarray:
    """Cylinder masses for many centers at one scale (chunked broadcasting)."""
    pos, ts, ws = mu.positions, mu.times, mu.weights
    th = delta ** alpha
    out = np.empty(centers.shape[0])
    for lo in range(0, centers.shape[0], chunk):
        cs = centers[lo:lo + chunk]
        d2 = np.sum((pos[None, :, :] - cs[:, None, :-1]) ** 2, axis=2)
        mask = (d2 < delta ** 2) & (np.abs(ts[None, :] - cs[:, None, -1]) < th)
        out[lo:lo + chunk] = mask @ ws
    return out


class BoxCountResult(NamedTuple):
    dim_estimate: float
    counts: list
    fit_residual: float


def _validate_scales(scales):
    scales = [float(s) for s in scales]
    if len(scales) < 3:
        raise ValueError("need at least 3 scales")
    if any(s <= 0 for s in scales):
        raise ValueError("scales must be positive")
    if any(b >= a for a, b in zip(scales, scales[1:])):
        raise ValueError("scales must be strictly decreasing")
    return scales


def _loglog_fit(xs, ys):
    """Least-squares slope of log(ys) against xs; returns (slope, rms residual)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.log(np.asarray(ys, dtype=float))
    coeffs = np.polyfit(xs, ys, 1)
    fitted = np.polyval(coeffs, xs)
    rms = float(np.sqrt(np.mean((ys - fitted) ** 2)))
    return float(coeffs[0]), rms


def _occupied_cells(pts: np.ndarray, delta: float, alpha: float) -> int:
    """Number of origin-anchored lattice cells (spatial side delta, temporal
    side delta**alpha) holding at least one of the (n, d+1) points, n >= 1.

    Exact: the integer cell rows are sorted lexicographically and counted
    where consecutive rows differ.
    """
    cells = np.column_stack([np.floor(pts[:, :-1] / delta),
                             np.floor(pts[:, -1:] / delta ** alpha)]).astype(np.int64)
    cells = cells[np.lexsort(cells.T)]
    return 1 + int(np.count_nonzero(np.any(cells[1:] != cells[:-1], axis=1)))


def box_counting_dimension(points, alpha, scales) -> BoxCountResult:
    """Occupied-cell counts on anisotropic lattices plus a log-log slope.

    At scale delta the space-time lattice has spatial side delta and temporal
    side delta**alpha, anchored at the coordinate origin.  The estimate is the
    least-squares slope of log N against log(1/delta).  Counts are monotone
    under halving ladders when 2**alpha is an integer (nested lattices);
    fractional alpha lattices do not nest and can in principle dip.
    """
    scales = _validate_scales(scales)
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    pts = as_point_array(points)
    if pts.shape[0] == 0:
        raise ValueError("empty point set")
    counts = [_occupied_cells(pts, delta, alpha) for delta in scales]
    slope, rms = _loglog_fit([np.log(1.0 / s) for s in scales], counts)
    return BoxCountResult(slope, counts, rms)


@dataclass(frozen=True)
class DensityLadder:
    """Per-scale record of the sup cylinder density mu(C^alpha_delta)/delta**s."""

    alpha: float
    s: float
    scales: tuple
    densities: tuple
    fitted_slope: float
    fit_residual: float
    densities_nonincreasing: bool

    @property
    def sup_masses(self) -> tuple:
        return tuple(rho * delta ** self.s for rho, delta in zip(self.densities, self.scales))


def density_ladder(mu: AtomicMeasure, alpha, s, scales, centers=None, top_k=None) -> DensityLadder:
    """Sup of mu(C^alpha_delta(center))/delta**s over centers, per scale.

    Default centers are the atoms of the measure carrying non-negligible
    weight (the discrete support); ``top_k`` keeps only the heaviest ones and
    ``centers`` overrides the policy with an explicit (n, d+1) list.  Also
    records whether the densities are non-increasing within a fixed factor,
    which is the numerical evidence for a bounded density modulus.
    """
    if s < 0:
        raise ValueError(f"s must be non-negative, got {s!r}")
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    scales = _validate_scales(scales)
    if centers is None:
        if top_k is not None:
            order = np.argsort(mu.weights)[::-1][:top_k]
            centers = np.column_stack([mu.positions[order], mu.times[order]])
        else:
            centers = mu.support_points()
    else:
        centers = as_point_array(centers, d=mu.d)
    if centers.shape[0] == 0:
        raise ValueError("empty support: no centers to scan")

    densities = []
    masses = []
    for delta in scales:
        m = float(_masses_at_scale(mu, centers, delta, alpha).max())
        masses.append(m)
        densities.append(m / delta ** s)

    positive = [(d_, m_) for d_, m_ in zip(scales, masses) if m_ > 0]
    if len(positive) >= 3:
        slope, rms = _loglog_fit([np.log(d_) for d_, _ in positive], [m_ for _, m_ in positive])
    else:
        slope, rms = float("nan"), float("nan")

    nonincr = all(
        densities[i + 1] <= densities[i] * NONINCREASING_FACTOR + 1e-300
        for i in range(len(densities) - 1)
    )
    return DensityLadder(
        alpha=float(alpha), s=float(s), scales=tuple(scales), densities=tuple(densities),
        fitted_slope=slope, fit_residual=rms, densities_nonincreasing=nonincr,
    )


def certify_lower_bound(ladder: DensityLadder):
    """Largest exponent at which the ladder's densities stay uniformly capped.

    Scans s' on a fixed grid and keeps the largest value such that, for every
    scale, sup-mass(delta)/delta**s' stays below CERTIFY_CONSTANT times the
    coarsest-scale density at the same exponent.  Bounded densities at
    exponent s' are the easy-direction evidence that the measure cannot live
    on a set of dimension below s'.  Returns (certified_s, verdict) with
    verdict in {"certified", "inconclusive"}.
    """
    masses = np.asarray(ladder.sup_masses, dtype=float)
    scales = np.asarray(ladder.scales, dtype=float)
    positive = masses > 0
    if positive.sum() < 3:
        return 0.0, "inconclusive"
    if not np.isfinite(ladder.fit_residual) or ladder.fit_residual > FIT_RESIDUAL_LIMIT:
        return 0.0, "inconclusive"

    masses = masses[positive]
    scales = scales[positive]
    s_max = ladder.s + 1.0 + CERTIFY_SCAN_STEP
    certified = 0.0
    s_prime = 0.0
    while s_prime <= s_max:
        caps = CERTIFY_CONSTANT * masses[0] / scales[0] ** s_prime
        if np.all(masses / scales ** s_prime <= caps * (1 + 1e-12)):
            certified = s_prime
        s_prime = round(s_prime + CERTIFY_SCAN_STEP, 12)
    return float(certified), "certified"


def covering_premeasure(points, alpha, s, delta_cap) -> float:
    """Greedy upper estimate of the size-capped covering premeasure.

    Covers the finite set with lattice cylinders of size at most delta_cap
    (spatial side delta, temporal side delta**alpha, gauge delta**s).  The
    greedy rule -- repeatedly take the largest admissible cylinder covering
    the most uncovered points -- always selects top-size cells, because an
    aligned parent cell covers a superset of any of its descendants; the
    estimate therefore equals N(delta_cap) * delta_cap**s with N the
    occupied-cell count, an upper bound for the premeasure of the set.
    """
    if not delta_cap > 0:
        raise ValueError(f"delta_cap must be positive, got {delta_cap!r}")
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    pts = as_point_array(points)
    if pts.shape[0] == 0:
        return 0.0
    return float(_occupied_cells(pts, delta_cap, alpha)) * delta_cap ** s


class AlphaMonotonicityResult(NamedTuple):
    estimates: list
    violation: bool


ALPHA_FIT_TOLERANCE = 0.15


def alpha_monotonicity_check(points, alphas, scales) -> AlphaMonotonicityResult:
    """Box-dimension estimates across increasing alphas, with a decrease flag.

    At scales below 1, a larger alpha thins the temporal cells, so counts and
    dimension estimates can only grow with alpha; a drop beyond the fit
    tolerance is flagged as a violation of that ordering.
    """
    alphas = [float(a) for a in alphas]
    if len(alphas) < 2:
        raise ValueError("need at least 2 alphas")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alphas must be strictly increasing")
    estimates = [box_counting_dimension(points, a, scales).dim_estimate for a in alphas]
    violation = any(
        estimates[i + 1] < estimates[i] - ALPHA_FIT_TOLERANCE
        for i in range(len(estimates) - 1)
    )
    return AlphaMonotonicityResult(estimates, violation)
