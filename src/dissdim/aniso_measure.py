"""Discrete anisotropic space-time measure machinery.

Cylinders here are spatial balls of radius delta crossed with time
intervals of half-length delta**alpha; alpha = 1 is the isotropic case and
alpha = 2 the parabolic one.  Box counting against a lattice whose cells
share that (delta, delta**alpha) shape gives a practical surrogate for the
anisotropic Hausdorff dimension: finite data cannot distinguish the two,
and the dimension tolerances used in tests absorb the gap.

Membership is strict on both factors (open ball, open interval), so atoms
sitting exactly on a cylinder boundary are excluded.

One lattice serves every scale-by-scale computation: the origin-anchored
cells of spatial side delta and temporal side delta**alpha, mapped from
points by ``_cells``.  Box counting and the covering estimate count its
occupied cells; the density ladder uses it as a cell list (the linked-cell
neighbour search of molecular dynamics).  A cell side equals the cylinder
half-width on every axis, so an atom inside a cylinder lies in one of the
3^d x 3 cells around the center's cell (a cell further on an axis where
rounding puts the center at a cell face), and each center is tested only
against the atoms of those cells: the cost per center is the number of
atoms in its neighbour cells, not the number of atoms of the measure.
Points 2**53 cells or more from the origin raise ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
CELL_INDEX_LIMIT = 2.0 ** 53     # |coordinate / cell side| below which floor() is exact
PAIR_BLOCK = 2 ** 16             # center-atom pairs tested at once by _masses_at_scale


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

    def support_points(self) -> np.ndarray:
        """Atoms carrying weight above SUPPORT_WEIGHT_CUTOFF x total mass, as (n, d+1) rows."""
        mask = self._weights > SUPPORT_WEIGHT_CUTOFF * max(self.total_mass, 0.0)
        return np.column_stack([self._positions[mask], self._times[mask]])


def as_point_array(points, d=None) -> np.ndarray:
    """Normalize a point collection to an (n, d+1) array of [x..., t] rows."""
    if isinstance(points, AtomicMeasure):
        return np.column_stack([points.positions, points.times])
    if len(points) and isinstance(points[0], SpaceTimePoint):
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


def _cells(pts: np.ndarray, delta: float, alpha: float, reach: float = 0.0) -> np.ndarray:
    """Integer cells of the origin-anchored lattice with spatial side delta and
    temporal side delta**alpha, one row per (n, d+1) point.

    ``reach = 0`` gives the cell holding each point.  ``reach = -1`` (``+1``)
    gives the first (last) cell on each axis that an atom strictly inside the
    cylinder centred at the point can occupy: the scaled coordinate q moves by
    one side plus 2**-50 * (|q| + 16), which exceeds the rounding of the
    division, of the shift and of the strict membership tests.  Raises
    ValueError when a scaled coordinate is not finite or not below 2**53 in
    magnitude, where floor() would no longer give distinct exact integers.
    """
    sides = np.array([delta] * (pts.shape[1] - 1) + [delta ** alpha])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = pts / sides
    if not np.all(np.abs(q) < CELL_INDEX_LIMIT):
        raise ValueError(f"lattice cell index out of range at delta={delta!r}: "
                         "|coordinate / cell side| must be finite and below 2**53")
    if reach:
        q = q + reach * (1.0 + 2.0 ** -50 * (np.abs(q) + 16.0))
    return np.floor(q).astype(np.int64)


def _row_groups(rows: np.ndarray):
    """Lexicographic sort order of integer rows and the start of each run of
    equal rows in that order."""
    order = np.lexsort(rows.T)
    rows = rows[order]
    return order, np.flatnonzero(np.r_[True, np.any(rows[1:] != rows[:-1], axis=1)])


def _occupied_cells(pts: np.ndarray, delta: float, alpha: float) -> int:
    """Number of lattice cells holding at least one of the (n, d+1) points, n >= 1."""
    return len(_row_groups(_cells(pts, delta, alpha))[1])


def _cell_keys(rel: np.ndarray, span: np.ndarray) -> np.ndarray:
    """int64 sort keys of cells given relative to the atoms' lowest cell, with
    the time index fastest, so the time-adjacent cells of one spatial cell
    have consecutive keys.  Injective while the spatial index box fits in
    int64 next to the time span; beyond that the spatial part wraps and
    distinct spatial cells may share a key."""
    span_t = int(span[-1])
    strides = [1]
    for n in span[-2:0:-1]:
        strides.insert(0, strides[0] * int(n) % 2 ** 64)
    spatial = (rel[:, :-1].astype(np.uint64) * np.array(strides, dtype=np.uint64)).sum(
        axis=1, dtype=np.uint64) % np.uint64((2 ** 63 - 1) // span_t)
    return spatial.astype(np.int64) * span_t + rel[:, -1]


def _masses_at_scale(mu: AtomicMeasure, centers: np.ndarray, delta: float,
                     alpha: float) -> np.ndarray:
    """Cylinder masses for many centers at one scale, from a cell list.

    Atoms are sorted by cell key, so the atoms of a spatial cell's
    time-adjacent cells form one slice.  Centers are grouped by the box of
    cells their cylinders can reach (``_cells`` with reach -1 and +1): the
    3^d x 3 cells around their own, as a cell side equals the cylinder
    half-width on every axis, or one more on an axis where a center lies
    within rounding of a cell face.  Each group's candidate atoms are
    gathered once and tested with the strict membership tests, at most
    PAIR_BLOCK center-atom pairs at a time.
    """
    out = np.zeros(centers.shape[0])
    if mu.n_atoms == 0 or centers.shape[0] == 0:
        return out
    d, th = mu.d, delta ** alpha
    cells = _cells(as_point_array(mu), delta, alpha)
    low, high = cells.min(axis=0), cells.max(axis=0)
    span = high - low + 1
    keys = _cell_keys(cells - low, span)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    pos, ts, ws = mu.positions[order], mu.times[order], mu.weights[order]

    reach_lo = _cells(centers, delta, alpha, -1.0)
    reach_hi = _cells(centers, delta, alpha, 1.0)
    members, starts = _row_groups(np.hstack([reach_lo, reach_hi]))
    lo = np.maximum(reach_lo[members[starts]], low)      # reach clipped to the atoms' box
    hi = np.minimum(reach_hi[members[starts]], high)
    width = hi - lo + 1
    steps = np.maximum(width[:, :-1].max(axis=0), 1)
    offsets = np.stack(np.meshgrid(*map(np.arange, steps), indexing="ij"), -1).reshape(-1, d)
    valid = np.all(offsets < width[:, None, :-1], axis=2) & (width[:, None, -1] > 0)
    rel = np.empty(valid.shape + (d + 1,), dtype=np.int64)
    rel[..., :-1] = lo[:, None, :-1] - low[:-1] + offsets
    run = []
    for t_end, how in ((lo, "left"), (hi, "right")):
        rel[..., -1] = (t_end[:, -1] - low[-1])[:, None]
        found = np.searchsorted(keys, _cell_keys(rel.reshape(-1, d + 1), span), how)
        run.append(np.where(valid, found.reshape(valid.shape), -1))
    # spatial cells whose keys wrapped onto one another share a run: keep it once
    begin, end = (np.where(run[1] > run[0], r, -1) for r in run)
    by_begin = np.argsort(begin, axis=1)
    begin = np.take_along_axis(begin, by_begin, axis=1)
    end = np.take_along_axis(end, by_begin, axis=1)
    end[:, 1:] = np.where(begin[:, 1:] == begin[:, :-1], begin[:, 1:], end[:, 1:])
    length = end - begin

    bounds = np.r_[starts, len(members)]
    for g in range(len(starts)):
        n = int(length[g].sum())
        if n == 0:
            continue
        idx = np.repeat(begin[g] - np.cumsum(length[g]) + length[g], length[g]) + np.arange(n)
        cp, ct, cw = pos[idx], ts[idx], ws[idx]
        rows = max(1, PAIR_BLOCK // n)
        for b in range(bounds[g], bounds[g + 1], rows):
            ci = members[b:min(b + rows, bounds[g + 1])]
            cs = centers[ci]
            d2 = np.sum((cp[None, :, :] - cs[:, None, :-1]) ** 2, axis=2)
            mask = (d2 < delta ** 2) & (np.abs(ct[None, :] - cs[:, None, -1]) < th)
            out[ci] = mask @ cw
    return out


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
