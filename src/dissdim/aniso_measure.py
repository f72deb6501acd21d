"""Discrete anisotropic space-time measure machinery.

Cylinders here are spatial balls of radius delta crossed with time
intervals of half-length delta**alpha; alpha = 1 is the isotropic case and
alpha = 2 the parabolic one.  Box counting against a lattice whose cells
share that (delta, delta**alpha) shape gives a practical surrogate for the
anisotropic Hausdorff dimension: finite data cannot distinguish the two,
and the dimension tolerances used in tests absorb the gap.

Membership is strict on both factors (open ball, open interval), so atoms
sitting exactly on a cylinder boundary are excluded.

One lattice serves every scale-by-scale computation on boxes: the
origin-anchored cells of spatial side delta and temporal side delta**alpha,
mapped from points by ``_cells``.  Box counting counts its occupied cells.
Points 2**53 cells or more from the origin, and a temporal side that
overflows a float64, raise ValueError.

The density ladder takes its cylinder masses from ``_masses``, one row per
scale and one column per center, for all scales in one call.

For d = 1 a cylinder is an open rectangle in (x, t), so its mass is a 2D
orthogonal range sum, and one offline sweep over a merge-sort tree (a range
tree with sorted lists at its nodes) answers every (scale, center) query:

* Exactness.  Rounding is monotone, so fl((x - c)**2) < delta**2 can only
  fail further from c on either side, and likewise |fl(t - t_c)| <
  delta**alpha.  A cylinder's members are therefore one index range of the
  atoms sorted by x and one range of time ranks, and a bisection that
  evaluates exactly these strict tests finds both, a block of queries at a
  time.
  No rounded bound c +- delta is used, so the members are the atoms
  ``Cylinder.contains`` accepts.
* Sweep.  With the atoms sorted by x, each aligned block of 2**k of them
  keeps its time ranks sorted, with prefix sums of their weights.  An x
  range splits into at most two blocks per level (the bottom-up
  segment-tree walk), and one ``np.searchsorted`` per level over a block
  of queries finds each tree block's atoms inside the time-rank range.
  Sums are taken within a tree block, so their rounding scales with that
  block's mass.
* Memory.  The sweep holds one level of the tree at a time, in place: an
  int64 key per atom (its block's first index above its time rank), which
  a row sort merges into the next level, the blocks' prefix sums, and the
  atom of each time rank (int32), through which the sums read the weights:
  about 20 bytes per atom at the peak rather than the O(atoms log atoms) of
  the whole tree.  Queries are answered QUERY_BLOCK at a time, so a (scale,
  center) query keeps only its two index ranges (int32) and its mass, 24
  bytes.  It takes O((atoms + queries) log atoms) time; a measure of 2**31
  atoms or more raises ValueError.

For d >= 2 a ball is not a box, and the lattice serves as a cell list (the
linked-cell neighbour search of molecular dynamics), built at each scale.
A cell side equals the cylinder half-width on every axis, so an atom inside
a cylinder lies in one of the 3^d x 3 cells around the center's cell (a
cell further on an axis where rounding puts the center at a cell face), and
each center is tested only against the atoms of those cells: the cost per
center is the number of atoms in its neighbour cells, not the number of
atoms of the measure.  The cell list identifies cells exactly, as box
counting does, by one sort of their integer rows (``_row_groups``): distinct
cells never share an id, however far apart the atoms lie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fields import all_finite, blocks

__all__ = [
    "SpaceTimePoint",
    "Cylinder",
    "AtomicMeasure",
    "DensityLadder",
    "BoxCountResult",
    "cylinder_mass",
    "box_counting_dimension",
    "density_ladder",
    "certify_lower_bound",
    "as_point_array",
]

SUPPORT_WEIGHT_CUTOFF = 1e-12    # relative to total mass, for the default center policy
FIT_RESIDUAL_LIMIT = 0.25        # log-space RMS beyond which verdicts are inconclusive
CERTIFY_SCAN_STEP = 0.005
CERTIFY_CONSTANT = 2.0           # density cap = CERTIFY_CONSTANT x coarsest density
CELL_INDEX_LIMIT = 2.0 ** 53     # |coordinate / cell side| below which floor() is exact
PAIR_BLOCK = 2 ** 16             # center-atom pairs tested at once by _masses_at_scale
QUERY_BLOCK = 2 ** 14            # (scale, center) queries answered at once by _sweep_masses


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
        return scale_power(self.delta, self.alpha)

    def contains(self, x, t) -> np.ndarray:
        """Strict membership test, vectorized over rows of x and entries of t."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        t = np.atleast_1d(np.asarray(t, dtype=float))
        c = np.asarray(self.center.x)
        spatial = np.sum((x - c) ** 2, axis=1) < scale_power(self.delta, 2)
        temporal = np.abs(t - self.center.t) < self.time_half_length
        return spatial & temporal


class AtomicMeasure:
    """Finite weighted atom list in R^d x R representing a positive measure.

    Immutable after construction; all queries are read-only.
    """

    def __init__(self, positions, times, weights, d=None):
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        times = np.asarray(times, dtype=float).reshape(-1)   # ravel would copy a strided column
        weights = np.asarray(weights, dtype=float).reshape(-1)
        if positions.shape[0] != times.shape[0] or times.shape[0] != weights.shape[0]:
            raise ValueError("positions, times and weights must have matching lengths")
        if d is None:
            d = positions.shape[1] if positions.size else 1
        if positions.size and positions.shape[1] != d:
            raise ValueError(f"positions have dimension {positions.shape[1]}, expected {d}")
        if positions.size == 0:
            positions = positions.reshape(0, d)
        if not (all_finite(positions) and all_finite(times) and all_finite(weights)):
            raise ValueError("atoms must have finite coordinates and weights")
        # block by block, so the check leaves a mapped body on disk as all_finite does
        if any(block.min() < 0 for block in blocks(weights)):
            raise ValueError("weights must be non-negative (positive measure)")
        self._positions = positions
        self._times = times
        self._weights = weights
        for arr in (self._positions, self._times, self._weights):
            arr.setflags(write=False)
        self.d = int(d)

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
    if not all(s > 0 for s in scales):
        raise ValueError("scales must be positive")
    if not all(b < a for a, b in zip(scales, scales[1:])):
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


def scale_power(delta, alpha) -> float:
    """delta**alpha as a float, inf where it overflows (0.0 where it underflows)."""
    try:
        return float(delta) ** float(alpha)
    except OverflowError:
        return math.inf


def _cells(pts: np.ndarray, delta: float, alpha: float, reach: float = 0.0) -> np.ndarray:
    """Integer cells of the origin-anchored lattice with spatial side delta and
    temporal side delta**alpha, one row per (n, d+1) point.

    ``reach = 0`` gives the cell holding each point.  ``reach = -1`` (``+1``)
    gives the first (last) cell on each axis that an atom strictly inside the
    cylinder centred at the point can occupy: the scaled coordinate q moves by
    one side plus 2**-50 * (|q| + 16), which exceeds the rounding of the
    division, of the shift and of the strict membership tests.  Raises
    ValueError when the temporal side overflows, or when a scaled coordinate
    is not finite or not below 2**53 in magnitude, where floor() would no
    longer give distinct exact integers.
    """
    sides = np.array([delta] * (pts.shape[1] - 1) + [scale_power(delta, alpha)])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = pts / sides
    if not (sides[-1] < math.inf and np.all(np.abs(q) < CELL_INDEX_LIMIT)):
        raise ValueError(f"lattice cell index out of range at delta={delta!r}: the cell "
                         "sides and |coordinate / cell side| must be finite, the latter below 2**53")
    if reach:
        q = q + reach * (1.0 + 2.0 ** -50 * (np.abs(q) + 16.0))
    return np.floor(q).astype(np.int64)


def _row_groups(rows: np.ndarray):
    """Lexicographic sort order of integer rows and the start of each run of
    equal rows in that order."""
    order = np.lexsort(rows.T)
    rows = rows[order]
    return order, np.flatnonzero(np.r_[True, np.any(rows[1:] != rows[:-1], axis=1)])


def _row_ids(rows: np.ndarray) -> np.ndarray:
    """Dense integer ids of integer rows: equal rows share one id and distinct
    rows get distinct ids, numbered from 0 in the order of ``_row_groups``."""
    order, starts = _row_groups(rows)
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.repeat(np.arange(len(starts)), np.diff(np.r_[starts, len(rows)]))
    return ids


def _masses_at_scale(mu: AtomicMeasure, centers: np.ndarray, delta: float,
                     alpha: float) -> np.ndarray:
    """Cylinder masses for many centers at one scale, from a cell list.

    Centers are grouped by the box of cells their cylinders can reach
    (``_cells`` with reach -1 and +1): the 3^d x 3 cells around their own, as
    a cell side equals the cylinder half-width on every axis, or one more on
    an axis where a center lies within rounding of a cell face.  Cells are
    identified exactly: ``_row_ids`` numbers the atoms' spatial cells together
    with every spatial cell a group can reach, and atoms sorted by (that id,
    rank of their time cell) put the time-adjacent cells of one spatial cell
    in one slice; a reachable cell without atoms finds an empty slice.  Each
    group's candidate atoms are gathered once and tested with the strict
    membership tests, at most PAIR_BLOCK center-atom pairs at a time.
    """
    out = np.zeros(centers.shape[0])
    d, th, r2 = mu.d, scale_power(delta, alpha), scale_power(delta, 2)
    cells = _cells(as_point_array(mu), delta, alpha)
    reach_lo = _cells(centers, delta, alpha, -1.0)
    reach_hi = _cells(centers, delta, alpha, 1.0)
    members, starts = _row_groups(np.hstack([reach_lo, reach_hi]))
    lo, hi = reach_lo[members[starts]], reach_hi[members[starts]]
    width = hi[:, :-1] - lo[:, :-1] + 1
    offsets = np.stack(np.meshgrid(*map(np.arange, width.max(axis=0)), indexing="ij"),
                       -1).reshape(-1, d)
    valid = np.all(offsets < width[:, None, :], axis=2)
    ids = _row_ids(np.vstack([cells[:, :-1], (lo[:, None, :-1] + offsets).reshape(-1, d)]))

    # keys below (atoms + reachable cells) x atoms: exact in int64
    times = np.unique(cells[:, -1])
    keys = ids[:mu.n_atoms] * len(times) + np.searchsorted(times, cells[:, -1])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    pos, ts, ws = mu.positions[order], mu.times[order], mu.weights[order]
    first = ids[mu.n_atoms:].reshape(valid.shape) * len(times)
    begin, end = (np.searchsorted(keys, first + np.searchsorted(times, t, how)[:, None])
                  for t, how in ((lo[:, -1], "left"), (hi[:, -1], "right")))
    length = np.where(valid, end - begin, 0)

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
            mask = (d2 < r2) & (np.abs(ct[None, :] - cs[:, None, -1]) < th)
            out[ci] = mask @ cw
    return out


def _first_true(test, n: int, size: int) -> np.ndarray:
    """Per query, the first index k in [0, n) at which test(k) holds, or n;
    test must be false and then true along the index for every query.  One
    bisection over all ``size`` queries at once."""
    lo = np.zeros(size, dtype=np.int64)
    hi = np.full(size, n, dtype=np.int64)
    for _ in range(n.bit_length()):
        mid = (lo + hi) // 2
        ok = test(np.minimum(mid, n - 1))
        live = lo < hi
        hi = np.where(live & ok, mid, hi)
        lo = np.where(live & ~ok, mid + 1, lo)
    return lo


def _member_range(v: np.ndarray, c: np.ndarray, inside):
    """Index range [lo, hi) of the sorted values v that pass inside(v), per
    query with center c, for a test that can only fail further from c on
    either side: members below c come after the non-members below it, and
    members above c before the non-members above it.  Where the test fails
    at c itself (a radius that underflows to 0) the range is empty."""
    def reached(k):
        y = v[k]
        return (y > c) | inside(y)

    def passed(k):
        y = v[k]
        return (y > c) & ~inside(y)

    return _first_true(reached, len(v), len(c)), _first_true(passed, len(v), len(c))


def _blocks(a: np.ndarray, block: int):
    """The aligned blocks of ``block`` entries of a 1-D array as rows of two
    views: the full blocks, then the partial last one (maybe empty)."""
    full = len(a) - len(a) % block
    return a[:full].reshape(-1, block), a[full:].reshape(1, -1)


def _sweep_masses(mu: AtomicMeasure, centers: np.ndarray, scales, alpha: float) -> np.ndarray:
    """Cylinder masses of a d = 1 measure, one row per scale, by a
    merge-sort tree swept one level at a time (see the module docstring).

    Query k is scale k // m at center k % m.  Per query only its x range
    [left, right) of nodes, its time-rank range [t_lo, t_hi) (int32) and its
    mass are kept; everything else is built QUERY_BLOCK queries at a time.
    Raises ValueError for 2**31 atoms or more, where the int32 ranks and the
    int64 block keys would overflow.
    """
    n, m = mu.n_atoms, centers.shape[0]
    if n >= 2 ** 31:
        raise ValueError(f"the d = 1 density ladder takes fewer than 2**31 atoms, got {n}")
    size = len(scales) * m
    blocks = [slice(s, s + QUERY_BLOCK) for s in range(0, size, QUERY_BLOCK)]

    def member_ranges(v, column, radius, inside):
        """Each query's index range in the sorted values v, as two int32 arrays."""
        lo, hi = np.empty(size, dtype=np.int32), np.empty(size, dtype=np.int32)
        for b in blocks:
            k = np.arange(b.start, min(b.stop, size))
            c, r = centers[k % m, column], radius[k // m]
            lo[b], hi[b] = _member_range(v, c, lambda y: inside(y, c, r))
        return lo, hi

    r2 = np.array([scale_power(delta, 2) for delta in scales])
    th = np.array([scale_power(delta, alpha) for delta in scales])
    by_x = np.argsort(mu.positions[:, 0], kind="stable")
    left, right = member_ranges(mu.positions[by_x, 0], 0, r2, lambda x, c, r: (x - c) ** 2 < r)
    by_x = by_x.astype(np.int32)
    by_t = np.argsort(mu.times, kind="stable")
    t_lo, t_hi = member_ranges(mu.times[by_t], 1, th, lambda t, c, r: np.abs(t - c) < r)
    by_t = by_t.astype(np.int32)                        # atom of each time rank
    rank = np.empty(n, dtype=np.int32)
    rank[by_t] = np.arange(n, dtype=np.int32)           # time rank of each atom
    rank = rank[by_x]                                   # in x order
    del by_x

    # A block key is (index of the block's first atom << shift) | time rank:
    # with each block sorted, the level is one sorted array, and one
    # np.searchsorted finds a query's time-rank range in any block.
    shift = (n - 1).bit_length()                        # 2**shift >= n > every rank
    ranks = (1 << shift) - 1
    level = np.arange(n, dtype=np.int64)
    level <<= shift
    level |= rank
    del rank
    prefix = np.empty(n)
    out = np.zeros(size)
    block = 1
    live = bool(np.any(left < right))
    while live:
        if block > 1:   # merge each pair of sorted blocks under the first one's start
            level &= ~(block // 2 << shift)
            for rows in _blocks(level, block):
                rows.sort(axis=1)
        for s in range(0, n, QUERY_BLOCK):
            prefix[s:s + QUERY_BLOCK] = mu.weights[by_t[level[s:s + QUERY_BLOCK] & ranks]]
        for rows in _blocks(prefix, block):
            np.cumsum(rows, axis=1, out=rows)           # block sums of weight by time rank
        live = False
        for b in blocks:
            lb, rb = left[b], right[b]                  # views, advanced in place
            live_b = lb < rb
            use_left, use_right = live_b & (lb % 2 == 1), live_b & (rb % 2 == 1)
            for use, node in ((use_left, lb), (use_right, rb - 1)):
                q = np.flatnonzero(use)
                start = node[q].astype(np.int64) * block
                lo, hi = (np.searchsorted(level, (start << shift) + r[b][q]) for r in (t_lo, t_hi))
                # the prefix sums are inclusive: none before the block's start
                out[b][q] += (np.where(hi > start, prefix[hi - 1], 0.0)
                              - np.where(lo > start, prefix[lo - 1], 0.0))
            lb[:], rb[:] = (lb + use_left) // 2, (rb - use_right) // 2
            live = live or bool(np.any(lb < rb))
        block *= 2
    return out.reshape(len(scales), m)


def _masses(mu: AtomicMeasure, centers: np.ndarray, scales, alpha: float) -> np.ndarray:
    """Cylinder masses, one row per scale and one column per center: the
    merge-sort-tree sweep for d = 1, the cell list at each scale for d >= 2."""
    if mu.n_atoms == 0 or centers.shape[0] == 0:
        return np.zeros((len(scales), centers.shape[0]))
    if mu.d == 1:
        return _sweep_masses(mu, centers, scales, alpha)
    return np.array([_masses_at_scale(mu, centers, delta, alpha) for delta in scales])


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
    counts = [len(_row_groups(_cells(pts, delta, alpha))[1]) for delta in scales]
    slope, rms = _loglog_fit([np.log(1.0 / s) for s in scales], counts)
    return BoxCountResult(slope, counts, rms)


@dataclass(frozen=True)
class DensityLadder:
    """Per-scale record of the sup cylinder mass mu(C^alpha_delta) over the centers
    and of its density, that mass / delta**s."""

    s: float
    scales: tuple
    densities: tuple
    sup_masses: tuple
    fitted_slope: float
    fit_residual: float


def density_ladder(mu: AtomicMeasure, alpha, s, scales, centers=None) -> DensityLadder:
    """Sup of mu(C^alpha_delta(center))/delta**s over centers, per scale.

    Default centers are the atoms of the measure carrying non-negligible
    weight (the discrete support); ``centers`` replaces them with an explicit
    (n, d+1) array.  Raises ValueError when delta**s underflows to 0 or
    overflows at some scale.
    """
    if not 0 <= s < math.inf:
        raise ValueError(f"s must be non-negative and finite, got {s!r}")
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    scales = _validate_scales(scales)
    gauges = [scale_power(delta, s) for delta in scales]
    if not all(0 < g < math.inf for g in gauges):
        raise ValueError(f"delta**s leaves the float range on the ladder at s={s!r}")
    if centers is None:
        centers = mu.support_points()
    else:
        centers = as_point_array(centers, d=mu.d)
        if not np.all(np.isfinite(centers)):
            raise ValueError("centers must have finite coordinates")
    if centers.shape[0] == 0:
        raise ValueError("empty support: no centers to scan")

    masses = [float(m) for m in _masses(mu, centers, scales, alpha).max(axis=1)]
    densities = [m / g for m, g in zip(masses, gauges)]

    positive = [(d_, m_) for d_, m_ in zip(scales, masses) if m_ > 0]
    if len(positive) >= 3:
        slope, rms = _loglog_fit([np.log(d_) for d_, _ in positive], [m_ for _, m_ in positive])
    else:
        slope, rms = float("nan"), float("nan")

    return DensityLadder(s=float(s), scales=tuple(scales), densities=tuple(densities),
                         sup_masses=tuple(masses), fitted_slope=slope, fit_residual=rms)


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

