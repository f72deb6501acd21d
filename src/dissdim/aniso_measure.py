"""Discrete anisotropic space-time measure machinery.

Cylinders here are spatial balls of radius delta crossed with time
intervals of half-length delta**alpha; alpha = 1 is the isotropic case and
alpha = 2 the parabolic one.  Box counting against a lattice whose cells
share that (delta, delta**alpha) shape gives a practical surrogate for the
anisotropic Hausdorff dimension: finite data cannot distinguish the two,
and the dimension tolerances used in tests absorb the gap.

Every point array here, a measure's atoms included, is (n, d+1) rows
[x_1 ... x_d, t], and a cylinder's center (``Cylinder``) is one such row.

Membership is strict on both factors (open ball, open interval), so atoms
sitting exactly on a cylinder boundary are excluded.  Every ball test is
``in_ball``, which scales the offsets and radius by a power of two where the
radius's square overflows, so it decides as a wider exponent range would.

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

* Exactness.  Rounding is monotone, so the ball test ``in_ball`` of x - c
  can only fail further from c on either side, and likewise |fl(t - t_c)| <
  delta**alpha.  A cylinder's members are therefore one index range of the
  atoms sorted by x and one range of time ranks, and a bisection that
  evaluates exactly these strict tests finds both (``_member_ranges``), a
  block of queries at a time.
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
  weights in time-rank order, from which every level's sums read: about 24
  bytes per atom at the peak rather than the O(atoms log atoms) of the
  whole tree.  The x, t and weight columns are read once each, into
  contiguous copies (``_contiguous``) that release a mapped measure as they
  go.  Queries are answered QUERY_BLOCK at a time, so a (scale, center)
  query keeps only its two index ranges (int32) and its mass, 24 bytes.
  It takes O((atoms + queries) log atoms) time; a measure of 2**31 atoms or
  more raises ValueError.

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

from .fields import all_finite, blocks, release

__all__ = [
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
class Cylinder:
    """The open cylinder B_delta(x) x (t - delta**alpha, t + delta**alpha) about
    ``center``, one row [x_1 ... x_d, t] held as a tuple of floats; the one
    check of a finite center, delta > 0 and alpha > 0 (ValueError otherwise)."""

    center: tuple
    delta: float
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))
        if not all(map(math.isfinite, self.center)):
            raise ValueError("space-time point must have finite coordinates")
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta!r}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")

    @property
    def d(self) -> int:
        return len(self.center) - 1

    def contains(self, points) -> np.ndarray:
        """Strict membership of (n, d+1) rows [x_1 ... x_d, t]."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        c = np.array(self.center)
        with np.errstate(over="ignore"):   # an offset that overflows is inf: outside
            offsets = points - c
        return (in_ball(offsets[:, :-1], open_ball(self.delta))
                & (np.abs(offsets[:, -1]) < scale_power(self.delta, self.alpha)))


def squared_norm(offsets) -> np.ndarray:
    """The sum over the last axis of offsets**2, inf where it overflows, with
    no RuntimeWarning: every squared distance of the package is this one."""
    with np.errstate(over="ignore"):
        return np.sum(offsets ** 2, axis=-1)


def open_ball(radius: float) -> np.ndarray:
    """The open ball |y| < radius as the row [s, (s radius)**2] for ``in_ball``:
    s = 1 where radius**2 is finite, else 2**-e with e the exponent of radius
    (frexp), so the square lies in [1/4, 1) and the scale rounds nothing."""
    s = 1.0 if scale_power(radius, 2) < math.inf else math.ldexp(1.0, -math.frexp(radius)[1])
    return np.array([s, scale_power(s * radius, 2)])


def in_ball(offsets, ball: np.ndarray) -> np.ndarray:
    """The one ball test: each row of offsets (coordinates on the last axis)
    inside ``ball``, an ``open_ball`` row or one per offset row."""
    scale = ball[..., :1]
    if np.any(scale != 1.0):
        offsets = offsets * scale
    return squared_norm(offsets) < ball[..., 1]


class AtomicMeasure:
    """Finite weighted atom list in R^d x R representing a positive measure.

    ``points`` holds one (n, d+1) row [x_1 ... x_d, t] per atom, ``weights``
    their masses; d is ``points.shape[1] - 1``, also for an empty measure.
    Immutable: it freezes views of the arrays given, not the arrays themselves.
    """

    def __init__(self, points, weights):
        points = np.asarray(points, dtype=float).view()
        weights = np.asarray(weights, dtype=float).reshape(-1)   # ravel would copy a strided column
        if points.ndim != 2 or points.shape[1] < 2:
            raise ValueError(f"points must be (n, d+1) rows with d >= 1, got shape {points.shape}")
        if points.shape[0] != weights.shape[0]:
            raise ValueError("points and weights must have matching lengths")
        if not (all_finite(points) and all_finite(weights)):
            raise ValueError("atoms must have finite coordinates and weights")
        # block by block, so the check leaves a mapped body on disk as all_finite does
        if any(block.min() < 0 for block in blocks(weights)):
            raise ValueError("weights must be non-negative (positive measure)")
        points.setflags(write=False)
        weights.setflags(write=False)
        self._points, self._weights, self.d = points, weights, points.shape[1] - 1

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def positions(self) -> np.ndarray:
        return self.points[:, :-1]

    @property
    def times(self) -> np.ndarray:
        return self.points[:, -1]

    @property
    def n_atoms(self) -> int:
        return self.weights.shape[0]

    @property
    def total_mass(self) -> float:
        mass = float(self.weights.sum())   # in one sum: a sum by blocks has other bits
        release(self.weights)
        return mass

    def support_points(self) -> np.ndarray:
        """Atoms carrying weight above SUPPORT_WEIGHT_CUTOFF x total mass, as (n, d+1) rows,
        selected block by block (``_atom_blocks``)."""
        cut = SUPPORT_WEIGHT_CUTOFF * self.total_mass
        return np.concatenate([self.points[:0]] + [rows[w > cut] for rows, w in self._atom_blocks()])

    def _atom_blocks(self):
        """The atoms as (points, weights) pairs of one ``blocks`` block of rows
        each, in order, so a walk over them leaves a mapped measure released."""
        start = 0
        for rows in blocks(self.points):
            # the block's own rows of weights: blocks of another stride hold other rows
            yield rows, self.weights[start:start + len(rows)]
            start += len(rows)


def as_point_array(points, d=None) -> np.ndarray:
    """Normalize a point collection to an (n, d+1) array of [x..., t] rows."""
    arr = np.atleast_2d(np.asarray(points, dtype=float))
    if d is not None and arr.shape[1] != d + 1:
        raise ValueError(f"expected points with {d + 1} columns, got {arr.shape[1]}")
    return arr


def cylinder_mass(mu: AtomicMeasure, c: Cylinder) -> float:
    """Sum of weights of atoms strictly inside the cylinder, selected block by
    block (``AtomicMeasure._atom_blocks``) and summed at once."""
    if c.d != mu.d:
        raise ValueError(f"cylinder dimension {c.d} does not match measure dimension {mu.d}")
    inside = [w[c.contains(rows)] for rows, w in mu._atom_blocks()]
    return float(np.concatenate([mu.weights[:0]] + inside).sum())


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
    return np.floor(q, out=q).astype(np.int64)


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
    d, th, ball = mu.d, scale_power(delta, alpha), open_ball(delta)
    cells = _cells(mu.points, delta, alpha)
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
    pts, ws = mu.points[order], mu.weights[order]
    release(mu.points)
    release(mu.weights)
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
        cp, cw = pts[idx], ws[idx]
        rows = max(1, PAIR_BLOCK // n)
        for b in range(bounds[g], bounds[g + 1], rows):
            ci = members[b:min(b + rows, bounds[g + 1])]
            cs = centers[ci]
            mask = (in_ball(cp[None, :, :-1] - cs[:, None, :-1], ball)
                    & (np.abs(cp[None, :, -1] - cs[:, None, -1]) < th))
            out[ci] = mask @ cw
    return out


def _member_ranges(v: np.ndarray, c: np.ndarray, radius: np.ndarray, inside) -> tuple:
    """Per query k, radius r = radius[k // len(c)] (a number or an ``open_ball``)
    about c[k % len(c)], the index range [lo, hi) of the sorted values v with
    inside(v, c, r), as two int32 arrays.  The test can only fail further from
    c on either side, so lo is the first index above c or inside and hi the
    first above c and not inside (empty where the test fails at c itself, a
    radius that underflows to 0); each is one bisection, QUERY_BLOCK queries
    at a time."""
    n, m, size = len(v), len(c), len(radius) * len(c)
    lo, hi = np.empty((2, size), dtype=np.int32)
    for s in range(0, size, QUERY_BLOCK):
        k = np.arange(s, min(s + QUERY_BLOCK, size))
        ck, rk = c[k % m], radius[k // m]
        for out, first in ((lo, True), (hi, False)):
            a, b = np.zeros(len(k), dtype=np.int64), np.full(len(k), n, dtype=np.int64)
            for _ in range(n.bit_length()):
                mid = (a + b) // 2
                y = v[np.minimum(mid, n - 1)]
                above, member = y > ck, inside(y, ck, rk)
                ok = (above | member) if first else (above & ~member)
                live = a < b
                a, b = np.where(live & ~ok, mid + 1, a), np.where(live & ok, mid, b)
            out[s:s + len(k)] = a
    return lo, hi


def _blocks(a: np.ndarray, block: int):
    """The aligned blocks of ``block`` entries of a 1-D array as rows of two
    views: the full blocks, then the partial last one (maybe empty)."""
    full = len(a) - len(a) % block
    return a[:full].reshape(-1, block), a[full:].reshape(1, -1)


def _contiguous(a: np.ndarray) -> np.ndarray:
    """A contiguous copy of ``a``, read one ``blocks`` block at a time, so a
    mapped body is left released."""
    out, start = np.empty(a.shape), 0
    for rows in blocks(a):
        out[start:start + len(rows)] = rows
        start += len(rows)
    return out


def _sweep_masses(mu: AtomicMeasure, centers: np.ndarray, scales, alpha: float) -> np.ndarray:
    """Cylinder masses of a d = 1 measure, one row per scale, by a
    merge-sort tree swept one level at a time (see the module docstring).

    Query k is scale k // m at center k % m, as ``_member_ranges`` numbers
    them when it finds each query's x range [left, right) of atoms and its
    time-rank range [t_lo, t_hi) (int32).  Per query only these and its mass
    are kept; everything else is built QUERY_BLOCK queries at a time.
    Raises ValueError for 2**31 atoms or more, where the int32 ranks and the
    int64 block keys would overflow.
    """
    n, m = mu.n_atoms, centers.shape[0]
    if n >= 2 ** 31:
        raise ValueError(f"the d = 1 density ladder takes fewer than 2**31 atoms, got {n}")
    size = len(scales) * m
    batches = [slice(s, s + QUERY_BLOCK) for s in range(0, size, QUERY_BLOCK)]
    balls = np.array([open_ball(delta) for delta in scales])
    th = np.array([scale_power(delta, alpha) for delta in scales])
    x = _contiguous(mu.positions[:, 0])
    by_x = np.argsort(x, kind="stable")
    left, right = _member_ranges(x[by_x], centers[:, 0], balls,
                                 lambda x, c, b: in_ball((x - c)[:, None], b))
    del x
    by_x = by_x.astype(np.int32)
    t = _contiguous(mu.times)
    by_t = np.argsort(t, kind="stable")
    t_lo, t_hi = _member_ranges(t[by_t], centers[:, 1], th, lambda t, c, r: np.abs(t - c) < r)
    del t
    by_t = by_t.astype(np.int32)                        # atom of each time rank
    w_by_t = _contiguous(mu.weights)[by_t]              # weight of each time rank
    rank = np.empty(n, dtype=np.int32)
    rank[by_t] = np.arange(n, dtype=np.int32)           # time rank of each atom
    rank = rank[by_x]                                   # in x order
    del by_x, by_t

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
            prefix[s:s + QUERY_BLOCK] = w_by_t[level[s:s + QUERY_BLOCK] & ranks]
        for rows in _blocks(prefix, block):
            np.cumsum(rows, axis=1, out=rows)           # block sums of weight by time rank
        live = False
        for b in batches:
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
        gauges = np.array([scale_power(delta, s_prime) for delta in scales])
        if np.isinf(gauges).any():   # an overflowed gauge, and all past it, are no evidence
            break
        caps = CERTIFY_CONSTANT * masses[0] / gauges[0]
        if np.all(masses / gauges <= caps * (1 + 1e-12)):
            certified = s_prime
        s_prime = round(s_prime + CERTIFY_SCAN_STEP, 12)
    return float(certified), "certified"

