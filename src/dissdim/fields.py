"""Uniform space-time grids carrying velocity samples and named scalar samples.

``GriddedField`` is the one grid type.  A time-independent vector field V(x)
is a steady GriddedField: nt = 2 (T = 1, say) whose two time rows are one
array, e.g. ``np.broadcast_to(v, (2,) + v.shape)``, which costs no copy.
"""

from __future__ import annotations

import functools
import mmap
import sys
import types
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.array_utils import byte_bounds

__all__ = ["SCALARS", "GriddedField", "all_finite", "blocks", "centered_difference",
           "component_dot", "release", "row_releaser"]

SCALARS = ("p", "theta")
FINITE_BLOCK = 1 << 20   # bytes of leading-axis rows that blocks yields at a time


def component_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[..., 0]*b[..., 0] + a[..., 1]*b[..., 1] + ..., summed in component order.

    Gives the bits of ``np.sum(a * b, axis=-1)`` for d <= 3 (up to the sign
    of an all-zero sum) without numpy's slow reduction along a short trailing
    axis; ``np.einsum`` sums d = 3 components in another order.
    """
    if a.shape[-1] != b.shape[-1]:   # views: a length-1 axis stands for every component
        a, b = np.broadcast_arrays(a, b)
    out = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        out += a[..., i] * b[..., i]
    return out


def centered_difference(f: np.ndarray, h: float, axis: int, out: np.ndarray) -> np.ndarray:
    """``np.gradient(f, h, axis=axis)`` written into ``out`` (f's shape), with
    its expressions: (f[i+1] - f[i-1]) / (2h) inside and one-sided
    differences / h at the two ends, so the bits are numpy's; the axis needs
    at least 2 nodes.  Returns ``out``."""
    f, g = f.swapaxes(0, axis), out.swapaxes(0, axis)   # the axis first, in both
    np.subtract(f[2:], f[:-2], out=g[1:-1])
    g[1:-1] /= 2.0 * h
    np.subtract(f[1:2], f[:1], out=g[:1])
    np.subtract(f[-1:], f[-2:-1], out=g[-1:])
    g[:1] /= h
    g[-1:] /= h
    return out


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite (True when ``a`` is empty).

    The walk goes by ``blocks``, so the check leaves none of a mapped body
    resident, and ``np.isfinite`` builds its boolean array one block at a
    time: at most FINITE_BLOCK / itemsize entries, since a block larger than
    FINITE_BLOCK bytes is a single row, which is checked by its own blocks.
    """
    return all(np.isfinite(block).all() if block.nbytes <= FINITE_BLOCK
               else all(map(all_finite, block)) for block in blocks(a))


def blocks(a: np.ndarray):
    """``a`` (a 0-d array as one row) in blocks of leading-axis rows, in
    order: as many rows as fit in FINITE_BLOCK bytes, and at least one.  A
    row counts as its stride or as its own bytes, whichever is more (a
    broadcast or a transposed view has rows larger than their stride).  Each
    block is released (``row_releaser``) once the caller asks for the next
    one or ends the walk."""
    a = np.atleast_1d(a)
    row = max(abs(a.strides[0]), a.nbytes // max(len(a), 1), 1)
    step = max(1, FINITE_BLOCK // row)
    release_rows_of = row_releaser(a)
    for i in range(0, len(a), step):
        try:
            yield a[i:i + step]
        finally:
            release_rows_of(i, i + step)


def row_releaser(a: np.ndarray, *box: slice):
    """A function of (start, stop) that does ``release`` on the leading-axis
    rows start..stop-1 of ``a`` (cut to ``box`` on the later axes) and as
    many rows before them: reading a block's first page maps the cached
    pages just before it again (the kernel's fault-around), after the block
    before has released them.  The mapping under ``a`` and the bytes of one
    row of the box are found once, so a walk over many rows of one box pays
    one madvise a call, not the lookups of ``release``.  A row range past
    the end is cut to it; on an array that ``release`` leaves alone, the
    function does nothing."""
    found = _mapped_bytes(a[(slice(0, 1),) + box])   # the box in row 0
    if found is None:
        return lambda start, stop: None
    mapping, lo, hi = found
    step, n = a.strides[0], len(a)

    def release_rows_of_box(start: int, stop: int) -> None:
        first, stop = max(2 * start - stop, 0), min(stop, n)
        if first < stop:   # rows first..stop-1 lie between these shifts of row 0
            shifts = (first * step, (stop - 1) * step)
            _advise(mapping, lo + min(shifts), hi + max(shifts))
    return release_rows_of_box


def release(view: np.ndarray) -> None:
    """Drop the page-table entries of the bytes under ``view`` if it views a
    read-only file mapping (a binary body as ``io`` reads it); do nothing on
    any other array, or where ``mmap`` has no MADV_DONTNEED.

    The values stay as they are: the next access faults the same bytes back
    in from the page cache.  The pages at either end of the range are
    released whole, bytes of neighbouring rows included.
    """
    found = _mapped_bytes(view)
    if found is not None:
        _advise(*found)


def _advise(mapping, lo: int, hi: int) -> None:
    """MADV_DONTNEED on the pages under bytes lo..hi-1 of ``mapping``."""
    lo -= lo % mmap.PAGESIZE
    mapping.madvise(mmap.MADV_DONTNEED, lo, hi - lo)


def _mapped_bytes(view: np.ndarray):
    """(mapping, lo, hi): the read-only mmap.mmap at the end of ``view``'s base
    chain and the offsets in it of the first byte under ``view`` and of the
    byte after its last; None for an empty view, a view of anything else
    (releasing a written page of a copy-on-write mapping would undo the
    write), or where ``mmap`` has no MADV_DONTNEED."""
    mapping = view.base
    while isinstance(mapping, np.ndarray):
        mapping = mapping.base
    if not (view.size and isinstance(mapping, mmap.mmap) and hasattr(mmap, "MADV_DONTNEED")):
        return None
    whole = np.frombuffer(mapping, np.uint8)
    if whole.flags.writeable:
        return None
    origin = whole.ctypes.data
    lo, hi = byte_bounds(view)
    return mapping, lo - origin, hi - origin


def _trapezoid_weights(step: float, n: int) -> np.ndarray:
    """Trapezoidal node weights, i.e. midpoint weights of the node-centred
    cells clipped to the domain."""
    w = np.full(n, step)
    w[0] = w[-1] = step / 2
    return w


@dataclass
class _SpaceTimeGrid:
    """The node grid x_i = a + i*h on [a, b]^d, h = (b-a)/(nx-1), crossed with
    the time nodes t_k = k*dt on [0, T], dt = T/(nt-1).

    Constructing one checks a, b, nx, T and nt, so callers build their axes
    from it only once the grid is known to be finite, with h > 0 and dt > 0.
    """

    d: int
    a: float
    b: float
    nx: int
    T: float
    nt: int

    def __post_init__(self):
        if self.d < 1 or self.nx < 2:
            raise ValueError("need d >= 1 and nx >= 2")
        for name, count in (("nx", self.nx), ("nt", self.nt)):
            if count > sys.float_info.max:
                raise ValueError(f"{name} must fit a float64, got {count!r}")
        if not self.b > self.a:
            raise ValueError("need b > a")
        with np.errstate(over="ignore", invalid="ignore"):
            ends = [self.h, self.a + self.h * (self.nx - 1)]
        if not (np.all(np.isfinite(ends)) and self.h > 0):
            raise ValueError("grid spacing or end node overflows, or the spacing rounds "
                             "to 0: need 0 < h < inf and a finite axis end node")
        if self.nt < 2 or not self.T > 0:
            raise ValueError("need nt >= 2 and T > 0")
        with np.errstate(over="ignore"):
            ends = [self.dt, self.dt * (self.nt - 1)]
        if not (np.all(np.isfinite(ends)) and self.dt > 0):
            raise ValueError("time step or end node overflows, or the step rounds to 0: "
                             "need 0 < dt < inf and a finite time end node")

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.nx - 1)

    @property
    def x_axis(self) -> np.ndarray:
        return self.a + self.h * np.arange(self.nx)

    @property
    def dt(self) -> float:
        return self.T / (self.nt - 1)

    @property
    def t_axis(self) -> np.ndarray:
        return self.dt * np.arange(self.nt)

    def spatial_mesh(self, box: tuple | None = None) -> np.ndarray:
        """Coordinates of the nodes of the index ``box`` (one slice per axis;
        the whole grid when None), shape (n_1, ..., n_d, d): stacked, as the
        bumps take them and the benchmark's bump spans count their points."""
        axes = [self.x_axis[s] for s in box or [slice(None)] * self.d]
        return np.stack(np.meshgrid(*axes, indexing="ij", copy=False), axis=-1)

    def spatial_weights(self, box: tuple | None = None) -> np.ndarray:
        """Product trapezoid weights of the nodes of the index ``box`` (the
        whole grid when None), each with the bits of the whole-grid entry; the
        benchmark times this method and ``spatial_mesh`` as layers."""
        wx = _trapezoid_weights(self.h, self.nx)
        return functools.reduce(np.multiply.outer, [wx[s] for s in box or [slice(None)] * self.d])


@dataclass
class GriddedField(_SpaceTimeGrid):
    """Samples on the node grid x_i = a + i*h (per axis), t_k = k*dt.

    ``u`` has shape (nt, nx, ..., nx, d) with d spatial axes of length nx;
    ``scalars`` maps names in SCALARS (pressure p, passive scalar theta) to
    samples without the component axis, kept read-only in the given order.
    Spacings follow the node convention h = (b-a)/(nx-1), dt = T/(nt-1).
    """

    u: np.ndarray
    scalars: types.MappingProxyType = field(default_factory=dict)

    def __post_init__(self):
        super().__post_init__()
        expected = (self.nt,) + (self.nx,) * self.d + (self.d,)
        self.u = np.asarray(self.u, dtype=float)
        if self.u.shape != expected:
            raise ValueError(f"u has shape {self.u.shape}, expected {expected}")
        self.scalars = types.MappingProxyType(
            {name: np.asarray(arr, dtype=float) for name, arr in self.scalars.items()})
        for name, arr in self.scalars.items():
            if name not in SCALARS:
                raise ValueError(f"unknown scalar {name!r}, expected one of {SCALARS}")
            if arr.shape != expected[:-1]:
                raise ValueError(f"{name} has shape {arr.shape}, expected {expected[:-1]}")
            if not all_finite(arr):
                raise ValueError(f"{name} contains non-finite samples")
        if not all_finite(self.u):
            raise ValueError("u contains non-finite samples")

    def axis_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Trapezoidal node weights (wx per axis, wt)."""
        return _trapezoid_weights(self.h, self.nx), _trapezoid_weights(self.dt, self.nt)

    def speed(self) -> np.ndarray:
        """Euclidean velocity magnitude per node, shape (nt, nx, ..., nx)."""
        return np.sqrt(component_dot(self.u, self.u))

    def grad_squared(self) -> np.ndarray:
        """|grad u|^2 by centered differences (one-sided at the boundary),
        each difference written into one reused array."""
        out, g = np.zeros(self.u.shape[:-1]), np.empty(self.u.shape[:-1])
        for comp in range(self.d):
            for axis in range(self.d):
                centered_difference(self.u[..., comp], self.h, 1 + axis, g)
                out += np.multiply(g, g, out=g)
        return out
