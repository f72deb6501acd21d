"""Weak-form energy/entropy balances tested against cutoffs on gridded fields.

Every balance below is one trapezoid quadrature over the field's nodes, made
by the kernel ``_pairing``; cutoff and test-function derivatives are
analytic, field derivatives (only ever needed for the viscous gradient
density) are centered differences.  The kernel works only on the index box
of the test function's support, plus a one-node halo.  The spatial factor
and its derivatives are evaluated once, on the factor's stated support box
(a few nodes wider), which holds the window.  The grid builds each box's own
coordinates and global quadrature weights, so no pairing or covering
estimate holds a whole-grid coordinate or weight array.  Every term differentiates the field only in space, so the
kernel walks the box's time rows in blocks of about ``WINDOW_BLOCK`` nodes
(at least two rows): each block's samples are copied into contiguous memory,
and every field-derived array (densities, fluxes, |grad u|^2, the speed) is
block-sized.  A block reduces each term to one number per time row; the time
quadratures, the Hoelder norms and every check then run on those row
vectors.  The spatial contraction is an ``np.einsum``, whose row results do
not depend on how many rows go in together, so a pairing has the same bits
for every block size.  The kernel alone knows a cutoff's cylinder: it builds
the delta-ball and time masks and the 2*delta-collar's flat node indices
once, and returns them with the weak mass, the nu*|grad u|^2 masses and the
per-row norms of |u| that the Hoelder bound multiplies.  The covering
estimate pairs a steady field with chi*grad(phi) and phi*grad(chi), neither
the gradient of one test function: it shares only ``_support_box`` and
``_spatial_factors``.

Dissipation is accessed exclusively through test functions, each paired by
``pair_weak_mass``: testing the balance with a cutoff pair localizing a
cylinder gives an upper estimate of the dissipation mass on that cylinder
whenever the dissipation is non-negative.  The gap between the estimate and
the true cylinder mass is the mass in the cutoff collar (radius delta to
2*delta).  No balance has a boundary-flux term, so one margin rule, read from
the stated supports of phi's factors, holds for every pairing (cutoffs too):
each support leaves the two edge nodes of every axis free (``_check_margin``).

The Hoelder bounds are computed with the same discrete weights as the weak
masses, so the dominance ``weak_mass <= holder_bound`` is an exact discrete
inequality: every hidden constant is instantiated, the norm factors carry
constant exactly 1, and the cutoff factors enter through their realized
quadratures.  The exponents q and r are evaluated as floats.  Every norm is
one helper, ``_pnorm``, which divides by the largest value before raising to
a finite power p > 1, so a field of tiny amplitude does not underflow it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, NamedTuple

import numpy as np

from .aniso_measure import in_ball, open_ball, scale_power, squared_norm
from .cutoffs import CutoffPair, SpatialBump, SpaceTimeTestFunction
from .errors import VerificationError
from .exponents import _conj
from .fields import GriddedField, component_dot, release_rows

__all__ = [
    "MarginError",
    "CoverageError",
    "EntropyPair",
    "BalanceReport",
    "SignedSupportReport",
    "BURGERS_PAIR",
    "EULER_ENERGY_PAIR",
    "PASSIVE_SCALAR_PAIR",
    "pair_weak_mass",
    "holder_cylinder_bound",
    "dominated",
    "boundary_extended_mass",
    "signed_support_bound",
]

DOMINANCE_TOL = 1e-9


class MarginError(ValueError):
    """Cutoff or test-function support escapes the required grid margin."""


class CoverageError(ValueError):
    """A covering fails to contain the above-threshold divergence cells."""


@dataclass(frozen=True)
class EntropyPair:
    """A conserved density and its flux for a scalar/velocity model.

    ``eta_fn(f)`` returns the density per node of the GriddedField ``f``, read
    from ``f.u`` and the ``f.scalars`` it needs; ``fluxes`` maps a term name to
    a flux function of the same field (trailing component axis; a length-1
    axis stands for every component), and the flux is their sum.  Each flux
    gives one balance term, in the dict's order: "II" is the velocity flux and
    "III", when present, the pressure flux u*p.  The growth coefficients
    certify pointwise bounds |eta| <= eta_quad_coeff*|u|^2 and |Q_II| <=
    q_cubic_coeff*|u|^3 used when instantiating Hoelder bounds; pairs without
    velocity-cubic structure leave them None and are rejected by the bound
    evaluator.
    """

    label: str
    eta_fn: Callable
    fluxes: dict
    eta_quad_coeff: float | None = None
    q_cubic_coeff: float | None = None


def _burgers_eta(f):
    return 0.5 * f.u[..., 0] ** 2


def _burgers_q(f):
    u0 = f.u[..., 0]
    return (u0 * u0 * u0 / 3.0)[..., None]   # a product, not np.power: 5x faster


BURGERS_PAIR = EntropyPair("burgers", _burgers_eta, {"II": _burgers_q},
                           eta_quad_coeff=0.5, q_cubic_coeff=1.0 / 3.0)


def _scalar_eta(f):
    if "theta" not in f.scalars:
        raise ValueError("the passive-scalar pair needs a field with scalar samples")
    return 0.5 * f.scalars["theta"] ** 2


# the density theta^2/2 transported by the velocity field
PASSIVE_SCALAR_PAIR = EntropyPair("passive_scalar", _scalar_eta,
                                  {"II": lambda f: f.u * _scalar_eta(f)[..., None]})


def _euler_eta(f):
    return 0.5 * component_dot(f.u, f.u)


# the Euler energy flux (|u|^2/2 + p) u, split into its cubic velocity part
# and its pressure part
EULER_ENERGY_PAIR = EntropyPair(
    "euler_energy", _euler_eta,
    {"II": lambda f: f.u * _euler_eta(f)[..., None],
     "III": lambda f: f.u * f.scalars["p"][..., None]},
    eta_quad_coeff=0.5, q_cubic_coeff=0.5)


# ---------------------------------------------------------------------------
# The pairing kernel.
# ---------------------------------------------------------------------------

def _halo_slice(mask: np.ndarray) -> slice:
    """Index range of the True entries widened by one node on each side
    (clipped to the axis); the whole axis when no entry is True."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return slice(0, mask.size)
    return slice(max(int(idx[0]) - 1, 0), min(int(idx[-1]) + 2, mask.size))


def _equal_lengths(slices: tuple, bound: tuple) -> tuple:
    """Widen index ranges to the length of the longest one, each inside its
    axis's range in the ``bound`` box (which must be at least that long)."""
    length = max(s.stop - s.start for s in slices)
    starts = [min(s.start, b.stop - length) for s, b in zip(slices, bound)]
    return tuple(slice(i, i + length) for i in starts)


def _check_margin(field: GriddedField, phi: SpaceTimeTestFunction, vanish) -> None:
    """Raise MarginError unless the stated supports of phi = X * H leave the
    two edge nodes free at each margin named in ``vanish``: "x", every
    spatial axis's (lo, hi) within [x_1, x_{nx-2}]; "t0", the time support's
    lo >= t_1; "T", its hi <= t_{nt-2}.  phi is then 0 on nodes 0, 1, n-2 and
    n-1 of each such axis.  Reads the supports only (a NaN bound fails)."""
    x, t = field.x_axis, field.t_axis
    if "x" in vanish and not all(x[1] <= lo and hi <= x[-2] for lo, hi in phi.space.support):
        raise MarginError("spatial support reaches the 2 edge nodes of the grid")
    lo, hi = phi.time.support
    if "t0" in vanish and not lo >= t[1]:
        raise MarginError("time support reaches the first 2 time nodes")
    if "T" in vanish and not hi <= t[-2]:
        raise MarginError("time support reaches the last 2 time nodes")


# nodes added on each side of a factor's stated support box, against rounding
SUPPORT_PAD = 2


def _support_box(field: GriddedField, space) -> tuple:
    """Equal-sided index box of the nodes in ``space.support``, widened by
    SUPPORT_PAD nodes and clipped to the grid (never empty: a support off the
    grid gives the SUPPORT_PAD nodes along the nearest face).  ValueError
    when the support has not one (lo, hi) per axis of the field, when a bound
    is NaN or when a lower bound exceeds its upper one."""
    if len(space.support) != field.d:
        raise ValueError(f"a spatial factor of dimension {len(space.support)} "
                         f"on a d = {field.d} field")
    slices = []
    for lo, hi in space.support:
        i, j = ((v - field.a) / field.h for v in (lo, hi))
        if not i <= j:   # also a NaN bound
            raise ValueError(f"spatial support {space.support!r} is not a box")
        # clamped first: floor and ceil reject inf
        start = max(math.floor(min(max(i, -1.0), field.nx)) - SUPPORT_PAD, 0)
        stop = min(math.ceil(min(max(j, -1.0), field.nx)) + SUPPORT_PAD + 1, field.nx)
        slices.append(slice(start, stop))
    return _equal_lengths(tuple(slices), (slice(0, field.nx),) * field.d)


def _spatial_factors(field: GriddedField, space, box: tuple):
    """The window's spatial index box, and X, grad X, lap X and the nodes on it.

    X and its derivatives are evaluated once, on ``box``, the stated support
    box (``_support_box``), whose inner faces must hold no nonzero node (a
    support statement that is too small raises ValueError).  The window is the
    smallest index box holding every nonzero node, widened by a one-node
    halo and then to equal sides inside the support box; a support box with
    no nonzero node is the window itself, with zero factors.
    """
    nodes = field.spatial_mesh(box)
    X, grad, lap = space.value(nodes), space.gradient(nodes), space.laplacian(nodes)
    nonzero = (X != 0) | (grad != 0).any(axis=-1) | (lap != 0)
    # per axis: which of the box's node indices hold a nonzero node
    hit = [nonzero.any(axis=tuple(j for j in range(field.d) if j != i))
           for i in range(field.d)]
    if not all((b.start == 0 or not h[0]) and (b.stop == field.nx or not h[-1])
               for b, h in zip(box, hit)):
        raise ValueError("space: the factor is nonzero at a node outside its stated support")
    x = _equal_lengths(tuple(slice(b.start + s.start, b.start + s.stop)
                             for b, s in zip(box, map(_halo_slice, hit))), box)
    cut = tuple(slice(s.start - b.start, s.stop - b.start) for b, s in zip(box, x))
    return x, X[cut], grad[cut], lap[cut], nodes[cut]


# a pairing walks its window's time rows in blocks of about this many nodes (at
# least two rows), which bounds the samples and field-derived arrays it holds
WINDOW_BLOCK = 2 ** 14


def _row_blocks(nt: int, row_nodes: int) -> list:
    """(start, stop) ranges that cover range(nt) in order, each of
    max(2, WINDOW_BLOCK // row_nodes) rows but the last; a one-row tail joins
    the block before it, since a GriddedField needs nt >= 2."""
    rows = max(2, WINDOW_BLOCK // row_nodes)
    starts = list(range(0, nt, rows))
    if len(starts) > 1 and nt - starts[-1] < 2:
        starts.pop()
    return list(zip(starts, starts[1:] + [nt]))


class _Window:
    """A separable test function phi = X(x) * H(t) on the index box of its
    support, and the field whose samples it walks in blocks of time rows.

    The box is the smallest index box holding every node where a factor of
    phi or one of its derivatives is nonzero, widened by a one-node halo and
    then to equal spatial sides (see ``_spatial_factors``).  The halo makes
    centered differences on the box equal to the global ones wherever phi is
    nonzero, and it holds the support's boundary nodes, where the Hoelder
    masks are closed.  Nodes keep their global trapezoid weights, so a
    quadrature over the box is the full-grid quadrature summed in another
    order.

    The window holds what spans the whole box, built for the box alone: the
    spatial factors, H and dH/dt, the weights ``wsp`` and ``wt``, and the
    global coordinates ``mesh`` and ``t_axis``.  It holds no samples:
    ``block`` copies those of a few time rows (see ``row_blocks``) into
    contiguous memory and releases the field's pages under them, so a sweep
    over a mapped body keeps none of the file resident.

    phi = h_val * x_val, dphi/dt = h_dt * x_val, grad phi = h_val * x_grad and
    lap phi = h_val * x_lap: the h_* are time vectors on the box, the x_*
    spatial arrays on it.
    """

    def __init__(self, field: GriddedField, phi: SpaceTimeTestFunction, vanish):
        self.field = field
        t = field.t_axis
        H, dH = phi.time.value(t), phi.time.deriv(t)
        live, (lo, hi) = (H != 0) | (dH != 0), phi.time.support
        if live[(t < lo) | (t > hi)].any():
            raise ValueError("time: the factor is nonzero at a node outside its stated support")
        box = _support_box(field, phi.space)   # a support that is no box fails first
        _check_margin(field, phi, vanish)   # so a rejected phi costs no evaluation
        self.x, self.x_val, self.x_grad, self.x_lap, self.mesh = \
            _spatial_factors(field, phi.space, box)
        self.t = _halo_slice(live)
        self.h_val, self.h_dt = H[self.t], dH[self.t]
        self.wsp = field.spatial_weights(self.x)
        self.t_axis = t[self.t]
        self.wt = field.axis_weights()[1][self.t]

    def row_blocks(self) -> list:
        """The box's time rows, in blocks of about WINDOW_BLOCK nodes."""
        return _row_blocks(self.t.stop - self.t.start, self.wsp.size)

    def block(self, start: int, stop: int) -> GriddedField:
        """The samples of the box's time rows start..stop-1, copied once into
        contiguous memory (so that the component sums and the differences
        along each axis run on contiguous memory even when the samples are
        strided: a file with interleaved components reads back that way), as
        a GriddedField of the same spacings whose coordinates start at 0 (its
        h can differ from the global one in the last bit).

        The field's pages under the box are released (``fields.release_rows``,
        as ``fields.blocks`` releases its blocks) once ``u`` and every scalar
        are copied, not after each copy: the components of a binary body
        interleave in one mapping, so the next copy would fault the same
        pages in again."""
        f = self.field
        n = self.x[0].stop - self.x[0].start
        rows = (self.t.start + start, self.t.start + stop)
        arrays = [f.u, *f.scalars.values()]
        copies = [np.ascontiguousarray(a[(slice(*rows),) + self.x]) for a in arrays]
        for a in arrays:
            release_rows(a, *rows, *self.x)
        return GriddedField(f.d, 0.0, (n - 1) * f.h, n, (stop - start - 1) * f.dt, stop - start,
                            copies[0], dict(zip(f.scalars, copies[1:])))

    def contract(self, vals: np.ndarray) -> np.ndarray:
        """Spatial quadrature of vals per time row (vals has a leading time
        axis).  einsum gives each row the same bits however many rows come
        in together; tensordot (BLAS) does not."""
        space = list(range(1, 1 + self.wsp.ndim))
        return np.einsum(vals, [0] + space, self.wsp, space, [0])

    def quad(self, rows: np.ndarray, time: np.ndarray) -> float:
        """Time quadrature of rows * time over the box's time rows."""
        return float(np.sum(self.wt * time * rows))


def _pnorm(vals: np.ndarray, weights: np.ndarray, p):
    """The discrete L^p norm of vals (>= 0) over the last axis with the nodes'
    ``weights``: a float for a vector, a norm per row otherwise, 0 when empty.
    For 1 < p < inf the values are divided by their largest before the power,
    so the norm underflows (or overflows) only where that largest value does."""
    if vals.shape[-1] == 0:
        out = np.zeros(vals.shape[:-1])
    elif p == math.inf:
        out = np.max(vals, axis=-1)
    elif p == 1:
        out = np.sum(weights * vals, axis=-1)
    else:
        top = np.max(vals, axis=-1, keepdims=True)
        scaled = vals / np.where(top > 0, top, 1.0)
        out = top[..., 0] * np.sum(weights * scaled ** p, axis=-1) ** (1.0 / p)
    return float(out) if out.ndim == 0 else out


class _Cylinder(NamedTuple):
    """A cutoff's cylinder on a window: a mask of the open ball |x - c| < delta,
    the flat indices of the closed collar |x - c| <= 2*delta and its nodes'
    weights, and masks of the rows |t - t0| < delta**alpha and
    |t - t0| <= (2*delta)**alpha."""
    ball: np.ndarray
    collar: np.ndarray
    w_collar: np.ndarray
    inner: np.ndarray
    outer: np.ndarray


class _Pairing(NamedTuple):
    report: BalanceReport
    terminal: float
    window: _Window
    widths: dict
    cylinder: _Cylinder | None
    norms: dict


def _pairing(field: GriddedField, phi, pair: EntropyPair, nu: float = 0.0,
             vanish=("t0", "T", "x"), r=None) -> _Pairing:
    """The one test-function pairing behind every weak balance.

    ``phi`` is a SpaceTimeTestFunction or a CutoffPair (chi(x)*eta(t)); the
    stated supports of its factors must leave the two edge nodes free at each
    margin named in ``vanish`` (``_check_margin``: MarginError).  With
    eta = pair.eta_fn(f) and Q_k = pair.fluxes[k](f), f a block of the field,
    ``report`` (a BalanceReport) holds

        terms["I"]  = quadrature of eta * dphi/dt
        terms[k]    = quadrature of Q_k . grad(phi)      (one entry per flux)
        terms["IV"] = quadrature of nu * eta * lap(phi)  (nu > 0)
        weak_mass   = the sum of the terms
        time_nodes  = the number of time nodes where phi's time factor is nonzero
        grad_mass_cutoff   = quadrature of nu * |grad u|^2 * phi      (nu > 0)
        grad_mass_cylinder = nu * |grad u|^2 summed over the strict cylinder
                             |x - c| < delta, |t - t0| < delta**alpha (nu > 0)

    and ``terminal`` is the spatial quadrature of eta(., T) * phi(., T), all
    evaluated on the support window of phi (see ``_Window``), one block of
    time rows at a time.  The window is returned too; for a cutoff, so are
    its cylinder on the window (``_Cylinder``) and, when r is given,

        norms["u"] = per time row, the L^r norm of |u| over the collar
        norms["p"] = the same L^(r/2) norm of |p| (pressure flux)

    ``widths`` holds the component count of each flux (1 for a flux that
    broadcasts over every axis).  A pressure flux "III" needs "p" in
    ``field.scalars``, and nu must be finite and >= 0 (ValueError otherwise).
    """
    if not 0 <= nu < math.inf:
        raise ValueError(f"nu must be non-negative and finite, got {nu!r}")
    if "III" in pair.fluxes and "p" not in field.scalars:
        raise ValueError(f"pair {pair.label!r} has a pressure flux and needs a pressure field")
    cutoff = phi if isinstance(phi, CutoffPair) else None
    win = _Window(field, SpaceTimeTestFunction(phi.chi, phi.eta) if cutoff else phi, vanish)
    cyl = None
    if cutoff is not None:
        c, delta = cutoff.cylinder.center, cutoff.cylinder.delta
        offsets = win.mesh - np.array(c[:-1])
        collar = np.flatnonzero(squared_norm(offsets) <= scale_power(2 * delta, 2))
        dt = np.abs(win.t_axis - c[-1])
        cyl = _Cylinder(in_ball(offsets, open_ball(delta)), collar, np.take(win.wsp, collar),
                        dt < cutoff.eta.inner, dt <= cutoff.eta.outer)

        def on_collar(vals):   # per time row: a gather by flat index beats a 2-D mask
            return np.take(vals.reshape(len(vals), -1), collar, axis=1)
    parts, widths, terminal = {}, {}, 0.0
    blocks = win.row_blocks()
    for start, stop in blocks:
        f = win.block(start, stop)
        eta = pair.eta_fn(f)
        row = {"I": win.contract(eta * win.x_val)}
        if nu > 0:
            row["IV"] = win.contract(eta * win.x_lap)
        if stop == blocks[-1][1] and win.t.stop == field.nt:
            terminal = float(np.sum(win.wsp * eta[-1] * (win.x_val * win.h_val[-1])))
        # freed before the fluxes are formed: one block-sized array less at the peak
        del eta
        for name, flux in pair.fluxes.items():
            q = flux(f)
            widths[name] = q.shape[-1]
            row[name] = win.contract(component_dot(q, win.x_grad))
        if nu > 0:
            g2 = f.grad_squared()
            row["grad"] = win.contract(g2 * win.x_val)
            if cyl is not None:
                row["cylinder"] = win.contract(g2 * cyl.ball)
        if r is not None:
            row["u"] = _pnorm(on_collar(f.speed()), cyl.w_collar, r)
            if "III" in pair.fluxes:
                row["p"] = _pnorm(on_collar(np.abs(f.scalars["p"])), cyl.w_collar, r / 2)
        for name, vals in row.items():
            parts.setdefault(name, []).append(vals)
    rows = {name: np.concatenate(vals) for name, vals in parts.items()}
    terms = {"I": win.quad(rows.pop("I"), win.h_dt)}
    for name in pair.fluxes:
        terms[name] = win.quad(rows.pop(name), win.h_val)
    grad_cut = grad_cyl = None
    if nu > 0:
        terms["IV"] = nu * win.quad(rows.pop("IV"), win.h_val)
        grad_cut = nu * win.quad(rows.pop("grad"), win.h_val)
        if cyl is not None:
            grad_cyl = nu * win.quad(rows.pop("cylinder"), cyl.inner)
    report = BalanceReport(terms, sum(terms.values()), int(np.count_nonzero(win.h_val)),
                           grad_mass_cutoff=grad_cut, grad_mass_cylinder=grad_cyl)
    return _Pairing(report, terminal, win, widths, cyl, rows)


# ---------------------------------------------------------------------------
# Cutoff-tested cylinder masses.
# ---------------------------------------------------------------------------

@dataclass
class BalanceReport:
    """Terms and bounds from testing a balance with one cutoff pair;
    ``time_nodes`` counts the time nodes where the time factor (eta) is nonzero."""

    terms: dict
    weak_mass: float
    time_nodes: int
    holder_bound: float | None = None
    local_norms: dict = dc_field(default_factory=dict)
    grad_mass_cutoff: float | None = None
    grad_mass_cylinder: float | None = None


def pair_weak_mass(field: GriddedField, pair: EntropyPair, phi,
                   nu: float = 0.0) -> BalanceReport:
    """The balance tested with phi, a CutoffPair or a SpaceTimeTestFunction:
    terms I, the pair's flux terms and, for nu > 0, IV = nu * eta * lap(phi).

    The weak mass is the mass the dissipation assigns to phi; for a cutoff
    it upper-bounds the dissipation mass on the cylinder when the dissipation
    is non-negative (with nu > 0, that of the positive measure defect +
    nu*|grad u|^2).  With nu > 0 the report also carries the quadratures of
    nu*|grad u|^2 against phi and, for a cutoff, over the strict cylinder, the
    Morrey-type quantity bounded by delta**s.
    """
    return _pairing(field, phi, pair, nu).report


# ---------------------------------------------------------------------------
# Hoelder bounds with realized constants.
# ---------------------------------------------------------------------------

def _default_pair(field: GriddedField, pair: EntropyPair | None) -> EntropyPair:
    """``pair``, or if None the Euler energy pair with a pressure, else Burgers."""
    return pair or (EULER_ENERGY_PAIR if "p" in field.scalars else BURGERS_PAIR)


def dominated(weak_mass: float, bound: float) -> bool:
    """weak_mass <= bound up to DOMINANCE_TOL relative and 1e-300 absolute (a
    subnormal weak mass over a bound of 0.0 passes); False for NaN."""
    return weak_mass <= bound * (1 + DOMINANCE_TOL) + 1e-300


def holder_cylinder_bound(field: GriddedField, cutoff: CutoffPair, q, r,
                          pair: EntropyPair | None = None, nu: float = 0.0) -> BalanceReport:
    """Explicit Hoelder bound on the cutoff-tested balance, with dominance check.

    Computes the local mixed norms of |u| (and of p when the pair has a
    pressure flux III) on the 2*delta collar and assembles the term-by-term
    bound using the realized cutoff quadratures -- all Hoelder steps carry
    constant 1, so the weak mass is dominated by the bound as an exact
    discrete inequality, which is checked (VerificationError when it fails,
    and when the weak mass or the bound is not finite).
    Exponent bookkeeping per term:

        |I|   <= c_eta * ||u||^2_{LqLr} * ||chi||_{r/(r-2)} * ||eta'||_{q/(q-2)}
        |II|  <= c_Q   * ||u||^3_{LqLr} * ||g_II||_{r/(r-3)} * ||eta||_{q/(q-3)}
        |III| <=         ||p|| * ||u||  * ||g_III||_{r/(r-3)} * ||eta||_{q/(q-3)}
        |IV|  <= c_eta * nu * ||u||^2   * ||lap chi||_{r/(r-2)}  * ||eta||_{q/(q-2)}

    g_k is the vector the flux is paired with: |grad chi| for a flux with a
    component per axis (Euler's II and III, and every flux at d = 1), and
    |sum_i d_i chi| for a one-component flux at d >= 2, which stands for
    every component (Burgers' u_0^3/3), so that term II is Q * sum_i d_i chi;
    ``local_norms["sum_grad_chi"]`` records that norm.  The norms are taken
    on the window and the cylinder masks that the weak mass's pairing returns.
    """
    for name, value in (("q", q), ("r", r)):
        if not value >= 3:
            raise ValueError(f"{name} must satisfy {name} >= 3, got {value!r}")
    # a Fraction would turn every norm into object-dtype arithmetic
    try:
        q, r = float(q), float(r)
    except OverflowError:
        raise ValueError(f"q and r must fit a float64, got q={q!r}, r={r!r}") from None
    pair = _default_pair(field, pair)
    if pair.eta_quad_coeff is None or pair.q_cubic_coeff is None:
        raise ValueError(f"pair {pair.label!r} lacks the growth coefficients for a bound")
    res = _pairing(field, cutoff, pair, nu, r=r)
    win, cyl, report = res.window, res.cylinder, res.report
    w_t = win.wt[cyl.outer]

    # |.| because tapers can round to tiny negative values near their outer edge
    def space_norm(vals, k):   # L^(r/(r-k)) over the collar
        return _pnorm(np.take(np.abs(vals), cyl.collar), cyl.w_collar, _conj(r, k))

    def time_norm(vals, k):    # L^(q/(q-k)) over the outer time rows
        return _pnorm(np.abs(vals)[cyl.outer], w_t, _conj(q, k))

    u_norm = _pnorm(res.norms["u"][cyl.outer], w_t, q)
    n_gchi = space_norm(np.sqrt(np.sum(win.x_grad ** 2, axis=-1)), 3)
    norms = {"u_LqLr": u_norm, "chi": space_norm(win.x_val, 2), "grad_chi": n_gchi,
             "eta_t": time_norm(win.h_val, 3), "deta_t": time_norm(win.h_dt, 2)}
    # each flux term by the norm of the vector it is paired with: a flux of one
    # component at d >= 2 stands for every component, so it meets sum_i d_i chi
    n_flux = {name: n_gchi for name in pair.fluxes}
    for name, width in res.widths.items():
        if width == 1 < field.d:
            n_flux[name] = norms["sum_grad_chi"] = space_norm(np.sum(win.x_grad, axis=-1), 3)

    # u_norm**k as inf, not OverflowError, where it overflows
    u2, u3 = scale_power(u_norm, 2), scale_power(u_norm, 3)
    bound_terms = {
        "I": pair.eta_quad_coeff * u2 * norms["chi"] * norms["deta_t"],
        "II": pair.q_cubic_coeff * u3 * n_flux["II"] * norms["eta_t"],
    }
    if "III" in pair.fluxes:
        norms["p_Lq2Lr2"] = p_norm = _pnorm(res.norms["p"][cyl.outer], w_t, q / 2)
        bound_terms["III"] = p_norm * u_norm * n_flux["III"] * norms["eta_t"]
    if nu > 0:
        norms["lap_chi"] = space_norm(win.x_lap, 2)
        bound_terms["IV"] = (pair.eta_quad_coeff * nu * u2 * norms["lap_chi"]
                             * time_norm(win.h_val, 2))

    bound = sum(bound_terms.values())
    if not (math.isfinite(report.weak_mass) and math.isfinite(bound)):
        raise VerificationError(
            f"non-finite weak mass {report.weak_mass!r} or bound {bound!r}")
    if not dominated(report.weak_mass, bound):
        raise VerificationError(
            f"discrete dominance failed: weak_mass {report.weak_mass!r} > bound {bound!r}"
        )
    report.holder_bound, report.local_norms = bound, norms
    return report


# ---------------------------------------------------------------------------
# Balance extended to the terminal time.
# ---------------------------------------------------------------------------

def boundary_extended_mass(field: GriddedField, phi, pair: EntropyPair | None = None,
                           nu: float = 0.0):
    """Balance tested with phi allowed nonzero at t = T.

    Returns (interior, terminal, grad_mass), all from one window:

        interior  = quadrature of eta*dphi/dt + Q.grad(phi) + nu*eta*lap(phi)
        terminal  = quadrature of eta(., T) * phi(., T)
        grad_mass = quadrature of nu * |grad u|^2 * phi   (0.0 when nu = 0)

    For a smooth viscous field the identity
    ``interior = grad_mass + terminal`` holds up to quadrature and
    discretization error; the terminal term is the half-energy density paired
    with phi at the final time (the Dirac-in-time part of the extended
    dissipation).  The stated supports of phi must still leave the first 2
    time nodes and the 2 edge nodes of every spatial axis free (MarginError):
    the balance has no boundary-flux term.  ``pair`` None means Euler energy
    on a field with a pressure and Burgers otherwise (as in the Hoelder bound).
    """
    res = _pairing(field, phi, _default_pair(field, pair), nu, ("t0", "x"))
    return res.report.weak_mass, res.terminal, res.report.grad_mass_cutoff if nu > 0 else 0.0


# ---------------------------------------------------------------------------
# Signed-divergence covering estimate.
# ---------------------------------------------------------------------------

class SignedSupportReport(NamedTuple):
    bound_I: float
    bound_II: float
    pairing: float
    full_pairing: float
    v_norm_on_cover: float
    n_above_threshold: int


DEFAULT_DIV_THRESHOLD = 1e-8


def signed_support_bound(field: GriddedField, covering, phi, r,
                         threshold: float | None = None,
                         enforce_cover: bool = True) -> SignedSupportReport:
    """The two-piece covering estimate for a signed divergence pairing.

    V is the steady ``field`` at t = 0 (every time row must equal the first)
    on d >= 2 axes, a given ``threshold`` is finite and >= 0, and each
    (center, radius) ball of ``covering`` has d finite coordinates and a
    positive finite radius (ValueError otherwise).  Builds chi = max(0,
    chi_1, ..., chi_n) over the per-ball bumps (each 1 on its ball, supported
    on the doubled ball), and takes grad chi from the first of 0, chi_1, ...,
    chi_n that attains that max: 0 where no bump is positive, even where a
    bump's value rounds to 0 beside a nonzero gradient.  It returns

        bound_I  = |quadrature of (V . grad phi) chi|
        bound_II = |quadrature of (V . grad chi) phi|
        pairing  = |quadrature of V . grad(chi phi)|   (<= bound_I + bound_II)

    plus the chi-free divergence pairing |quadrature of V . grad phi| and the
    L^r norm of |V| over the covering's support.  When the balls cover every
    cell where the finite-difference divergence exceeds the threshold, small
    bound_I + bound_II certifies that the divergence pairing is small; fields
    whose divergence density cannot be covered (``enforce_cover=False`` to
    probe them) keep a non-vanishing full pairing no matter how small the
    balls are.
    """
    d = field.d
    if d < 2:
        raise ValueError(f"the covering estimate needs d >= 2, got a d = {d} field")
    if not r >= d / (d - 1):
        raise ValueError(f"r must satisfy r >= d/(d-1), got {r!r}")
    if threshold is not None and not 0 <= threshold < math.inf:
        raise ValueError(f"threshold must be finite and >= 0, got {threshold!r}")
    if not covering:
        raise ValueError("need at least one covering ball")
    v = field.u[0]
    if any(not np.array_equal(row, v) for row in field.u[1:]):
        raise ValueError("need a steady field: every time row must equal the first")
    bumps = []
    for c, rad in covering:
        c, rad = np.asarray(c, dtype=float), float(rad)
        if not (c.shape == (d,) and np.all(np.isfinite(c)) and 0 < rad < math.inf):
            raise ValueError(f"a covering ball needs {d} finite center coordinates and a "
                             f"positive finite radius, got {c!r}, {rad!r}")
        bumps.append(SpatialBump(tuple(c), rad))
    div = sum(np.gradient(v[..., i], field.h, axis=i) for i in range(d))
    thr = threshold if threshold is not None else DEFAULT_DIV_THRESHOLD * float(np.abs(div).max())
    above = np.abs(div) > thr
    del div

    # phi and each bump evaluated once, on its support box; every term carries
    # phi or grad phi, so chi and grad chi live on phi's window only
    win, phi_vals, phi_grad, _, _ = _spatial_factors(field, phi, _support_box(field, phi))
    chi, grad_chi = np.zeros(phi_vals.shape), np.zeros(phi_grad.shape)
    covered, support = np.zeros_like(above), np.zeros_like(above)
    for b in bumps:
        box, vals, grad, _, nodes = _spatial_factors(field, b, _support_box(field, b))
        covered[box] |= in_ball(nodes - b.center, open_ball(b.delta))
        support[box] |= vals > 0
        both = [(max(p.start, q.start), min(p.stop, q.stop)) for p, q in zip(box, win)]
        if any(i >= j for i, j in both):
            continue   # the bump vanishes on phi's window
        on_b, on_w = (tuple(slice(i - s.start, j - s.start) for (i, j), s in zip(both, ref))
                      for ref in (box, win))
        chi_w, grad_w, vals = chi[on_w], grad_chi[on_w], vals[on_b]
        higher = vals > chi_w   # strict: 0, then the earlier ball, keeps a tie
        chi_w[higher], grad_w[higher] = vals[higher], grad[on_b][higher]
    missing = int(np.count_nonzero(above & ~covered)) if enforce_cover else 0
    if missing:
        raise CoverageError(f"{missing} above-threshold cells escape the covering")

    w, v_win = field.spatial_weights(win), v[win]
    w_gphi = w * component_dot(v_win, phi_grad)               # w V . grad phi
    w_gchi = w * component_dot(v_win, grad_chi) * phi_vals    # w (V . grad chi) phi
    bound_i = abs(float(np.sum(w_gphi * chi)))
    bound_ii = abs(float(np.sum(w_gchi)))
    pairing = abs(float(np.sum(w_gphi * chi + w_gchi)))
    full_pairing = abs(float(np.sum(w_gphi)))
    if not pairing <= bound_i + bound_ii + DOMINANCE_TOL * (1 + bound_i + bound_ii):
        raise VerificationError("triangle inequality failed in the covering estimate")
    # the window's arrays go first, so that the norm's do not add to them at the peak
    del chi, grad_chi, phi_vals, phi_grad, w_gphi, w_gchi
    nodes, wx = np.nonzero(support), field.axis_weights()[0]   # no whole-grid weights
    v_norm = _pnorm(np.sqrt(np.sum(v[nodes] ** 2, axis=-1)),
                    functools.reduce(np.multiply, [wx[i] for i in nodes]), r)
    return SignedSupportReport(bound_i, bound_ii, pairing, full_pairing, v_norm,
                               int(np.count_nonzero(above)))
