"""Weak-form energy/entropy balances tested against cutoffs on gridded fields.

Every pairing below is one trapezoid quadrature over the field's nodes,
made by the kernel ``_pairing``; cutoff and test-function derivatives are
analytic, field derivatives (only ever needed for the viscous gradient
density) are centered differences.  The kernel evaluates the field only on
the index box of the test function's support, plus a one-node halo, and
gives each node of the box its global quadrature weight.

Dissipation is accessed exclusively through test functions: testing the
balance with a cutoff pair localizing a cylinder gives an upper estimate of
the dissipation mass on that cylinder whenever the dissipation is
non-negative.  The gap between the estimate and the true cylinder mass
is the mass in the cutoff collar (radius delta to 2*delta).

The Hoelder bounds are computed with the same discrete weights as the weak
masses, so the dominance ``weak_mass <= holder_bound`` is an exact discrete
inequality: every hidden constant is instantiated, the norm factors carry
constant exactly 1, and the cutoff factors enter through their realized
quadratures.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, NamedTuple

import numpy as np

from .cutoffs import CutoffPair, SpatialBump, SpaceTimeTestFunction
from .errors import VerificationError
from .fields import GriddedField, SpatialVectorField

__all__ = [
    "MarginError",
    "CoverageError",
    "EntropyPair",
    "BalanceReport",
    "SignedSupportReport",
    "BURGERS_PAIR",
    "EULER_ENERGY_PAIR",
    "passive_scalar_pair",
    "entropy_production",
    "pair_weak_mass",
    "euler_weak_mass",
    "ns_weak_mass",
    "holder_cylinder_bound",
    "boundary_extended_mass",
    "grad_squared_pairing",
    "signed_support_bound",
]

DOMINANCE_TOL = 1e-9
SUPPORT_TOL = 1e-12


class MarginError(ValueError):
    """Cutoff or test-function support escapes the required grid margin."""


class CoverageError(ValueError):
    """A covering fails to contain the above-threshold divergence cells."""


@dataclass(frozen=True)
class EntropyPair:
    """A conserved density and its flux for a scalar/velocity model.

    ``eta_fn(u, p, theta)`` returns the density per node; ``fluxes`` maps a
    term name to a flux function of the same arguments (trailing component
    axis), and the flux is their sum.  Each flux gives one balance term, in
    the dict's order: "II" is the velocity flux and "III", when present, the
    pressure flux u*p.  The growth coefficients certify pointwise bounds
    |eta| <= eta_quad_coeff*|u|^2 and |Q_II| <= q_cubic_coeff*|u|^3 used when
    instantiating Hoelder bounds; pairs without velocity-cubic structure
    leave them None and are rejected by the bound evaluator.
    """

    label: str
    eta_fn: Callable
    fluxes: dict
    eta_quad_coeff: float | None = None
    q_cubic_coeff: float | None = None


def _burgers_eta(u, p, theta):
    return 0.5 * u[..., 0] ** 2


def _burgers_q(u, p, theta):
    return (u[..., 0] ** 3 / 3.0)[..., None]


BURGERS_PAIR = EntropyPair("burgers", _burgers_eta, {"II": _burgers_q},
                           eta_quad_coeff=0.5, q_cubic_coeff=1.0 / 3.0)


def passive_scalar_pair() -> EntropyPair:
    """Density theta^2/2 transported by the velocity field."""

    def eta(u, p, theta):
        if theta is None:
            raise ValueError("the passive-scalar pair needs a field with scalar samples")
        return 0.5 * theta ** 2

    def q(u, p, theta):
        if theta is None:
            raise ValueError("the passive-scalar pair needs a field with scalar samples")
        return u * (0.5 * theta ** 2)[..., None]

    return EntropyPair("passive_scalar", eta, {"II": q})


# the Euler energy flux (|u|^2/2 + p) u, split into its cubic velocity part
# and its pressure part
EULER_ENERGY_PAIR = EntropyPair(
    "euler_energy", lambda u, p, theta: 0.5 * np.sum(u ** 2, axis=-1),
    {"II": lambda u, p, theta: u * (0.5 * np.sum(u ** 2, axis=-1))[..., None],
     "III": lambda u, p, theta: u * p[..., None]},
    eta_quad_coeff=0.5, q_cubic_coeff=0.5)


# ---------------------------------------------------------------------------
# The pairing kernel.
# ---------------------------------------------------------------------------

def _contract_space(vals: np.ndarray, weighted: np.ndarray, d: int) -> np.ndarray:
    """Sum vals * weighted over the spatial axes; vals has a leading time axis."""
    return np.tensordot(vals, weighted, axes=(tuple(range(1, 1 + d)), tuple(range(d))))


def _halo_slice(mask: np.ndarray) -> slice:
    """Index range of the True entries widened by one node on each side
    (clipped to the axis); the whole axis when no entry is True."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return slice(0, mask.size)
    return slice(max(int(idx[0]) - 1, 0), min(int(idx[-1]) + 2, mask.size))


def _equal_lengths(slices: tuple, n: int) -> tuple:
    """Widen index ranges on axes of length n to the length of the longest one."""
    length = max(s.stop - s.start for s in slices)
    starts = [min(s.start, n - length) for s in slices]
    return tuple(slice(i, i + length) for i in starts)


def _check_vanishing(time_vals: np.ndarray, space_vals: np.ndarray, d: int, vanish) -> None:
    """Raise MarginError unless phi vanishes on the 2-cell margins named in
    ``vanish`` ("t0", "T", "x").  ``time_vals`` has time on axis 0 and
    ``space_vals`` its spatial axes last: the two factors of a separable phi,
    or a sampled phi twice."""
    t_scale = max(float(np.abs(time_vals).max()), SUPPORT_TOL)
    x_scale = max(float(np.abs(space_vals).max()), SUPPORT_TOL)
    if "t0" in vanish and np.abs(time_vals[:2]).max() > SUPPORT_TOL * t_scale:
        raise MarginError("test function does not vanish on the first 2 time cells")
    if "T" in vanish and np.abs(time_vals[-2:]).max() > SUPPORT_TOL * t_scale:
        raise MarginError("test function does not vanish on the last 2 time cells")
    if "x" in vanish:
        for axis in range(space_vals.ndim - d, space_vals.ndim):
            edge = np.take(space_vals, [0, 1, -2, -1], axis=axis)
            if np.abs(edge).max() > SUPPORT_TOL * x_scale:
                raise MarginError("test function does not vanish on a 2-cell spatial margin")


class _Window:
    """A test function phi and the field samples on the index box of phi's support.

    For a SpaceTimeTestFunction the box is the smallest index box holding
    every node where a factor of phi or one of its derivatives is nonzero,
    widened by a one-node halo and then to equal spatial sides; a sampled phi
    (space-time array, centered difference derivatives) takes the whole grid.
    The halo makes centered differences on the box equal to the global ones
    wherever phi is nonzero, and it holds the support's boundary nodes, where
    the Hoelder masks are closed.  Nodes keep their global trapezoid weights,
    so a quadrature over the box is the full-grid quadrature summed in
    another order.  ``local`` holds the box's samples as a GriddedField of
    the same spacings whose coordinates start at 0 (its h can differ from
    the global one in the last bit); the window's own ``mesh`` and
    ``t_axis`` carry the global coordinates.

    phi = h_val * x_val, dphi/dt = h_dt * x_dt, grad phi = h_val * x_grad and
    lap phi = h_val * x_lap: the h_* are time vectors on the box, the x_*
    spatial arrays with a leading time axis (of length 1 when phi is
    separable).
    """

    def __init__(self, field: GriddedField, phi, vanish=("t0", "T", "x")):
        d = field.d
        self.d = d
        mesh = field.spatial_mesh()
        if isinstance(phi, SpaceTimeTestFunction):
            t = field.t_axis
            X, grad = phi.space.value(mesh), phi.space.gradient(mesh)
            lap = phi.space.laplacian(mesh)
            H, dH = phi.time.value(t), phi.time.deriv(t)
            _check_vanishing(H, X, d, vanish)
            nonzero = (X != 0) | np.any(grad != 0, axis=-1) | (lap != 0)
            self.t = _halo_slice((H != 0) | (dH != 0))
            self.x = _equal_lengths(
                tuple(_halo_slice(nonzero.any(axis=tuple(j for j in range(d) if j != i)))
                      for i in range(d)), field.nx)
            self.h_val, self.h_dt = H[self.t], dH[self.t]
            self.x_val, self.x_grad, self.x_lap = (arr[self.x][None] for arr in (X, grad, lap))
            self.x_dt = self.x_val
        else:
            phi = np.asarray(phi, dtype=float)
            if phi.shape != (field.nt,) + (field.nx,) * d:
                raise ValueError(f"sampled phi has shape {phi.shape}, expected field scalar shape")
            _check_vanishing(phi, phi, d, vanish)
            self.t, self.x = slice(0, field.nt), (slice(0, field.nx),) * d
            self.h_val = self.h_dt = np.ones(field.nt)
            self.x_val = phi
            self.x_dt = np.gradient(phi, field.dt, axis=0)
            grads = [np.gradient(phi, field.h, axis=1 + i) for i in range(d)]
            self.x_grad = np.stack(grads, axis=-1)
            self.x_lap = sum(np.gradient(g, field.h, axis=1 + i) for i, g in enumerate(grads))
        box = (self.t,) + self.x
        self.mesh = mesh[self.x]
        self.t_axis = field.t_axis[self.t]
        self.wsp = field.spatial_weights()[self.x]
        self.wt = field.axis_weights()[1][self.t]
        n, nt = self.x[0].stop - self.x[0].start, self.t.stop - self.t.start
        self.local = GriddedField(
            d, 0.0, (n - 1) * field.h, n, (nt - 1) * field.dt, nt, field.u[box],
            None if field.p is None else field.p[box],
            None if field.theta is None else field.theta[box])

    def quad(self, vals: np.ndarray, time: np.ndarray) -> float:
        """Space-time quadrature of vals * time over the box."""
        return float(np.sum(self.wt * time * _contract_space(vals, self.wsp, self.d)))

    @functools.cached_property
    def grad_squared(self) -> np.ndarray:
        return self.local.grad_squared()

    def grad_mass(self, nu: float) -> float:
        """Quadrature of nu * |grad u|^2 * phi."""
        return nu * self.quad(self.grad_squared * self.x_val, self.h_val)


class _Pairing(NamedTuple):
    terms: dict
    terminal: float
    window: _Window


def _pairing(field: GriddedField, phi, pair: EntropyPair, nu: float = 0.0,
             vanish=("t0", "T", "x")) -> _Pairing:
    """The one test-function pairing behind every weak balance.

    With eta = pair.eta_fn(u, p, theta) and Q_k = pair.fluxes[k](u, p, theta):

        terms["I"] = quadrature of eta * dphi/dt
        terms[k]   = quadrature of Q_k . grad(phi)      (one entry per flux)
        terms["IV"] = quadrature of nu * eta * lap(phi)  (nu > 0)
        terminal   = spatial quadrature of eta(., T) * phi(., T)

    all evaluated on the support window of phi (see ``_Window``), which is
    returned too: ``window.grad_mass(nu)`` is the quadrature of
    nu * |grad u|^2 * phi.
    """
    win = _Window(field, phi, vanish)
    f = win.local
    eta = pair.eta_fn(f.u, f.p, f.theta)
    terms = {"I": win.quad(eta * win.x_dt, win.h_dt)}
    for name, flux in pair.fluxes.items():
        q = flux(f.u, f.p, f.theta)
        terms[name] = win.quad(np.einsum("...i,...i->...", q, win.x_grad), win.h_val)
    if nu > 0:
        terms["IV"] = nu * win.quad(eta * win.x_lap, win.h_val)
    terminal = 0.0
    if win.t.stop == field.nt:
        terminal = float(np.sum(win.wsp * eta[-1] * (win.x_val[-1] * win.h_val[-1])))
    return _Pairing(terms, terminal, win)


def _check_cutoff_margin(field: GriddedField, cutoff: CutoffPair) -> None:
    two_delta = 2 * cutoff.delta
    for c in cutoff.center.x:
        if c - two_delta < field.a + 2 * field.h - 1e-12 or \
           c + two_delta > field.b - 2 * field.h + 1e-12:
            raise MarginError("cylinder collar reaches within 2 cells of the spatial boundary")
    outer = cutoff.eta.outer
    if cutoff.center.t - outer < 2 * field.dt - 1e-12:
        raise MarginError("support reaches within 2 cells of t = 0")
    if cutoff.center.t + outer > field.T - 2 * field.dt + 1e-12:
        raise MarginError("support reaches within 2 cells of t = T")


# ---------------------------------------------------------------------------
# Entropy production pairing.
# ---------------------------------------------------------------------------

def entropy_production(field: GriddedField, pair: EntropyPair, phi) -> float:
    """The space-time pairing of -div(eta, Q) with a compactly supported phi.

    Quadrature of eta * dphi/dt + Q . grad(phi); this equals the mass the
    dissipation distribution assigns to phi for entropy solutions, vanishes
    on smooth exact solutions, and must be >= -tolerance when phi >= 0 and
    the dissipation is non-negative.
    """
    return sum(_pairing(field, phi, pair).terms.values())


# ---------------------------------------------------------------------------
# Cutoff-tested cylinder masses.
# ---------------------------------------------------------------------------

@dataclass
class BalanceReport:
    """Terms and bounds from testing a balance with one cutoff pair."""

    center: tuple
    t_center: float
    delta: float
    alpha: float
    terms: dict
    weak_mass: float
    holder_bound: float | None = None
    local_norms: dict = dc_field(default_factory=dict)
    constants: dict = dc_field(default_factory=dict)
    grad_mass_cutoff: float | None = None
    grad_mass_cylinder: float | None = None
    q: object = None
    r: object = None
    nu: float | None = None
    pair_label: str = ""


def _cutoff_report(field: GriddedField, cutoff: CutoffPair, pair: EntropyPair, nu: float):
    """Test the balance with chi(x)*eta(t); returns the report and the window.

    With nu > 0 the report also carries nu*|grad u|^2 paired with the cutoff
    and summed over the strict cylinder |x - c| < delta, |t - t0| < delta**alpha.
    """
    _check_cutoff_margin(field, cutoff)
    res = _pairing(field, SpaceTimeTestFunction(cutoff.chi, cutoff.eta), pair, nu)
    win = res.window
    grad_cut = grad_cyl = None
    if nu > 0:
        r2 = np.sum((win.mesh - np.asarray(cutoff.center.x)) ** 2, axis=-1)
        inside_t = np.abs(win.t_axis - cutoff.center.t) < cutoff.delta ** cutoff.alpha
        grad_cut = win.grad_mass(nu)
        grad_cyl = nu * win.quad(win.grad_squared * (r2 < cutoff.delta ** 2), inside_t)
    report = BalanceReport(
        center=cutoff.center.x, t_center=cutoff.center.t, delta=cutoff.delta,
        alpha=cutoff.alpha, terms=res.terms, weak_mass=sum(res.terms.values()),
        constants=cutoff.constants, grad_mass_cutoff=grad_cut, grad_mass_cylinder=grad_cyl,
        nu=nu if nu > 0 else None, pair_label=pair.label,
    )
    return report, win


def pair_weak_mass(field: GriddedField, pair: EntropyPair, cutoff: CutoffPair) -> BalanceReport:
    """Cutoff-tested entropy balance: upper estimate of the dissipation mass
    on the cutoff's cylinder for non-negative dissipation."""
    return _cutoff_report(field, cutoff, pair, 0.0)[0]


def euler_weak_mass(field: GriddedField, cutoff: CutoffPair) -> BalanceReport:
    """Energy balance of an inviscid velocity/pressure field tested with a cutoff.

    weak_mass = I + II + III with I the time-cutoff term against |u|^2/2,
    II the cubic transport term, III the pressure flux term.
    """
    if field.p is None:
        raise ValueError("euler_weak_mass requires a pressure field")
    return _cutoff_report(field, cutoff, EULER_ENERGY_PAIR, 0.0)[0]


def ns_weak_mass(field: GriddedField, cutoff: CutoffPair, nu: float) -> BalanceReport:
    """Viscous energy balance tested with a cutoff: terms I-IV.

    The weak mass upper-bounds the cylinder mass of the positive measure
    (defect + nu*|grad u|^2); the report also carries the direct quadratures
    of nu*|grad u|^2, against the cutoff and over the strict cylinder, the
    latter being the Morrey-type quantity bounded by delta**s.
    """
    if field.p is None:
        raise ValueError("ns_weak_mass requires a pressure field")
    if not nu > 0:
        raise ValueError(f"nu must be positive, got {nu!r}")
    return _cutoff_report(field, cutoff, EULER_ENERGY_PAIR, nu)[0]


# ---------------------------------------------------------------------------
# Hoelder bounds with realized constants.
# ---------------------------------------------------------------------------

def _ratio(p, k):
    """p/(p-k) with the conventions p=inf -> 1 and p=k -> inf."""
    if p == math.inf:
        return 1.0
    if p == k:
        return math.inf
    return p / (p - k)


def _weighted_pnorm(vals: np.ndarray, weights: np.ndarray, p) -> float:
    if vals.size == 0:
        return 0.0
    if p == math.inf:
        return float(np.max(vals))
    return float(np.sum(weights * vals ** p) ** (1.0 / p))


def _mixed_norm(win: _Window, vals: np.ndarray, q, r,
                smask: np.ndarray, tmask: np.ndarray) -> float:
    """Discrete L^q_t L^r_x norm of |vals| over the masked part of a window."""
    flat = vals.reshape(vals.shape[0], -1)[:, smask.ravel()]
    w = win.wsp.ravel()[smask.ravel()]
    if r == math.inf:
        g = np.max(flat, axis=1) if flat.shape[1] else np.zeros(vals.shape[0])
    else:
        g = np.sum(w * flat ** r, axis=1) ** (1.0 / r)
    return _weighted_pnorm(g[tmask], win.wt[tmask], q)


def holder_cylinder_bound(field: GriddedField, cutoff: CutoffPair, q, r,
                          pair: EntropyPair | None = None, nu: float = 0.0) -> BalanceReport:
    """Explicit Hoelder bound on the cutoff-tested balance, with dominance check.

    Computes the local mixed norms of |u| (and of p when the pair has a
    pressure flux III) on the 2*delta collar and assembles the term-by-term
    bound using the realized cutoff quadratures -- all Hoelder steps carry
    constant 1, so the weak mass is dominated by the bound as an exact
    discrete inequality, which is checked (VerificationError when it fails).
    Exponent bookkeeping per term:

        |I|   <= c_eta * ||u||^2_{LqLr} * ||chi||_{r/(r-2)} * ||eta'||_{q/(q-2)}
        |II|  <= c_Q   * ||u||^3_{LqLr} * ||grad chi||_{r/(r-3)} * ||eta||_{q/(q-3)}
        |III| <=         ||p|| * ||u||  * ||grad chi||_{r/(r-3)} * ||eta||_{q/(q-3)}
        |IV|  <= c_eta * nu * ||u||^2   * ||lap chi||_{r/(r-2)}  * ||eta||_{q/(q-2)}

    The norms are masked reductions over the same window as the weak mass.
    """
    for name, value in (("q", q), ("r", r)):
        if value < 3:
            raise ValueError(f"{name} must satisfy {name} >= 3, got {value!r}")
    if pair is None:
        pair = EULER_ENERGY_PAIR if field.p is not None else BURGERS_PAIR
    if pair.eta_quad_coeff is None or pair.q_cubic_coeff is None:
        raise ValueError(f"pair {pair.label!r} lacks the growth coefficients for a bound")
    if "III" in pair.fluxes and field.p is None:
        raise ValueError("euler-mode bound requires a pressure field")
    report, win = _cutoff_report(field, cutoff, pair, nu)

    r2 = np.sum((win.mesh - np.asarray(cutoff.center.x)) ** 2, axis=-1)
    smask = r2 <= (2 * cutoff.delta) ** 2
    tmask = np.abs(win.t_axis - cutoff.center.t) <= cutoff.eta.outer
    u_norm = _mixed_norm(win, win.local.speed(), q, r, smask, tmask)

    w_s = win.wsp[smask]
    w_t = win.wt[tmask]
    # tapers can round to tiny negative values near their outer edge
    chi, eta_t = np.abs(win.x_val[0])[smask], np.abs(win.h_val)[tmask]
    n_chi = _weighted_pnorm(chi, w_s, _ratio(r, 2))
    gmag = np.sqrt(np.sum(win.x_grad[0] ** 2, axis=-1))
    n_gchi = _weighted_pnorm(gmag[smask], w_s, _ratio(r, 3))
    n_eta = _weighted_pnorm(eta_t, w_t, _ratio(q, 3))
    n_deta = _weighted_pnorm(np.abs(win.h_dt)[tmask], w_t, _ratio(q, 2))

    bound_terms = {
        "I": pair.eta_quad_coeff * u_norm ** 2 * n_chi * n_deta,
        "II": pair.q_cubic_coeff * u_norm ** 3 * n_gchi * n_eta,
    }
    norms = {"u_LqLr": u_norm, "chi": n_chi, "grad_chi": n_gchi,
             "eta_t": n_eta, "deta_t": n_deta}
    if "III" in pair.fluxes:
        p_norm = _mixed_norm(win, np.abs(win.local.p),
                             q / 2, r / 2, smask, tmask)
        bound_terms["III"] = p_norm * u_norm * n_gchi * n_eta
        norms["p_Lq2Lr2"] = p_norm
    if nu > 0:
        n_lchi = _weighted_pnorm(np.abs(win.x_lap[0])[smask], w_s, _ratio(r, 2))
        n_eta2 = _weighted_pnorm(eta_t, w_t, _ratio(q, 2))
        bound_terms["IV"] = pair.eta_quad_coeff * nu * u_norm ** 2 * n_lchi * n_eta2
        norms["lap_chi"] = n_lchi

    bound = sum(bound_terms.values())
    if report.weak_mass > bound * (1 + DOMINANCE_TOL) + 1e-300:
        raise VerificationError(
            f"discrete dominance failed: weak_mass {report.weak_mass!r} > bound {bound!r}"
        )
    report.holder_bound, report.local_norms, report.q, report.r = bound, norms, q, r
    return report


# ---------------------------------------------------------------------------
# Balance extended to the terminal time.
# ---------------------------------------------------------------------------

def boundary_extended_mass(field: GriddedField, phi, pair: EntropyPair | None = None,
                           nu: float = 0.0, allow_spatial_boundary: bool = False):
    """Balance tested with phi allowed nonzero at t = T (and, by flag, on the
    spatial boundary).

    Returns (interior, terminal):

        interior = quadrature of eta*dphi/dt + Q.grad(phi) + nu*eta*lap(phi)
        terminal = quadrature of eta(., T) * phi(., T)

    For a smooth viscous field the identity
    ``interior = <nu |grad u|^2, phi> + terminal`` holds up to quadrature and
    discretization error; the terminal term is the half-energy density paired
    with phi at the final time (the Dirac-in-time part of the extended
    dissipation).  phi must still vanish near t = 0.
    """
    if pair is None:
        if field.p is None:
            raise ValueError("no pressure present: pass an explicit entropy pair")
        pair = EULER_ENERGY_PAIR
    vanish = ("t0",) if allow_spatial_boundary else ("t0", "x")
    res = _pairing(field, phi, pair, nu, vanish)
    return sum(res.terms.values()), res.terminal


def grad_squared_pairing(field: GriddedField, phi, nu: float) -> float:
    """Quadrature of nu * |grad u|^2 against a test function."""
    return _Window(field, phi, vanish=()).grad_mass(nu)


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


def signed_support_bound(v_field: SpatialVectorField, covering, phi, r,
                         threshold: float | None = None,
                         enforce_cover: bool = True) -> SignedSupportReport:
    """The two-piece covering estimate for a signed divergence pairing.

    Builds chi = max of per-ball bumps (each 1 on its ball, supported on the
    doubled ball) and returns

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
    d = v_field.d
    if r < d / (d - 1):
        raise ValueError(f"r must satisfy r >= d/(d-1), got {r!r}")
    if not covering:
        raise ValueError("need at least one covering ball")
    mesh = v_field.spatial_mesh()
    div = v_field.divergence()
    thr = threshold if threshold is not None else DEFAULT_DIV_THRESHOLD * float(np.abs(div).max())

    centers = [np.asarray(c, dtype=float) for c, _ in covering]
    radii = [float(rad) for _, rad in covering]
    above = np.abs(div) > thr
    n_above = int(above.sum())
    if enforce_cover and n_above:
        covered = np.zeros_like(above)
        for c, rad in zip(centers, radii):
            covered |= np.sum((mesh - c) ** 2, axis=-1) < rad ** 2
        missing = above & ~covered
        if missing.any():
            raise CoverageError(
                f"{int(missing.sum())} above-threshold cells escape the covering"
            )

    bumps = [SpatialBump(tuple(c), rad) for c, rad in zip(centers, radii)]
    vals = np.stack([b.value(mesh) for b in bumps])
    chi = vals.max(axis=0)
    winner = vals.argmax(axis=0)
    grad_chi = np.zeros(mesh.shape)
    for i, b in enumerate(bumps):
        mask = winner == i
        if mask.any():
            grad_chi[mask] = b.gradient(mesh[mask])

    w = v_field.spatial_weights()
    phi_vals = phi.value(mesh)
    phi_grad = phi.gradient(mesh)
    v = v_field.values
    v_dot_gphi = np.einsum("...i,...i->...", v, phi_grad)
    v_dot_gchi = np.einsum("...i,...i->...", v, grad_chi)
    bound_i = abs(float(np.sum(w * v_dot_gphi * chi)))
    bound_ii = abs(float(np.sum(w * v_dot_gchi * phi_vals)))
    pairing = abs(float(np.sum(w * (v_dot_gphi * chi + v_dot_gchi * phi_vals))))
    full_pairing = abs(float(np.sum(w * v_dot_gphi)))
    if pairing > bound_i + bound_ii + DOMINANCE_TOL * (1 + bound_i + bound_ii):
        raise VerificationError("triangle inequality failed in the covering estimate")

    support = chi > 0
    vmag = np.sqrt(np.sum(v ** 2, axis=-1))
    v_norm = _weighted_pnorm(vmag[support], w[support], r)
    return SignedSupportReport(bound_i, bound_ii, pairing, full_pairing, v_norm, n_above)
