"""Analytic and semi-analytic fixtures: power-law divergence fields, Burgers
shock/rarefaction entropy solutions, a viscous Burgers solver, planar shear
flows (one fixture, ``decaying_shear_field``, whose nu = 0 case is the steady
inviscid shear), and reference measures with known dimension.

The inviscid Burgers sampler stores exact cell averages of the entropy
solution (conservative sampling); the viscous solver is a first-order
conservative finite-volume scheme (explicit local Lax-Friedrichs flux, then
an implicit backward-Euler diffusion step solved by FFT, so only the
advective CFL rule bounds the substep).  Robustness beats accuracy here: the
solver's role is to produce vanishing-viscosity dissipation measures whose
totals are checked against the shock entropy-production rate by
extrapolation in nu.  A cell atom of its measure holds the dissipation of the
substeps whose midpoints fall in its time cell.  A non-finite state raises
``NumericalError`` (defined in ``errors``, beside the other exit-3 error).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field as dc_field

import numpy as np

from .aniso_measure import AtomicMeasure, scale_power, squared_norm
from .errors import NumericalError
from .fields import GriddedField, _SpaceTimeGrid

__all__ = [
    "PowerLawField",
    "RiemannDatum",
    "ViscousRun",
    "power_law_ball_mass",
    "power_law_vector_field",
    "burgers_entropy_solution",
    "burgers_smooth_solution",
    "burgers_dissipation_measure",
    "viscous_burgers_run",
    "viscous_profile",
    "time_singular_measure_fixture",
    "grid_measure",
    "decaying_shear_field",
    "constant_field",
]


# ---------------------------------------------------------------------------
# Power-law divergence field (x |x|^(eps - d)).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerLawField:
    """V(x) = x |x|^(eps-d): integrable divergence eps/|x|^(d-eps), ball
    masses growing exactly like a power of the radius."""

    d: int
    eps: float

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d < 2:
            raise ValueError(f"need integer d >= 2, got {self.d!r}")
        if not 0 < self.eps < self.d:
            raise ValueError(f"eps must lie in (0, d), got {self.eps!r}")

    @property
    def c_d(self) -> float:
        """Surface measure of the unit sphere (2*pi for d=2, 4*pi for d=3)."""
        return 2.0 * math.pi ** (self.d / 2.0) / math.gamma(self.d / 2.0)

    def value(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        rho = np.sqrt(squared_norm(x))
        safe = np.where(rho == 0, 1.0, rho)
        return x * np.where(rho == 0, 0.0, safe ** (self.eps - self.d))[..., None]

    def divergence(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        rho = np.sqrt(squared_norm(x))
        safe = np.where(rho == 0, 1.0, rho)
        return np.where(rho == 0, np.inf, self.eps * safe ** (self.eps - self.d))


def power_law_ball_mass(field: PowerLawField, delta: float) -> float:
    """Mass the divergence assigns to the ball of radius delta about the origin.

    Radial reduction: c_d * int_0^delta eps * rho**(eps-1) drho = c_d * delta**eps.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    return field.c_d * scale_power(delta, field.eps)


def power_law_vector_field(field: PowerLawField, a: float, b: float, nx: int) -> GriddedField:
    """The power-law field as a steady GriddedField (nt = 2, T = 1, both rows
    one array); use an even nx so no node hits 0."""
    v = field.value(_SpaceTimeGrid(field.d, a, b, nx, 1.0, 2).spatial_mesh())
    return GriddedField(field.d, a, b, nx, 1.0, 2, np.broadcast_to(v, (2,) + v.shape))


# ---------------------------------------------------------------------------
# Inviscid Burgers entropy solutions.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RiemannDatum:
    u_l: float
    u_r: float
    x0: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.u_l, self.u_r, self.x0)):
            raise ValueError(f"datum must be finite, got {self!r}")
        if self.u_l == self.u_r:
            raise ValueError("degenerate datum: u_l must differ from u_r")

    @property
    def is_shock(self) -> bool:
        return self.u_l > self.u_r

    @property
    def shock_speed(self) -> float:
        """(u_l + u_r) / 2, formed from the halves so that it cannot overflow."""
        return 0.5 * self.u_l + 0.5 * self.u_r

    @property
    def jump(self) -> float:
        return self.u_l - self.u_r


def _cell_average_shock(xl, xr, xs, ul, ur):
    """Exact average of the piecewise-constant profile over cells [xl, xr].

    The jump position is clamped into each cell before the division, so a
    jump far off the grid (x0 = 1e308, say) gives the fractions 0 and 1
    without overflowing, and a jump inside a cell keeps its bits."""
    frac_left = (np.clip(xs, xl, xr) - xl) / (xr - xl)
    return ul * frac_left + ur * (1.0 - frac_left)


def _cell_average_fan(xl, xr, t, datum: RiemannDatum):
    """Exact average of the rarefaction profile over cells [xl, xr] at time t > 0.

    Each cell splits at the fan's edges x0 + u_l t and x0 + u_r t, clamped
    into the cell: u_l left of the first, u_r right of the second, and the
    linear (x - x0)/t between them, whose integral the trapezoid rule gives.
    Every piece is measured from the cell's own ends, so a fan far off the
    grid costs no precision, and the fan's values at the clamped edges are
    clamped into [u_l, u_r], so an empty piece adds 0 even where x - x0
    overflows.
    """
    x0, ul, ur = datum.x0, datum.u_l, datum.u_r
    with np.errstate(over="ignore"):
        lo = np.clip(x0 + ul * t, xl, xr)
        hi = np.clip(x0 + ur * t, xl, xr)
        u_lo, u_hi = (np.clip((x - x0) / t, ul, ur) for x in (lo, hi))
    fan = (0.5 * u_lo + 0.5 * u_hi) * (hi - lo)
    return (ul * (lo - xl) + fan + ur * (xr - hi)) / (xr - xl)


def burgers_entropy_solution(datum: RiemannDatum, a: float, b: float, nx: int,
                             T: float, nt: int) -> GriddedField:
    """Exact entropy solution of the Riemann problem, conservatively sampled.

    Each node carries the exact average of the solution over its cell
    [x - h/2, x + h/2] (clipped at the ends), so sampled column sums track
    the exact mass: for a shock the drift equals the flux imbalance
    f(u_l) - f(u_r) exactly.  Shock at x0 + t*(u_l+u_r)/2, which lies off
    the grid where it overflows; a rarefaction fan when u_l < u_r.
    """
    grid = _SpaceTimeGrid(1, a, b, nx, T, nt)
    h, xs = grid.h, grid.x_axis
    xl = np.maximum(xs - h / 2.0, a)
    xr = np.minimum(xs + h / 2.0, b)
    with np.errstate(over="ignore"):   # each cell clamps an infinite position
        shock_path = datum.x0 + datum.shock_speed * grid.t_axis
    u = np.empty((nt, nx))
    for k, t in enumerate(grid.t_axis):
        if datum.is_shock or t == 0:   # the datum's jump at x0 when t = 0
            u[k] = _cell_average_shock(xl, xr, shock_path[k], datum.u_l, datum.u_r)
        else:
            u[k] = _cell_average_fan(xl, xr, t, datum)
    return GriddedField(1, a, b, nx, T, nt, u[..., None])


def burgers_smooth_solution(a: float, b: float, nx: int, T: float, nt: int) -> GriddedField:
    """Pre-breaking smooth solution with initial data A*sin(k x), A = 0.5 and
    k = 2*pi, evaluated by 60 Newton steps on the characteristic relation
    (T must stay below 0.8 of the breaking time 1/(A k))."""
    amplitude, wavenumber, newton_steps = 0.5, 2 * math.pi, 60
    t_break = 1.0 / (amplitude * wavenumber)
    if T >= 0.8 * t_break:
        raise ValueError(f"T = {T} too close to breaking time {t_break:.4f}")
    grid = _SpaceTimeGrid(1, a, b, nx, T, nt)
    xs = grid.x_axis
    u = np.empty((nt, nx))
    for k, t in enumerate(grid.t_axis):
        vals = amplitude * np.sin(wavenumber * xs)
        for _ in range(newton_steps):
            f = vals - amplitude * np.sin(wavenumber * (xs - vals * t))
            fp = 1.0 + amplitude * wavenumber * t * np.cos(wavenumber * (xs - vals * t))
            vals = vals - f / fp
        u[k] = vals
    return GriddedField(1, a, b, nx, T, nt, u[..., None])


def burgers_dissipation_measure(datum: RiemannDatum, T: float, n_atoms: int) -> AtomicMeasure:
    """Atoms along the shock path carrying the entropy-production rate.

    Atoms sit at times (k+1/2)*T/n, each holding rate*T/n, so the total mass
    equals (u_l-u_r)^3/12 * T exactly.  A rarefaction datum yields an empty
    measure; n_atoms < 1 or beyond the float64 range, and a rate or an atom
    position that overflows, are rejected (ValueError).
    """
    if not 1 <= n_atoms <= sys.float_info.max:
        raise ValueError(f"need at least one atom, and a count that fits a float64, "
                         f"got {n_atoms!r}")
    if not datum.is_shock:
        return AtomicMeasure(np.zeros((0, 2)), np.zeros(0))
    rate = scale_power(datum.jump, 3) / 12.0
    if not rate < math.inf:
        raise ValueError(f"the shock's entropy rate (u_l - u_r)**3 / 12 overflows at "
                         f"u_l={datum.u_l!r}, u_r={datum.u_r!r}")
    dt = T / n_atoms
    t = (np.arange(n_atoms) + 0.5) * dt
    with np.errstate(over="ignore"):   # AtomicMeasure refuses a position that overflows
        x = datum.x0 + datum.shock_speed * t
    w = np.full(n_atoms, rate * dt)
    return AtomicMeasure(np.column_stack([x, t]), w)


# ---------------------------------------------------------------------------
# Viscous Burgers solver.
# ---------------------------------------------------------------------------

@dataclass
class ViscousRun:
    """A viscous Burgers run and its diagnostics.

    ``stability_margin`` is the advective Courant number dt_sub*max|u|/h, the
    only stability number of the scheme (at most ``COURANT_SAFETY``).
    ``diffusion_number`` is r = nu*dt_sub/h^2, the stiffness of the implicit
    diffusion step; it has no stability limit.
    """

    nu: float
    bc: str
    field: GriddedField
    dissipation: AtomicMeasure = dc_field(repr=False)
    dt_sub: float = 0.0
    steps: int = 0
    steady_time: float | None = None
    stability_margin: float = 0.0
    diffusion_number: float = 0.0

    @property
    def total_dissipation(self) -> float:
        """The dissipation over [0, T]: the mass of the cell measure."""
        return self.dissipation.total_mass

    def manifest(self) -> dict:
        return {
            "nu": self.nu,
            "bc": self.bc,
            "nx": self.field.nx,
            "nt": self.field.nt,
            "a": self.field.a,
            "b": self.field.b,
            "T": self.field.T,
            "dt_sub": self.dt_sub,
            "steps": self.steps,
            "steady_time": self.steady_time,
            "stability_margin": self.stability_margin,
            "diffusion_number": self.diffusion_number,
            "total_dissipation": self.total_dissipation,
        }


def viscous_profile(datum: RiemannDatum, nu: float, x) -> np.ndarray:
    """The viscous shock's traveling-wave profile at t = 0, centred on x0: it
    moves at speed (u_l+u_r)/2 and has width ~ nu/jump."""
    half = 0.5 * datum.jump
    arg = half * (np.asarray(x) - datum.x0) / (2.0 * nu)
    return datum.shock_speed - half * np.tanh(arg)


COURANT_SAFETY = 0.9   # the substep's advective Courant number is at most this
STEADY_TOL = 1e-9      # max update per unit time below which a run is steady


def viscous_burgers_run(datum: RiemannDatum | None, nu: float, a: float, b: float,
                        nx: int, T: float, nt: int, bc: str = "dirichlet_states",
                        initial: str = "riemann", initial_data=None) -> ViscousRun:
    """Conservative finite-volume run of viscous Burgers, implicit in the diffusion.

    Each substep is a first-order IMEX step: an explicit local Lax-Friedrichs
    update for u^2/2 gives u*, then the backward-Euler diffusion step
    (I + r L) u^{n+1} = u* with r = nu*dt/h^2 and L = tridiag(-1, 2, -1),
    solved exactly by FFT.  Both halves obey the maximum principle, so the
    only step rule is the advective one, dt <= COURANT_SAFETY*h/max|u|.
    ``bc='dirichlet_states'`` pins the Riemann states at the ends,
    ``bc='periodic'`` wraps.  ``initial`` selects the sharp jump or the
    viscous traveling-wave profile; ``initial_data`` overrides both.

    Once consecutive states stop changing (max update below ``STEADY_TOL``
    per unit time) the run freezes: remaining samples repeat the steady
    profile, whose dissipation fills the rest of [0, T].  Standing-shock runs
    reach that state quickly, which is what makes small-nu sweeps affordable.

    Returns the run with its sampled field and its cell dissipation measure:
    the atom at (x_i, t_k) holds ``_dissipation_density`` at x_i, summed by the
    trapezoid rule over the substeps whose midpoints fall in [t_k - dt/2, t_k + dt/2].
    """
    grid = _SpaceTimeGrid(1, a, b, nx, T, nt)
    if not 0 < nu < math.inf:
        raise ValueError(f"nu must be positive and finite, got {nu!r}")
    if bc not in ("dirichlet_states", "periodic"):
        raise ValueError(f"unknown bc {bc!r}")
    if datum is None and initial_data is None:
        raise ValueError("need a Riemann datum or explicit initial data")
    h, xs = grid.h, grid.x_axis
    if initial_data is not None:
        u = np.array(initial_data, dtype=float)
        if u.shape != (nx,):
            raise ValueError(f"initial data must have shape ({nx},)")
    elif initial == "viscous_profile":
        u = viscous_profile(datum, nu, xs)
    elif initial == "riemann":
        u = np.where(xs < datum.x0, datum.u_l, datum.u_r).astype(float)
        on_jump = xs == datum.x0
        u[on_jump] = datum.shock_speed
    else:
        raise ValueError(f"unknown initial profile {initial!r}")

    umax = max(float(np.abs(u).max()), 1e-12)
    if datum is not None:
        umax = max(umax, abs(datum.u_l), abs(datum.u_r))
    dt_limit = h / umax
    dt_sub = COURANT_SAFETY * dt_limit
    count = T / dt_sub if dt_sub > 0 else math.inf
    if count == math.inf:
        raise ValueError(f"the substep count T / dt_sub = {T!r} / {dt_sub!r} = {count!r} "
                         "overflows a float64: lower T or the speeds, or widen h")
    n_sub = max(int(math.ceil(count)), 1)
    if T / n_sub / dt_limit > COURANT_SAFETY:  # T/dt_sub rounded down onto a whole number
        n_sub += 1
    dt_sub = T / n_sub
    r = nu * dt_sub / (h * h)
    diffuse = _implicit_diffusion(nx, r, bc)

    sample_times, dt = grid.t_axis, grid.dt
    snapshots = np.empty((nt, nx))
    snapshots[0] = u
    next_sample = 1

    ledger = np.zeros((nt, nx))   # row k: the atoms at t_k
    density = _dissipation_density(u, h, nu, bc)
    steady_time = None
    check_every = 64
    last_checked = u.copy()

    for step in range(1, n_sub + 1):
        un = _viscous_step(u, h, dt_sub, datum, bc, diffuse)
        density_prev, density = density, _dissipation_density(un, h, nu, bc)
        ledger[int((step - 0.5) * dt_sub / dt + 0.5)] += 0.5 * dt_sub * (density_prev + density)
        t_now = step * dt_sub
        while next_sample < nt and sample_times[next_sample] <= t_now + 1e-12:
            snapshots[next_sample] = un
            next_sample += 1
        u = un
        if step % check_every == 0:
            if not np.all(np.isfinite(u)):
                raise NumericalError(f"non-finite state at step {step}")
            drift = float(np.abs(u - last_checked).max()) / (check_every * dt_sub)
            if drift < STEADY_TOL:
                steady_time = t_now
                break
            last_checked = u.copy()
    if not np.all(np.isfinite(u)):
        raise NumericalError("non-finite state at the end of the run")

    if steady_time is not None:
        cells = np.clip(sample_times[:, None] + [-dt / 2, dt / 2], steady_time, T)
        ledger += (cells[:, 1] - cells[:, 0])[:, None] * density
    while next_sample < nt:
        snapshots[next_sample] = u
        next_sample += 1

    field = GriddedField(1, a, b, nx, T, nt, snapshots[..., None])
    nodes = np.empty((nt, nx, 2))   # one row [x_i, t_k] per grid node, t-major as the ledger
    nodes[..., 0], nodes[..., 1] = xs, sample_times[:, None]
    dissipation = AtomicMeasure(nodes.reshape(-1, 2), ledger.ravel())
    return ViscousRun(
        nu=nu, bc=bc, field=field, dissipation=dissipation, dt_sub=dt_sub,
        steps=step, steady_time=steady_time,
        stability_margin=dt_sub / dt_limit, diffusion_number=r,
    )


def _dissipation_density(u, h, nu, bc):
    """Centred nu*u_x^2*h per node: 0 at Dirichlet ends, a periodic wrap node once, at 0."""
    density = np.zeros_like(u)
    density[1:-1] = nu / (4.0 * h) * (u[2:] - u[:-2]) ** 2
    if bc == "periodic":
        density[0] = nu / (4.0 * h) * (u[1] - u[-2]) ** 2
    return density


def _implicit_diffusion(nx, r, bc):
    """Exact solver of the backward-Euler diffusion step (I + r L) v = rhs.

    L = tridiag(-1, 2, -1) is circulant on the nx - 1 distinct periodic nodes,
    and on the nx - 2 Dirichlet interior nodes it is the restriction of the
    circulant of period 2(nx - 1) to odd extensions (a DST-I).  Either way one
    real FFT pair diagonalises it, with eigenvalues 1 + r(2 - 2 cos theta_k).
    The returned function solves in place on the interior (Dirichlet, end
    states moved to the right-hand side) or the distinct nodes (periodic).
    """
    period = nx - 1 if bc == "periodic" else 2 * (nx - 1)
    theta = 2.0 * np.pi / period * np.arange(period // 2 + 1)
    eig = 1.0 + r * (2.0 - 2.0 * np.cos(theta))

    def solve(v):
        return np.fft.irfft(np.fft.rfft(v) / eig, n=period)

    if bc == "periodic":
        def diffuse(u):
            u[:-1] = solve(u[:-1])
            u[-1] = u[0]
    else:
        odd = np.zeros(period)

        def diffuse(u):
            rhs = odd[1:nx - 1]
            rhs[:] = u[1:-1]
            rhs[:1] += r * u[0]
            rhs[-1:] += r * u[-1]
            odd[nx:] = -rhs[::-1]
            u[1:-1] = solve(odd)[1:nx - 1]
    return diffuse


def _viscous_step(u, h, dt, datum, bc, diffuse):
    """Explicit LLF advection to u*, then the implicit diffusion step."""
    if bc == "periodic":
        ue = np.concatenate([[u[-2]], u, [u[1]]])
    else:
        ue = np.concatenate([[u[0]], u, [u[-1]]])
    f = 0.5 * ue * ue
    speed = np.maximum(np.abs(ue[:-1]), np.abs(ue[1:]))
    flux = 0.5 * (f[:-1] + f[1:]) - 0.5 * speed * (ue[1:] - ue[:-1])
    un = u - dt / h * (flux[1:] - flux[:-1])
    if bc == "dirichlet_states":
        un[0] = datum.u_l if datum is not None else u[0]
        un[-1] = datum.u_r if datum is not None else u[-1]
    diffuse(un)
    return un


# ---------------------------------------------------------------------------
# Reference measures and smooth fields.
# ---------------------------------------------------------------------------

def time_singular_measure_fixture(d: int, n_atoms: int, seed: int = 0) -> AtomicMeasure:
    """Uniform random atoms of total mass 1 on [0,1]^d at the single instant t = 1/2.

    The geometry of a dissipation measure concentrated at one time: its
    isotropic space-time dimension is d.  Its lattice counterpart, m**d
    atoms on the midpoint lattice at t = 1/2, is ``grid_measure(d, m, 1)``.
    """
    if n_atoms < 1:
        raise ValueError("need at least one atom")
    rng = np.random.default_rng(seed)
    pts = np.column_stack([rng.random((n_atoms, d)), np.full(n_atoms, 0.5)])
    return AtomicMeasure(pts, np.full(n_atoms, 1.0 / n_atoms))


def grid_measure(d: int, m_space: int, m_time: int) -> AtomicMeasure:
    """Midpoint-lattice approximation of Lebesgue measure on [0,1]^d x [0,1]:
    equal atoms of total mass 1.

    With ``m_time = 1`` it is the lattice time slab: m_space**d equal atoms
    at the single instant t = 1/2.
    """
    axes_x = (np.arange(m_space) + 0.5) / m_space
    axes_t = (np.arange(m_time) + 0.5) / m_time
    grids = np.meshgrid(*([axes_x] * d + [axes_t]), indexing="ij")
    pts = np.stack(grids, axis=-1).reshape(-1, d + 1)
    n = pts.shape[0]
    return AtomicMeasure(pts, np.full(n, 1.0 / n))


def constant_field(value, d: int, a: float, b: float, nx: int, T: float, nt: int,
                   pressure: float = 0.0) -> GriddedField:
    """Spatially constant velocity with constant pressure: an exact solution."""
    value = np.asarray(value, dtype=float).reshape(d)
    shape = (nt,) + (nx,) * d
    u = np.broadcast_to(value, shape + (d,)).copy()
    p = np.full(shape, float(pressure))
    return GriddedField(d, a, b, nx, T, nt, u, {"p": p})


def decaying_shear_field(nu: float, k: float, a: float, b: float, nx: int,
                         T: float, nt: int) -> GriddedField:
    """u = (exp(-nu k^2 t) sin(k y), 0), p = 0: exact viscous shear decay.
    nu = 0 gives the steady shear (sin(k y), 0), an exact inviscid solution."""
    grid = _SpaceTimeGrid(2, a, b, nx, T, nt)
    ys = grid.x_axis
    amp = np.exp(-nu * k * k * grid.t_axis)
    u = np.zeros((nt, nx, nx, 2))
    u[..., 0] = amp[:, None, None] * np.sin(k * ys)[None, None, :]
    p = np.zeros((nt, nx, nx))
    return GriddedField(2, a, b, nx, T, nt, u, {"p": p})
