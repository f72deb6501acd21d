"""The windowed pairing kernel against full-grid quadratures written out here.

The kernel evaluates a balance only on the index box of the test function's
support (plus a one-node halo) with the global trapezoid weights.  The
oracles below evaluate the same formulas on every node of the grid, so the
two may differ only by summation order: each term is compared to rel 1e-12
of the quadrature of its absolute integrand.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dissdim import cutoffs as co
from dissdim import weak_balance as wb
from dissdim.aniso_measure import SpaceTimePoint
from dissdim.fields import GriddedField

INF = math.inf
REL = 1e-12
GRIDS = {1: (41, 41), 2: (25, 25)}   # (nx, nt) on [0, 1]^d x [0, 1]
_FIELDS = {}


def random_field(d):
    """Noise samples: no structure for windowing errors to hide behind."""
    if d not in _FIELDS:
        nx, nt = GRIDS[d]
        rng = np.random.default_rng(d)
        shape = (nt,) + (nx,) * d
        _FIELDS[d] = GriddedField(d, 0.0, 1.0, nx, 1.0, nt, rng.normal(size=shape + (d,)),
                                  p=rng.normal(size=shape))
    return _FIELDS[d]


class FullGrid:
    """Full-grid quadratures: value and scale (same sum of |integrand|)."""

    def __init__(self, field):
        self.field = field
        self.wsp = field.spatial_weights()
        self.wt = field.axis_weights()[1]
        self.axes = (tuple(range(1, 1 + field.d)), tuple(range(field.d)))

    def quad(self, vals, space, time):
        value = np.sum(self.wt * time * np.tensordot(vals, self.wsp * space, axes=self.axes))
        scale = np.sum(self.wt * np.abs(time) *
                       np.tensordot(np.abs(vals), self.wsp * np.abs(space), axes=self.axes))
        return float(value), float(scale)

    def mixed_norm(self, vals, q, r, smask, tmask):
        if not (smask.any() and tmask.any()):
            return 0.0
        flat = vals.reshape(self.field.nt, -1)[:, smask.ravel()]
        w = self.wsp.ravel()[smask.ravel()]
        g = flat.max(axis=1) if r == INF else np.sum(w * flat ** r, axis=1) ** (1 / r)
        g, w_t = g[tmask], self.wt[tmask]
        return float(g.max() if q == INF else np.sum(w_t * g ** q) ** (1 / q))


def close(got, oracle):
    value, scale = oracle
    return got == pytest.approx(value, rel=REL, abs=REL * scale)


def margin_point(frac, lo, hi):
    return lo + frac * (hi - lo)


fractions = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([1, 2]), profile=st.sampled_from(["cubic", "quintic"]),
       delta_frac=st.floats(0.0, 1.0), alpha=st.floats(1.0, 3.0),
       x_fracs=st.tuples(fractions, fractions), t_frac=fractions,
       q=st.sampled_from([3, 4.5, INF]), r=st.sampled_from([3, 4.5, INF]),
       euler=st.booleans(), nu=st.sampled_from([0.0, 0.01]))
def test_cutoff_balance_matches_full_grid(d, profile, delta_frac, alpha, x_fracs, t_frac,
                                          q, r, euler, nu):
    field = random_field(d)
    h, dt = field.h, field.dt
    delta = h / 4 + delta_frac * (0.2 - h / 4)
    # the collar may touch the 2-cell margin exactly (fraction 0 or 1)
    center = tuple(margin_point(f, 2 * h + 2 * delta, 1 - 2 * h - 2 * delta)
                   for f in x_fracs[:d])
    outer = (2 * delta) ** alpha
    t0 = margin_point(t_frac, 2 * dt + outer, 1 - 2 * dt - outer)
    cut = co.CutoffPair.build(SpaceTimePoint(center, t0), delta, alpha, profile=profile)
    pair = wb.EULER_ENERGY_PAIR if euler else wb.BURGERS_PAIR

    rep = wb.holder_cylinder_bound(field, cut, q, r, pair=pair, nu=nu)
    assert rep.weak_mass <= rep.holder_bound * (1 + 1e-9)

    grid = FullGrid(field)
    mesh, t = field.spatial_mesh(), field.t_axis
    chi, gchi, lchi = cut.chi.value(mesh), cut.chi.gradient(mesh), cut.chi.laplacian(mesh)
    eta_t, deta_t = cut.eta.value(t), cut.eta.deriv(t)
    u, p = field.u, field.p
    e = pair.eta_fn(u, p, None)
    oracle = {"I": grid.quad(e, chi, deta_t)}
    for name, flux in pair.fluxes.items():
        oracle[name] = grid.quad(np.einsum("t...i,...i->t...", flux(u, p, None), gchi),
                                 1.0, eta_t)
    if nu > 0:
        value, scale = grid.quad(e, lchi, eta_t)
        oracle["IV"] = (nu * value, nu * scale)
    assert list(rep.terms) == list(oracle)
    for key, expected in oracle.items():
        assert close(rep.terms[key], expected), key
    total = sum(v for v, _ in oracle.values()), sum(s for _, s in oracle.values())
    assert close(rep.weak_mass, total)

    r2 = np.sum((mesh - np.asarray(center)) ** 2, axis=-1)
    if nu > 0:
        g2 = field.grad_squared()
        value, scale = grid.quad(g2, chi, eta_t)
        assert close(rep.grad_mass_cutoff, (nu * value, nu * scale))
        inside_t = (np.abs(t - t0) < delta ** alpha).astype(float)
        value, scale = grid.quad(g2, (r2 < delta ** 2).astype(float), inside_t)
        assert close(rep.grad_mass_cylinder, (nu * value, nu * scale))
    else:
        assert rep.grad_mass_cutoff is None and rep.grad_mass_cylinder is None

    smask = r2 <= (2 * delta) ** 2
    tmask = np.abs(t - t0) <= cut.eta.outer
    u_norm = grid.mixed_norm(field.speed(), q, r, smask, tmask)
    assert rep.local_norms["u_LqLr"] == pytest.approx(u_norm, rel=REL)
    if euler:
        p_norm = grid.mixed_norm(np.abs(p), q / 2, r / 2, smask, tmask)
        assert rep.local_norms["p_Lq2Lr2"] == pytest.approx(p_norm, rel=REL)


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([1, 2]), profile=st.sampled_from(["cubic", "quintic"]),
       lo=st.floats(0.0, 0.6), width=st.floats(0.0, 0.3), ramp=st.floats(0.02, 0.3),
       t_lo=st.floats(0.06, 0.8), nu=st.sampled_from([0.0, 0.05]))
def test_boundary_extended_mass_matches_full_grid(d, profile, lo, width, ramp, t_lo, nu):
    # plateau supports may run off the spatial grid, and the time ramp
    # keeps phi alive at t = T, so the window reaches both ends
    field = random_field(d)
    plateau = co.PlateauProfile(lo, lo + width, ramp, profile=profile)
    space = co.SpatialTestFunction([plateau] * d)
    t_hi = min(t_lo + 0.1, 0.95)
    time = co.PlateauProfile(t_hi, INF, t_hi - t_lo, profile=profile)
    phi = co.SpaceTimeTestFunction(space, time)
    pair = wb.EULER_ENERGY_PAIR

    interior, terminal = wb.boundary_extended_mass(field, phi, pair=pair, nu=nu,
                                                   allow_spatial_boundary=True)
    grad_mass = wb.grad_squared_pairing(field, phi, nu)

    grid = FullGrid(field)
    mesh, t = field.spatial_mesh(), field.t_axis
    X, gX, lX = space.value(mesh), space.gradient(mesh), space.laplacian(mesh)
    H, dH = time.value(t), time.deriv(t)
    e = pair.eta_fn(field.u, field.p, None)
    parts = [grid.quad(e, X, dH)]
    for flux in pair.fluxes.values():
        parts.append(grid.quad(np.einsum("t...i,...i->t...", flux(field.u, field.p, None), gX),
                               1.0, H))
    if nu > 0:
        value, scale = grid.quad(e, lX, H)
        parts.append((nu * value, nu * scale))
    assert close(interior, (sum(v for v, _ in parts), sum(s for _, s in parts)))

    t_weight = np.zeros(field.nt)
    t_weight[-1] = 1.0 / grid.wt[-1]   # picks the spatial sum at t = T
    assert close(terminal, grid.quad(e, X, t_weight * H))

    value, scale = grid.quad(field.grad_squared(), X, H)
    assert close(grad_mass, (nu * value, nu * scale))
