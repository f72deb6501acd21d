"""The windowed pairing kernel against full-grid quadratures written out here.

The kernel evaluates a balance only on the index box of the test function's
support (plus a one-node halo) with the global trapezoid weights.  The
oracles below evaluate the same formulas on every node of the grid, so the
two may differ only by summation order: each term is compared to rel 1e-12
of the quadrature of its absolute integrand.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dissdim import cutoffs as co
from dissdim import weak_balance as wb
from dissdim.fields import GriddedField
from dissdim.fixtures import decaying_shear_field

INF = math.inf
REL = 1e-12
GRIDS = {1: (41, 41), 2: (25, 25), 3: (23, 23)}   # (nx, nt) on [0, 1]^d x [0, 1]
_FIELDS = {}


def random_field(d):
    """Noise samples: no structure for windowing errors to hide behind."""
    if d not in _FIELDS:
        nx, nt = GRIDS[d]
        rng = np.random.default_rng(d)
        shape = (nt,) + (nx,) * d
        _FIELDS[d] = GriddedField(d, 0.0, 1.0, nx, 1.0, nt, rng.normal(size=shape + (d,)),
                                  {"p": rng.normal(size=shape)})
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
@given(d=st.sampled_from([1, 2, 3]), profile=st.sampled_from(["cubic", "quintic"]),
       delta_frac=st.floats(0.0, 1.0), alpha=st.floats(1.0, 3.0),
       x_fracs=st.tuples(fractions, fractions, fractions), t_frac=fractions,
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
    cut = co.CutoffPair.build((*center, t0), delta, alpha, profile=profile)
    pair = wb.EULER_ENERGY_PAIR if euler else wb.BURGERS_PAIR

    rep = wb.holder_cylinder_bound(field, cut, q, r, pair=pair, nu=nu)
    assert rep.weak_mass <= rep.holder_bound * (1 + 1e-9)

    grid = FullGrid(field)
    mesh, t = field.spatial_mesh(), field.t_axis
    chi, gchi, lchi = cut.chi.value(mesh), cut.chi.gradient(mesh), cut.chi.laplacian(mesh)
    eta_t, deta_t = cut.eta.value(t), cut.eta.deriv(t)
    p = field.scalars["p"]
    e = pair.eta_fn(field)
    oracle = {"I": grid.quad(e, chi, deta_t)}
    for name, flux in pair.fluxes.items():
        oracle[name] = grid.quad(np.einsum("t...i,...i->t...", flux(field), gchi),
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
@given(d=st.sampled_from([1, 2, 3]), profile=st.sampled_from(["cubic", "quintic"]),
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

    # the private kernel: the public balance requires phi to vanish at the spatial edges
    res = wb._pairing(field, phi, pair, nu, ("t0",))
    interior, terminal = res.report.weak_mass, res.terminal
    grad_mass = res.report.grad_mass_cutoff if nu > 0 else 0.0

    grid = FullGrid(field)
    mesh, t = field.spatial_mesh(), field.t_axis
    X, gX, lX = space.value(mesh), space.gradient(mesh), space.laplacian(mesh)
    H, dH = time.value(t), time.deriv(t)
    e = pair.eta_fn(field)
    parts = [grid.quad(e, X, dH)]
    for flux in pair.fluxes.values():
        parts.append(grid.quad(np.einsum("t...i,...i->t...", flux(field), gX),
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


# ---------------------------------------------------------------------------
# The window's spatial factors against a full-mesh evaluation.
# ---------------------------------------------------------------------------

def full_mesh_window(field, space, vanish):
    """The halo box of the nonzero nodes (None when there is none) and the
    factors on every node, from X, grad X and lap X evaluated on every node
    of the grid, and the margin verdict, from the stated support: some axis's
    (lo, hi) reaches past the second or the next-to-last node."""
    d = field.d
    mesh = field.spatial_mesh()
    X, grad, lap = space.value(mesh), space.gradient(mesh), space.laplacian(mesh)
    nonzero = (X != 0) | np.any(grad != 0, axis=-1) | (lap != 0)
    halo = None
    if nonzero.any():
        halo = []
        for i in range(d):
            idx = np.flatnonzero(nonzero.any(axis=tuple(j for j in range(d) if j != i)))
            halo.append((max(idx[0] - 1, 0), min(idx[-1] + 2, field.nx)))
    axis = field.x_axis
    margin = "x" in vanish and any(lo < axis[1] or hi > axis[-2] for lo, hi in space.support)
    return halo, X, grad, lap, margin


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


WINDOW_GRIDS = {1: 41, 2: 17, 3: 9}


def node_coordinate(draw, nx):
    """A coordinate on [0, 1] near a node, often within a few cells of an edge."""
    k = draw(st.one_of(st.integers(0, 3), st.integers(nx - 4, nx - 1),
                       st.integers(0, nx - 1)))
    offset = draw(st.one_of(st.just(0.0), st.just(0.5), st.floats(-1.0, 1.0)))
    return (k + offset) / (nx - 1)


@st.composite
def spatial_factors(draw, d):
    nx = WINDOW_GRIDS[d]
    h = 1.0 / (nx - 1)
    profile = draw(st.sampled_from(["cubic", "quintic"]))
    if draw(st.booleans()):
        center = tuple(node_coordinate(draw, nx) for _ in range(d))
        # radii from a quarter cell up to a third of the domain, some with
        # 2*delta a whole number of cells
        delta = draw(st.one_of(st.floats(h / 4, 0.33),
                               st.integers(1, nx // 3).map(lambda m: m * h / 2)))
        return co.SpatialBump(center, delta, profile)
    profiles = []
    for _ in range(d):
        lo = node_coordinate(draw, nx)
        hi = draw(st.one_of(st.just(math.inf), st.floats(0.0, 0.5).map(lambda w: lo + w)))
        ramp = draw(st.one_of(st.floats(h / 4, 0.4), st.integers(1, 4).map(lambda m: m * h)))
        profiles.append(co.PlateauProfile(lo, hi, ramp, profile=profile))
    return co.SpatialTestFunction(profiles)


class Recording:
    """A spatial factor that keeps the node arrays passed to each method."""

    def __init__(self, space):
        self.space = space
        self.support = space.support
        self.calls = {"value": [], "gradient": [], "laplacian": []}

    def __getattr__(self, name):
        method = getattr(self.space, name)

        def record(y):
            self.calls[name].append(np.asarray(y))
            return method(y)
        return record


def evaluated_inside_support_box(field, recording):
    """Each factor method ran once, on exactly the nodes of the stated support
    box (no node outside it, none twice); returns that box."""
    box = wb._support_box(field, recording.space)
    size = math.prod(b.stop - b.start for b in box)
    for name, arrays in recording.calls.items():
        assert len(arrays) == 1, name
        idx = np.rint((arrays[0].reshape(-1, field.d) - field.a) / field.h).astype(int)
        assert idx.shape[0] == size, name
        assert all(((idx[:, i] >= b.start) & (idx[:, i] < b.stop)).all()
                   for i, b in enumerate(box)), name
    return box


@settings(max_examples=150, deadline=None)
@given(data=st.data(), d=st.sampled_from([1, 2, 3]),
       vanish=st.sampled_from([("t0", "T", "x"), ("t0",), ()]))
def test_window_factors_equal_full_mesh_evaluation(data, d, vanish):
    # the window evaluates X only on its stated support box; it must hold
    # the full-mesh halo box, and its factors and margin verdict must be
    # those of the full mesh
    nx = WINDOW_GRIDS[d]
    field = GriddedField(d, 0.0, 1.0, nx, 1.0, 5, np.zeros((5,) + (nx,) * d + (d,)))
    space = data.draw(spatial_factors(d))
    recording = Recording(space)
    # nonzero only at the middle time node, clear of both 2-cell time margins
    phi = co.SpaceTimeTestFunction(recording, co.PlateauProfile(0.5, 0.5, 0.2))
    halo, X, grad, lap, margin = full_mesh_window(field, space, vanish)
    if margin:
        with pytest.raises(wb.MarginError):
            wb._Window(field, phi, vanish)
        return
    win = wb._Window(field, phi, vanish)
    box = evaluated_inside_support_box(field, recording)
    axis = field.x_axis
    for (lo, hi), b in zip(space.support, box):
        stated = np.flatnonzero((axis >= lo) & (axis <= hi))
        assert stated.size == 0 or (b.start <= stated[0] and stated[-1] < b.stop)
    assert len({s.stop - s.start for s in win.x}) == 1
    assert all(b.start <= s.start and s.stop <= b.stop for b, s in zip(box, win.x))
    if halo is not None:
        assert all(s.start <= lo and hi <= s.stop for s, (lo, hi) in zip(win.x, halo))
    assert same_bits(win.x_val, X[win.x])
    assert same_bits(win.x_grad, grad[win.x])
    assert same_bits(win.x_lap, lap[win.x])


def _support_cases():
    cases = []
    for d, nx in WINDOW_GRIDS.items():
        h = 1.0 / (nx - 1)
        cases += [pytest.param(d, space, id=f"d{d}-{name}") for name, space in (
            ("bump-2delta-below-h-between-nodes", co.SpatialBump((0.5 + h / 2,) * d, h / 8)),
            ("bump-2delta-below-h-on-a-node", co.SpatialBump((0.5,) * d, h / 4)),
            ("bump-clipped-at-low-corner", co.SpatialBump((0.0,) * d, 0.2)),
            ("bump-2delta-below-h-clipped", co.SpatialBump((1.0 - h / 3,) * d, h / 4)),
            ("plateau-to-inf-clipped",
             co.SpatialTestFunction([co.PlateauProfile(0.9, INF, 0.3)] * d)),
            ("plateau-off-the-grid",
             co.SpatialTestFunction([co.PlateauProfile(-0.6, -0.3, 0.1)] * d)))]
    return cases


@pytest.mark.parametrize("d,space", _support_cases())
def test_factors_are_evaluated_only_on_the_support_box(d, space):
    nx = WINDOW_GRIDS[d]
    field = GriddedField(d, 0.0, 1.0, nx, 1.0, 5, np.zeros((5,) + (nx,) * d + (d,)))
    recording = Recording(space)
    phi = co.SpaceTimeTestFunction(recording, co.PlateauProfile(0.5, 0.5, 0.2))
    res = wb._pairing(field, phi, wb.BURGERS_PAIR, 0.1, ("t0",))
    assert res.report.weak_mass == res.terminal == res.report.grad_mass_cutoff == 0.0
    box = evaluated_inside_support_box(field, recording)
    assert math.prod(b.stop - b.start for b in box) < nx ** d


@pytest.mark.parametrize("space", [co.SpatialBump((0.5, math.nan), 0.1),
                                   co.SpatialBump((0.5, 0.5), math.nan)])
def test_nan_support_is_rejected(space):
    field = GriddedField(2, 0.0, 1.0, 17, 1.0, 5, np.zeros((5, 17, 17, 2)))
    phi = co.SpaceTimeTestFunction(space, co.PlateauProfile(0.5, 0.5, 0.2))
    with pytest.raises(ValueError, match="not a box"):
        wb.boundary_extended_mass(field, phi, pair=wb.BURGERS_PAIR)


@pytest.mark.parametrize("space, dim", [
    (co.SpatialTestFunction([co.PlateauProfile(0.3, 0.6, 0.1)]), 1),
    (co.SpatialTestFunction([co.PlateauProfile(0.3, 0.6, 0.1)] * 3), 3),
    (co.SpatialBump((0.5, 0.5, 0.5), 0.1), 3)])
def test_spatial_factor_of_another_dimension_is_rejected(space, dim):
    field = GriddedField(2, 0.0, 1.0, 17, 1.0, 5, np.zeros((5, 17, 17, 2)))
    message = f"dimension {dim} on a d = 2 field"
    phi = co.SpaceTimeTestFunction(space, co.PlateauProfile(0.5, 0.5, 0.2))
    with pytest.raises(ValueError, match=message):
        wb.pair_weak_mass(field, wb.BURGERS_PAIR, phi)
    with pytest.raises(ValueError, match=message):
        wb.signed_support_bound(field, [((0.5, 0.5), 0.1)], space, 2.0, enforce_cover=False)


class Understated:
    """A factor that states a support smaller than the nodes where it is nonzero."""

    def __init__(self, factor, support):
        self.factor, self.support = factor, support

    def __getattr__(self, name):
        return getattr(self.factor, name)


def test_an_understated_support_raises_a_value_error_naming_its_axis():
    # a plain ValueError, not an assertion: it holds under python -O and maps to exit 2
    field = GriddedField(2, 0.0, 1.0, 17, 1.0, 17, np.zeros((17, 17, 17, 2)))
    space = co.SpatialTestFunction([co.PlateauProfile(0.3, 0.7, 0.1)] * 2)
    time = co.PlateauProfile(0.3, 0.7, 0.1)
    small_space = Understated(space, ((0.45, 0.55),) * 2)
    small_time = Understated(time, (0.45, 0.55))
    calls = [("space", lambda: wb.pair_weak_mass(
                 field, wb.BURGERS_PAIR, co.SpaceTimeTestFunction(small_space, time))),
             ("space", lambda: wb.signed_support_bound(
                 field, [((0.5, 0.5), 0.1)], small_space, 2.0, enforce_cover=False)),
             ("time", lambda: wb.pair_weak_mass(
                 field, wb.BURGERS_PAIR, co.SpaceTimeTestFunction(space, small_time)))]
    for axis, call in calls:
        with pytest.raises(ValueError, match=f"^{axis}: ") as err:
            call()
        assert type(err.value) is ValueError


@st.composite
def grid_aligned_or_not(draw, lo, hi, step):
    """A coordinate in [lo, hi]: on a node of spacing ``step``, on a dyadic
    fraction of it, or anywhere."""
    k = draw(st.sampled_from([1, 2, 4, 8]))
    node = st.integers(math.ceil(lo * k / step), math.floor(hi * k / step))
    return draw(st.one_of(node.map(lambda i: i * step / k), st.floats(lo, hi)))


CYLINDER_GRIDS = {1: 65, 2: 33, 3: 17}   # nx on [0, 1]^d; nt = 33 on [0, 1]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), d=st.sampled_from([1, 2, 3]),
       profile=st.sampled_from(["cubic", "quintic"]),
       alpha=st.one_of(st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.floats(1.0, 3.0)),
       delta=st.one_of(st.integers(3, 8).map(lambda k: 2.0 ** -k), st.floats(2.0 ** -8, 0.125)))
def test_cylinder_masks_hold_every_nonzero_node_of_the_cutoff(data, d, profile, alpha, delta):
    # dominance is exact only because every node where chi or a derivative of
    # it is nonzero lies in the closed collar, and every time node where eta or
    # eta' is nonzero in the outer rows: the masks' norms then see every node
    # the weak mass does
    nx, nt = CYLINDER_GRIDS[d], 33
    field = GriddedField(d, 0.0, 1.0, nx, 1.0, nt, np.zeros((nt,) + (nx,) * d + (d,)))
    center = tuple(data.draw(grid_aligned_or_not(0.375, 0.625, field.h)) for _ in range(d))
    t0 = data.draw(grid_aligned_or_not(0.375, 0.625, field.dt))
    cut = co.CutoffPair.build((*center, t0), delta, alpha, profile=profile)
    res = wb._pairing(field, cut, wb.BURGERS_PAIR)
    on_window = np.zeros(res.window.wsp.shape, dtype=bool)
    on_window.flat[res.cylinder.collar] = True   # the collar's flat node indices
    collar = np.zeros((nx,) * d, dtype=bool)
    collar[res.window.x] = on_window
    outer = np.zeros(nt, dtype=bool)
    outer[res.window.t] = res.cylinder.outer
    mesh, t = field.spatial_mesh(), field.t_axis
    live_x = ((cut.chi.value(mesh) != 0) | (cut.chi.gradient(mesh) != 0).any(axis=-1)
              | (cut.chi.laplacian(mesh) != 0))
    live_t = (cut.eta.value(t) != 0) | (cut.eta.deriv(t) != 0)
    assert not (live_x & ~collar).any()
    assert not (live_t & ~outer).any()


# ---------------------------------------------------------------------------
# Blocks of time rows.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nt", [2, 3, 4, 5, 9, 10, 65])
@pytest.mark.parametrize("block, row_nodes", [(1, 7), (10, 3), (12, 3), (2 ** 14, 4356)])
def test_row_blocks_cover_the_rows_in_order(monkeypatch, nt, block, row_nodes):
    monkeypatch.setattr(wb, "WINDOW_BLOCK", block)
    blocks = wb._row_blocks(nt, row_nodes)
    rows = max(2, block // row_nodes)
    assert [b[0] for b in blocks] == [0] + [b[1] for b in blocks[:-1]]
    assert blocks[-1][1] == nt
    # every block but the last has the block's rows; the last holds 2 to rows + 1
    assert all(stop - start == rows for start, stop in blocks[:-1])
    assert 2 <= blocks[-1][1] - blocks[-1][0] <= rows + 1


def every_entry_point(field, nu):
    """The results of the public pairings, as reprs (bits of every float),
    on cutoffs and test functions whose windows are 7 to 23 time rows tall;
    the boundary-extended window reaches t = T."""
    d = field.d
    cut = co.CutoffPair.build((0.5,) * d + (0.5,), 0.15, 1.0)
    out = []
    for pair in (wb.BURGERS_PAIR, wb.EULER_ENERGY_PAIR):
        out.append(wb.pair_weak_mass(field, pair, cut, nu))
        out.append(wb.holder_cylinder_bound(field, cut, 4.5, 3, pair=pair, nu=nu))
        out.append(wb.holder_cylinder_bound(field, cut, INF, INF, pair=pair, nu=nu))
    out.append(wb.pair_weak_mass(field, wb.EULER_ENERGY_PAIR,
                                 co.SpaceTimeTestFunction(cut.chi, cut.eta)))
    space = co.SpatialTestFunction([co.PlateauProfile(0.3, 0.6, 0.2)] * d)
    time = co.PlateauProfile(0.5, INF, 0.3)
    out.append(wb.boundary_extended_mass(field, co.SpaceTimeTestFunction(space, time),
                                         pair=wb.EULER_ENERGY_PAIR, nu=nu))
    return [repr(r) for r in out]


@pytest.mark.parametrize("nu", [0.0, 0.01])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_two_row_blocks_give_the_bits_of_one_block(monkeypatch, d, nu):
    field = random_field(d)
    phi = co.SpaceTimeTestFunction(co.SpatialBump((0.5,) * d, 0.15), co.TimeBump(0.5, 0.15, 1.0))
    monkeypatch.setattr(wb, "WINDOW_BLOCK", 2 ** 62)
    assert len(wb._Window(field, phi, ()).row_blocks()) == 1
    whole = every_entry_point(field, nu)
    monkeypatch.setattr(wb, "WINDOW_BLOCK", 1)   # the minimum: two rows per block
    assert len(wb._Window(field, phi, ()).row_blocks()) > 3
    assert every_entry_point(field, nu) == whole


def test_a_tall_window_holds_block_sized_arrays():
    # d = 2, 97^2 x 97 nodes, delta = 1/8: the window is 49 x 49^2 nodes and
    # 8 blocks tall; holding its samples alone takes 2.7 MiB, and the kernel
    # peaked at 7 MiB when every field-derived array spanned the window
    field = decaying_shear_field(1e-2, 2 * math.pi, 0.0, 1.0, 97, 1.0, 97)
    cut = co.CutoffPair.build((0.5, 0.5, 0.5), 0.125, 1.0)
    win = wb._Window(field, co.SpaceTimeTestFunction(cut.chi, cut.eta), ())
    assert len(win.row_blocks()) >= 8
    samples = len(win.t_axis) * win.wsp.size * (field.d + 1) * 8
    tracemalloc.start()
    try:
        wb.holder_cylinder_bound(field, cut, 3, 3, nu=1e-2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < samples


def test_a_small_d3_cylinder_holds_no_whole_grid_array():
    # 65^3 x 9 nodes, delta = 1/64: the window is a few nodes a side, and the
    # kernel peaked at 13 MB when it built the whole grid's mesh and weights
    # to slice them to the window
    nx = 65
    x = np.linspace(0.0, 1.0, nx)
    u = np.broadcast_to(np.sin(2 * math.pi * x)[:, None, None, None], (9,) + (nx,) * 3 + (3,))
    field = GriddedField(3, 0.0, 1.0, nx, 1.0, 9, u)
    cut = co.CutoffPair.build((0.5, 0.5, 0.5, 0.5), 1 / 64, 1.0)
    tracemalloc.start()
    try:
        wb.holder_cylinder_bound(field, cut, INF, INF)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < nx ** 3 * 8   # one whole-grid float64 array, 2.2 MB
