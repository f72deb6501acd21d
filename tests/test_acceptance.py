"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here, not calibrated elsewhere.  The final check
(covering-estimate growth) pins the power-counting rate 4**0.2 of the
covering estimate at exponent deficit 0.2; see its docstring.
"""

import itertools
import json
import math
import subprocess
import sys
import time
from fractions import Fraction as F

import numpy as np
import pytest

from dissdim import aniso_measure as am
from dissdim import cutoffs as co
from dissdim import exponents as ex
from dissdim import fixtures as fx
from dissdim import io as dio
from dissdim import weak_balance as wb
from dissdim.aniso_measure import Cylinder

INF = math.inf
STANDING = fx.RiemannDatum(1.0, -1.0)


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance: {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def elapsed_ok(name, t0, budget):
    dt = time.time() - t0
    report(f"{name} runtime < {budget:g} s", dt < budget, f"{dt:.2f} s")


# ---------------------------------------------------------------------------
# 1. Exponent suite.
# ---------------------------------------------------------------------------

def test_criterion_1_exponent_suite():
    t0 = time.time()
    checks = []

    for d in (2, 3, 4):
        rep = ex.euler_optimal(ex.IntegrabilityClass(d, INF, INF))
        checks.append(rep.s == d and rep.alpha == 1)

    # parabolic scaling on the smoothness borderline: exact term equality
    for d, q, r in ((3, F(4), F(6)), (3, F(8), F(4)), (2, F(6), F(3)), (4, F(4), F(8))):
        assert F(2, 1) / q + F(d, 1) / r == 1
        rep = ex.navier_stokes_exponent(ex.IntegrabilityClass(d, q, r), F(2))
        values = [v for _, v in rep.terms]
        checks.append(values == [d - 2] * 3 and rep.s == d - 2)

    # the named cases: bounded-in-time L^r (and its Besov-1/3 endpoint) at
    # r = 3d/(d-1), and bounded-in-time H^beta at r = 2d/(d-2 beta)
    for d in (2, 3, 4):
        rep = ex.euler_optimal(ex.IntegrabilityClass(d, INF, F(3 * d, d - 1)))
        checks.append(rep.alpha == F(2 + d, 3) and rep.s == F(2 + d, 3))

    for d, beta in ((2, F(2, 5)), (3, F(1, 2)), (4, F(3, 4))):
        rep = ex.euler_optimal(ex.IntegrabilityClass(d, INF, 2 * d / (d - 2 * beta)))
        checks.append(rep.s == 2 * beta)

    for d, r in ((1, INF), (3, F(3)), (2, F(3, 2)), (2, INF)):
        rep = ex.conservation_law_exponent(d, r)
        expected = d if r == INF else d + 1 - r / (r - 1)
        checks.append(rep.s == expected)

    report("exponent closed forms (exact arithmetic)", all(checks),
           f"{sum(checks)}/{len(checks)} identities")
    elapsed_ok("exponent suite", t0, 1.0)


# ---------------------------------------------------------------------------
# 2. Power-law ball masses.
# ---------------------------------------------------------------------------

def test_criterion_2_power_law_ball_masses(sphere_flux):
    # oracle: the divergence theorem, i.e. the field's flux through the sphere
    t0 = time.time()
    deltas = (0.05, 0.1, 0.2, 0.4)
    worst = 0.0
    for d in (2, 3):
        for eps in (0.25, 0.5, 1.0):
            field = fx.PowerLawField(d, eps)
            masses = [fx.power_law_ball_mass(field, delta) for delta in deltas]
            for delta, mass in zip(deltas, masses):
                worst = max(worst, abs(mass / sphere_flux(field, delta) - 1))
            for (d1, m1), (d2, m2) in zip(zip(deltas, masses), zip(deltas[1:], masses[1:])):
                worst = max(worst, abs((m2 / m1) / ((d2 / d1) ** eps) - 1))
    report("power-law ball masses match the sphere flux to 1e-6", worst <= 1e-6,
           f"worst rel err {worst:.2e}")
    elapsed_ok("power-law reproduction", t0, 5.0)


# ---------------------------------------------------------------------------
# 3. Standing-shock entropy production, three ways.
# ---------------------------------------------------------------------------

def test_criterion_3_burgers_shock_rate_three_ways(shock_runs):
    t0 = time.time()
    target = 2.0 / 3.0

    atoms = fx.burgers_dissipation_measure(STANDING, 1.0, 4096)
    rate_atoms = atoms.total_mass / 1.0

    field = fx.burgers_entropy_solution(STANDING, -1.0, 1.0, 2048, 1.0, 2048)
    space = co.SpatialTestFunction([co.PlateauProfile(-0.5, 0.5, 0.2)])
    hprof = co.PlateauProfile(0.1, 0.9, 0.05)
    phi = co.SpaceTimeTestFunction(space, hprof)
    rate_pairing = wb.pair_weak_mass(field, wb.BURGERS_PAIR, phi).weak_mass / hprof.integral

    totals = {nu: shock_runs(nu).total_dissipation for nu in (4e-4, 2e-4, 1e-4)}
    rate_viscous = totals[1e-4]
    richardson = 2 * totals[1e-4] - totals[2e-4]

    ways = {
        "analytic atoms": rate_atoms,
        "entropy pairing": rate_pairing,
        "viscous quadrature": rate_viscous,
        "viscous extrapolated": richardson,
    }
    ok = all(abs(v / target - 1) <= 0.02 for v in ways.values())
    report("shock entropy production 2/3 three independent ways", ok,
           ", ".join(f"{k}={v:.4f}" for k, v in ways.items()))

    box = am.box_counting_dimension(atoms.support_points(), 1.0,
                                    [2.0 ** -k for k in range(3, 9)])
    report("shock support dimension 1.0 +- 0.1 (alpha = 1)",
           abs(box.dim_estimate - 1.0) <= 0.1, f"estimate {box.dim_estimate:.3f}")

    center = atoms.support_points()[2048][None, :]
    ladder = am.density_ladder(atoms, 1.0, 1.0, [2.0 ** -k for k in range(3, 9)],
                               centers=center)
    certified, verdict = am.certify_lower_bound(ladder)
    report("shock ladder certifies s >= 0.9 at alpha = 1",
           verdict == "certified" and certified >= 0.9, f"certified {certified:.3f}")
    elapsed_ok("shock sharpness", t0, 120.0)


# ---------------------------------------------------------------------------
# 4. Cylinder asymptotics at the shock.
# ---------------------------------------------------------------------------

def test_criterion_4_cylinder_asymptotics(shock_runs):
    t0 = time.time()
    scales = [2.0 ** -k for k in range(3, 9)]
    atoms = fx.burgers_dissipation_measure(STANDING, 1.0, 4096)
    center = atoms.support_points()[2048][None, :]
    ladder = am.density_ladder(atoms, 1.0, 1.0, scales, centers=center)
    finest = ladder.densities[-3:]
    ok = all(abs(rho / (4.0 / 3.0) - 1) <= 0.05 for rho in finest)
    report("on-shock density converges to 4/3 within 5%", ok,
           "densities " + ", ".join(f"{rho:.4f}" for rho in finest))

    off_ok = []
    for delta in scales:
        on = am.cylinder_mass(atoms, Cylinder((0.0, 0.5), delta, 1.0))
        off = am.cylinder_mass(atoms, Cylinder((4 * delta, 0.5), delta, 1.0))
        off_ok.append(off < 1e-3 * on)
    run = shock_runs(1e-4)
    delta_v = 5e-4
    on_v = am.cylinder_mass(run.dissipation, Cylinder((0.0, 0.5), delta_v, 1.0))
    off_v = am.cylinder_mass(run.dissipation,
                             Cylinder((4 * delta_v, 0.5), delta_v, 1.0))
    off_ok.append(off_v < 1e-3 * on_v)
    report("off-shock cylinders (distance 4*delta) below 1e-3 of on-shock",
           all(off_ok), f"viscous ratio {off_v / on_v:.2e}")

    field = fx.burgers_entropy_solution(STANDING, -1.0, 1.0, 2048, 1.0, 2048)
    rows = []
    for delta in scales:
        cut = co.CutoffPair.build((0.0, 0.5), delta, 1.0)
        rep = wb.holder_cylinder_bound(field, cut, INF, INF, pair=wb.BURGERS_PAIR)
        rows.append(rep.weak_mass <= rep.holder_bound * (1 + 1e-9))
    report("weak mass below its explicit bound on every sweep row", all(rows),
           f"{len(rows)} rows")
    elapsed_ok("cylinder asymptotics", t0, 60.0)


# ---------------------------------------------------------------------------
# 5. Balance extended to the terminal time.
# ---------------------------------------------------------------------------

def test_criterion_5_terminal_time_balance(shock_runs):
    t0 = time.time()
    residuals = {}
    for nu in (1e-2, 1e-3):
        run = shock_runs(nu, T=0.05, nt=501)
        hw = run.field.b
        space = co.SpatialTestFunction(
            [co.PlateauProfile(-hw / 2, hw / 2, hw / 3, profile="quintic")])
        phi = co.SpaceTimeTestFunction(
            space, co.PlateauProfile(0.025, INF, 0.015, profile="quintic"))
        interior, terminal, nupair = wb.boundary_extended_mass(run.field, phi,
                                                               pair=wb.BURGERS_PAIR, nu=nu)
        residuals[nu] = abs(interior - nupair - terminal) / terminal
    ok = all(r < 0.02 for r in residuals.values())
    report("terminal-time balance within 2% for nu in {1e-2, 1e-3}", ok,
           ", ".join(f"nu={nu:g}: {r:.4f}" for nu, r in residuals.items()))
    elapsed_ok("terminal-time balance", t0, 60.0)


# ---------------------------------------------------------------------------
# 6. Property suites.
# ---------------------------------------------------------------------------

def _pairing_majorant(field, pair, phi):
    """L1 majorant of the entropy pairing under the same quadrature."""
    mesh = field.spatial_mesh()
    ts = field.t_axis
    eta = pair.eta_fn(field)
    q = sum(flux(field, eta) for flux in pair.fluxes.values())
    wsp = field.spatial_weights()
    _, wt = field.axis_weights()
    d = field.d
    sp_axes = tuple(range(1, 1 + d))
    a = np.sum(np.abs(eta) * (wsp * phi.space.value(mesh))[None], axis=sp_axes)
    flux = np.abs(np.einsum("t...i,...i->t...", q, phi.space.gradient(mesh)))
    b = np.sum(flux * wsp[None], axis=sp_axes)
    return float(np.sum(wt * (a * np.abs(phi.time.deriv(ts)) + b * phi.time.value(ts))))


def test_criterion_6_smooth_solution_nullity():
    t0 = time.time()
    ratios = {}

    field = fx.constant_field([0.4, -0.3], 2, -1.0, 1.0, 96, 1.0, 96)
    cut = co.CutoffPair.build((0.0, 0.0, 0.5), 0.15, 1.0)
    rep = wb.holder_cylinder_bound(field, cut, INF, INF)
    ratios["constant"] = abs(rep.weak_mass) / rep.holder_bound

    shear = fx.decaying_shear_field(0.0, 1.0, 0.0, 2 * math.pi, 256, 4.0, 256)
    cut = co.CutoffPair.build((2.1, 3.3, 1.7), 0.5, 1.0)
    rep = wb.holder_cylinder_bound(shear, cut, INF, INF)
    ratios["steady shear"] = abs(rep.weak_mass) / rep.holder_bound

    fan = fx.burgers_entropy_solution(fx.RiemannDatum(-1.0, 1.0), -2.0, 2.0, 2048, 1.0, 1024)
    space = co.SpatialTestFunction([co.PlateauProfile(-1.0, 1.0, 0.4)])
    phi = co.SpaceTimeTestFunction(space, co.PlateauProfile(0.2, 0.8, 0.1))
    ratios["rarefaction"] = (abs(wb.pair_weak_mass(fan, wb.BURGERS_PAIR, phi).weak_mass)
                             / _pairing_majorant(fan, wb.BURGERS_PAIR, phi))

    smooth = fx.burgers_smooth_solution(-1.0, 1.0, 513, 0.2, 257)
    space = co.SpatialTestFunction([co.PlateauProfile(-0.5, 0.5, 0.25)])
    phi = co.SpaceTimeTestFunction(space, co.PlateauProfile(0.05, 0.15, 0.025))
    ratios["smooth wave"] = (abs(wb.pair_weak_mass(smooth, wb.BURGERS_PAIR, phi).weak_mass)
                             / _pairing_majorant(smooth, wb.BURGERS_PAIR, phi))

    ok = all(r < 1e-2 for r in ratios.values())
    report("smooth-solution nullity on 4 fixtures (rel 1e-2)", ok,
           ", ".join(f"{k}: {v:.2e}" for k, v in ratios.items()))
    elapsed_ok("smooth nullity", t0, 60.0)


def test_criterion_6_grid_refinement_order():
    t0 = time.time()
    orders = []

    vals = []
    for n, nt in ((129, 65), (257, 129), (513, 257)):
        field = fx.burgers_smooth_solution(-1.0, 1.0, n, 0.2, nt)
        space = co.SpatialTestFunction([co.PlateauProfile(-0.5, 0.5, 0.25)])
        phi = co.SpaceTimeTestFunction(space, co.PlateauProfile(0.05, 0.15, 0.025))
        vals.append(wb.pair_weak_mass(field, wb.BURGERS_PAIR, phi).weak_mass)
    orders.append(math.log2(abs(vals[0]) / abs(vals[1])))
    orders.append(math.log2(abs(vals[1]) / abs(vals[2])))

    vals = []
    for n in (49, 97, 193):
        field = fx.decaying_shear_field(0.05, math.pi / 2, 0.0, 4.0, n, 4.0, n)
        space = co.SpatialTestFunction(
            [co.PlateauProfile(1.0, 3.0, 0.5, profile="quintic")] * 2)
        phi = co.SpaceTimeTestFunction(space, co.PlateauProfile(1.5, INF, 1.0, profile="quintic"))
        interior, terminal, grad_mass = wb.boundary_extended_mass(field, phi, nu=0.05)
        vals.append(interior - grad_mass - terminal)
    orders.append(math.log2(abs(vals[0]) / abs(vals[1])))
    orders.append(math.log2(abs(vals[1]) / abs(vals[2])))

    report("grid-refinement order >= 1.5 on smooth fixtures", min(orders) >= 1.5,
           "orders " + ", ".join(f"{o:.2f}" for o in orders))
    elapsed_ok("refinement order", t0, 60.0)


def test_criterion_6_alpha_monotonicity():
    t0 = time.time()
    scales = [2.0 ** -k for k in range(2, 7)]
    rng = np.random.default_rng(0)
    xs = np.linspace(0, 1, 20000, endpoint=False)
    gx = (np.arange(64) + 0.5) / 64
    gt = (np.arange(4096) + 0.5) / 4096
    fixtures = {
        "time slab d=2": fx.time_singular_measure_fixture(2, 300000, seed=2).support_points(),
        "diagonal": np.column_stack([xs, xs]),
        "full cube": np.stack(np.meshgrid(gx, gt, indexing="ij"), axis=-1).reshape(-1, 2),
        "shock path": fx.burgers_dissipation_measure(STANDING, 1.0, 4096).support_points(),
        "random cloud": rng.random((100000, 2)),
    }
    # at scales below 1 a larger alpha thins the temporal cells, so the
    # estimate may not drop from alpha = 1 to alpha = 2 by more than 0.15
    outcomes = {name: [am.box_counting_dimension(pts, alpha, scales).dim_estimate
                       for alpha in (1.0, 2.0)]
                for name, pts in fixtures.items()}
    ok = not any(e2 < e1 - 0.15 for e1, e2 in outcomes.values())
    report("alpha-monotonicity never violated on 5 fixture sets", ok,
           ", ".join(f"{k}: {e1:.2f}->{e2:.2f}" for k, (e1, e2) in outcomes.items()))
    elapsed_ok("alpha monotonicity", t0, 60.0)


def test_criterion_6_cli_determinism(tmp_path):
    t0 = time.time()
    measure_path = str(tmp_path / "shock.measure")
    dio.write_measure(measure_path,
                      fx.burgers_dissipation_measure(STANDING, 1.0, 2048), binary=True)
    commands = [
        [sys.executable, "-m", "dissdim.cli", "exponents", "--regime", "euler",
         "--d", "3", "--q", "inf", "--r", "9/2"],
        [sys.executable, "-m", "dissdim.cli", "dimension", "--input", measure_path,
         "--alpha", "1", "--delta-max", "0.125", "--count", "6"],
    ]
    identical = []
    for cmd in commands:
        a = subprocess.run(cmd, capture_output=True)
        b = subprocess.run(cmd, capture_output=True)
        identical.append(a.returncode == b.returncode == 0 and a.stdout == b.stdout)
    report("byte-identical CLI reruns", all(identical))
    elapsed_ok("determinism", t0, 60.0)


# ---------------------------------------------------------------------------
# 7. Dimension certification consistency.
# ---------------------------------------------------------------------------

def _criterion7_fixtures():
    out = {}

    m = 1024
    square = fx.grid_measure(1, m, m)
    sup = square.support_points()
    center = sup[np.argmin(np.sum((sup - [0.5, 0.5]) ** 2, axis=1))][None, :]
    scales = [(k + 0.5) / m for k in (255, 127, 63, 31, 15, 7, 3, 1)]
    out["uniform square"] = (square, 2.0, scales, center)

    dirac = am.AtomicMeasure([[0.5, 0.5]], [1.0])
    out["dirac"] = (dirac, 0.0, scales, dirac.support_points())

    shock = fx.burgers_dissipation_measure(STANDING, 1.0, 4096)
    dt = 1.0 / 4096
    shock_scales = [(k + 0.5) * dt for k in (255, 127, 63, 31, 15, 7, 3, 1)]
    out["shock measure"] = (shock, 1.0, shock_scales, shock.support_points()[2048][None, :])

    slab = fx.grid_measure(2, 512, 1)
    sup = slab.support_points()
    center = sup[np.argmin(np.sum((sup[:, :2] - 0.5) ** 2, axis=1))][None, :]
    slab_scales = [(k + 0.5) / 512 for k in (255, 127, 63, 31, 15, 7, 3, 1)]
    out["time slab d=2"] = (slab, 2.0, slab_scales, center)
    return out


def test_criterion_7_certified_exponents():
    t0 = time.time()
    results = {}
    for name, (mu, s_true, scales, centers) in _criterion7_fixtures().items():
        ladder = am.density_ladder(mu, 1.0, s_true, scales, centers=centers)
        certified, verdict = am.certify_lower_bound(ladder)
        results[name] = (certified, verdict == "certified"
                         and abs(certified - s_true) <= 0.15)
    ok = all(good for _, good in results.values())
    report("certified exponent within 0.15 on 4 reference measures", ok,
           ", ".join(f"{k}: {v:.3f}" for k, (v, _) in results.items()))
    elapsed_ok("certification", t0, 30.0)


def test_criterion_7_premeasure_growth(covering_estimates):
    """Covering-estimate growth at exponent deficit 0.2.

    The covering estimate at cap delta equals N(delta) * delta**s' with
    N(delta) the occupied lattice-cell count.  For a set of box dimension s,
    N(delta / 4) / N(delta) -> 4**s, so at s' = s - 0.2 the estimate grows by
    4**0.2 = 2**0.4 ~ 1.3195 per two cap-halvings: that growth without bound
    as the cap shrinks is H^(s - 0.2) = infinity.

    Each reference set is a midpoint lattice of dyadic spacing in the unit
    cube (or a single point).  At a dyadic cap 2**-k the origin-anchored
    cells tile [0, 1) exactly: each of the s axes the set spreads along holds
    2**k occupied cells and every other axis one, so N = 2**(k s) exactly and
    the estimate grows by 2**0.2 per halving and 4**0.2 per two, to rounding.
    At the ladder caps scales[2] * 2**-j, which are not dyadic, the last
    cell along an axis is cut off by [0, 1]; N carries a ceil() edge term
    and the rate is only approached, so there the check is that the
    estimate grows strictly at every halving.
    """
    t0 = time.time()
    deficit = 0.2
    growths, dyadic_ok, ladder_ok = {}, {}, {}
    for name, (mu, s_true, scales, _) in _criterion7_fixtures().items():
        pts = mu.support_points()
        dyadic = covering_estimates(pts, s_true - deficit, [2.0 ** -k for k in (4, 5, 6)])
        growths[name] = dyadic[2] / dyadic[0]
        dyadic_ok[name] = (growths[name] == pytest.approx(4 ** deficit, rel=1e-12)
                           and dyadic[1] / dyadic[0] == pytest.approx(2 ** deficit, rel=1e-12))
        caps = [scales[2] * 2.0 ** -j for j in range(3)]
        vals = covering_estimates(pts, s_true - deficit, caps)
        ladder_ok[name] = all(b > a for a, b in zip(vals, vals[1:]))
    detail = ", ".join(f"{k}: {g:.6f}x" for k, g in growths.items())
    not_strict = [k for k, good in ladder_ok.items() if not good]
    if not_strict:
        detail += "; ladder not strictly growing: " + ", ".join(not_strict)
    report(f"covering estimate at s-{deficit:g} grows 4^{deficit:g} per two "
           "dyadic cap-halvings and strictly on the ladder",
           all(dyadic_ok.values()) and all(ladder_ok.values()), detail)
    elapsed_ok("premeasure growth", t0, 30.0)


# ---------------------------------------------------------------------------
# 8. Sharpness of the Hoelder bound.
# ---------------------------------------------------------------------------

def test_criterion_8_holder_bound_ratios():
    """Largest weak_mass / holder_bound per entropy pair over a fixed sweep.

    Gaussian blobs sit where |grad chi| peaks (1.5 delta from the center) on
    the diagonal, the anti-diagonal and the last axis, with the velocity in
    component 0 or along that direction, at amplitudes 100 and -1e-60, at
    d = 1, 2, 3, over (q, r) in {3, 9/2, inf}^2 and nu in {0, 0.01}.  Each
    ratio must be at most 1: the bound dominates the weak mass exactly; the
    largest one states how sharp the realized constants are.
    """
    from test_weak_balance import blob_field, diagonal

    t0 = time.time()
    pairs = {"burgers": (wb.BURGERS_PAIR, None), "euler p=0": (wb.EULER_ENERGY_PAIR, 0.0),
             "euler p!=0": (wb.EULER_ENERGY_PAIR, 1.0)}
    worst = dict.fromkeys(pairs, -INF)
    for d, nx in ((1, 41), (2, 25), (3, 17)):
        delta = 0.15
        cut = co.CutoffPair.build((0.5,) * d + (0.5,), delta, 1.0)
        blobs = itertools.product((diagonal(d), diagonal(d, -1.0), np.eye(d)[d - 1]),
                                  (False, True), (100.0, -1e-60), pairs.items())
        for e, along, amplitude, (name, (pair, pressure)) in blobs:
            field = blob_field(d, nx, amplitude, 1.5 / (nx - 1), e, 1.5 * delta, delta, 1.0,
                               along, None if pressure is None else pressure * amplitude)
            for q, r, nu in itertools.product((3, 4.5, INF), (3, 4.5, INF), (0.0, 0.01)):
                rep = wb.holder_cylinder_bound(field, cut, q, r, pair=pair, nu=nu)
                worst[name] = max(worst[name], rep.weak_mass / rep.holder_bound)
    report("weak_mass / holder_bound <= 1 for every pair",
           all(v <= 1.0 for v in worst.values()),
           ", ".join(f"{k}: {v:.4f}" for k, v in worst.items()))
    elapsed_ok("Hoelder bound sweep", t0, 30.0)
