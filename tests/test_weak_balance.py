import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dissdim import cutoffs as co
from dissdim import fixtures as fx
from dissdim import io as dio
from dissdim import weak_balance as wb
from dissdim.cli import main
from dissdim.errors import VerificationError
from dissdim.fields import GriddedField

INF = math.inf


@pytest.fixture(scope="module")
def shock_field():
    return fx.burgers_entropy_solution(fx.RiemannDatum(1.0, -1.0), -1.0, 1.0, 2048, 1.0, 2048)


@pytest.fixture(scope="module")
def shear_field():
    return fx.decaying_shear_field(0.0, 1.0, 0.0, 2 * math.pi, 192, 4.0, 192)


def shock_phi(t_lo=0.1, t_hi=0.9, t_ramp=0.05):
    space = co.SpatialTestFunction([co.PlateauProfile(-0.5, 0.5, 0.2)])
    time = co.PlateauProfile(t_lo, t_hi, t_ramp)
    return co.SpaceTimeTestFunction(space, time), time.integral


class _SumOfTimeFactors:
    """H1 + H2 as one time factor."""

    def __init__(self, *factors):
        self.factors = factors

    def value(self, t):
        return sum(h.value(t) for h in self.factors)

    def deriv(self, t):
        return sum(h.deriv(t) for h in self.factors)

    @property
    def support(self):
        return (min(h.support[0] for h in self.factors),
                max(h.support[1] for h in self.factors))


class TestEntropyProduction:
    def test_constant_solution_vanishes(self):
        field = fx.constant_field([0.7], 1, -1.0, 1.0, 128, 1.0, 64)
        phi, _ = shock_phi()
        assert abs(wb.pair_weak_mass(field, wb.BURGERS_PAIR, phi).weak_mass) < 1e-12

    def test_standing_shock_rate(self, shock_field):
        phi, time_mass = shock_phi()
        pairing = wb.pair_weak_mass(shock_field, wb.BURGERS_PAIR, phi).weak_mass
        rate = pairing / time_mass
        assert rate == pytest.approx(2.0 / 3.0, rel=0.02)

    def test_one_sided_phi_vanishes(self, shock_field):
        space = co.SpatialTestFunction([co.PlateauProfile(0.3, 0.6, 0.1)])
        phi = co.SpaceTimeTestFunction(space, co.PlateauProfile(0.2, 0.8, 0.05))
        assert abs(wb.pair_weak_mass(shock_field, wb.BURGERS_PAIR, phi).weak_mass) < 1e-4

    def test_rarefaction_produces_nothing(self):
        field = fx.burgers_entropy_solution(fx.RiemannDatum(-1.0, 1.0), -2.0, 2.0, 2048, 1.0, 1024)
        space = co.SpatialTestFunction([co.PlateauProfile(-1.0, 1.0, 0.4)])
        for t_window in [(0.1, 0.5), (0.3, 0.9)]:
            phi = co.SpaceTimeTestFunction(space, co.PlateauProfile(*t_window, 0.05))
            assert abs(wb.pair_weak_mass(field, wb.BURGERS_PAIR, phi).weak_mass) < 2e-3

    def test_linearity_in_phi(self, shock_field):
        # X*H1 + X*H2 = X*(H1 + H2): the pairing is additive up to summation
        # order (the sum's window is the union of the two windows)
        phi1, _ = shock_phi(0.1, 0.5)
        phi2, _ = shock_phi(0.4, 0.9)
        phi12 = co.SpaceTimeTestFunction(phi1.space, _SumOfTimeFactors(phi1.time, phi2.time))
        p1 = wb.pair_weak_mass(shock_field, wb.BURGERS_PAIR, phi1).weak_mass
        p2 = wb.pair_weak_mass(shock_field, wb.BURGERS_PAIR, phi2).weak_mass
        p12 = wb.pair_weak_mass(shock_field, wb.BURGERS_PAIR, phi12).weak_mass
        assert p12 == pytest.approx(p1 + p2, rel=1e-12, abs=1e-14)

    def test_margin_enforced(self, shock_field):
        space = co.SpatialTestFunction([co.PlateauProfile(-0.99, 0.99, 0.02)])
        phi = co.SpaceTimeTestFunction(space, co.PlateauProfile(0.2, 0.8, 0.05))
        with pytest.raises(wb.MarginError):
            wb.pair_weak_mass(shock_field, wb.BURGERS_PAIR, phi).weak_mass

    def test_nonnegative_against_nonnegative_phi(self, shock_field):
        phi, _ = shock_phi()
        assert wb.pair_weak_mass(shock_field, wb.BURGERS_PAIR, phi).weak_mass > -1e-10

    def test_passive_scalar_pair_constant_scalar(self):
        field = fx.constant_field([0.5], 1, -1.0, 1.0, 128, 1.0, 64)
        field = dataclasses.replace(field, scalars={**field.scalars,
                                                    "theta": np.ones((64, 128)) * 2.0})
        phi, _ = shock_phi()
        val = wb.pair_weak_mass(field, wb.PASSIVE_SCALAR_PAIR, phi).weak_mass
        assert abs(val) < 1e-12

    def test_passive_scalar_transported_profile(self):
        # theta(x, t) = theta0(x - c t) carried by constant velocity c:
        # an exact transport solution, so the scalar pairing vanishes
        c, nx, nt = 0.3, 513, 257
        field = fx.constant_field([c], 1, -1.0, 1.0, nx, 0.5, nt)
        xs = field.x_axis
        ts = field.t_axis
        theta = np.cos(2 * math.pi * (xs[None, :] - c * ts[:, None]))
        field = dataclasses.replace(field, scalars={**field.scalars, "theta": theta})
        phi, _ = shock_phi(0.1, 0.4, 0.05)
        val = wb.pair_weak_mass(field, wb.PASSIVE_SCALAR_PAIR, phi).weak_mass
        assert abs(val) < 2e-4

    def test_passive_scalar_pair_needs_theta(self):
        field = fx.constant_field([0.5], 1, -1.0, 1.0, 64, 1.0, 32)
        phi, _ = shock_phi()
        with pytest.raises(ValueError):
            wb.pair_weak_mass(field, wb.PASSIVE_SCALAR_PAIR, phi).weak_mass


class TestCutoffMasses:
    def test_constant_field_weak_mass_zero(self):
        field = fx.constant_field([0.4, -0.3], 2, -1.0, 1.0, 96, 1.0, 96)
        cut = co.CutoffPair.build((0.0, 0.0, 0.5), 0.15, 1.0)
        rep = wb.pair_weak_mass(field, wb.EULER_ENERGY_PAIR, cut)
        assert abs(rep.weak_mass) < 1e-10

    def test_shear_flow_weak_mass_small(self, shear_field):
        cut = co.CutoffPair.build((math.pi, math.pi, 2.0), 0.5, 1.0)
        rep = wb.pair_weak_mass(shear_field, wb.EULER_ENERGY_PAIR, cut)
        # exact solution: mass is pure quadrature error
        assert abs(rep.weak_mass) < 1e-3

    def test_requires_pressure(self, shock_field):
        # one check in the kernel serves every entry point of a pair with flux III
        cut = co.CutoffPair.build((0.0, 0.5), 0.1, 1.0)
        phi = co.SpaceTimeTestFunction(cut.chi, cut.eta)
        euler = wb.EULER_ENERGY_PAIR
        for call in (lambda: wb.pair_weak_mass(shock_field, euler, cut),
                     lambda: wb.pair_weak_mass(shock_field, euler, cut, nu=0.01),
                     lambda: wb.holder_cylinder_bound(shock_field, cut, INF, INF, pair=euler),
                     lambda: wb.pair_weak_mass(shock_field, euler, phi).weak_mass,
                     lambda: wb.boundary_extended_mass(shock_field, phi, pair=euler)):
            with pytest.raises(ValueError, match="pressure field"):
                call()

    def test_shock_weak_mass_upper_bounds_cylinder(self, shock_field):
        # the cutoff-tested mass at the shock is (2/3) * time-mass of eta:
        # bracketed between the strict cylinder mass (4/3)*delta and the
        # collar cylinder mass (8/3)*delta (the gap lives in the collar)
        for delta in (1.0 / 8, 1.0 / 16, 1.0 / 32):
            cut = co.CutoffPair.build((0.0, 0.5), delta, 1.0)
            rep = wb.pair_weak_mass(shock_field, wb.BURGERS_PAIR, cut)
            assert rep.weak_mass == pytest.approx(2.0 * delta, rel=0.01)
            assert (4.0 / 3.0) * delta <= rep.weak_mass <= (8.0 / 3.0) * delta

    def test_matches_entropy_production_same_cutoff(self, shock_field):
        # the momentum-form recast of the shock balance delegates to the
        # entropy pairing: testing with phi = chi * eta must agree
        cut = co.CutoffPair.build((0.0, 0.5), 0.1, 1.0)
        rep = wb.pair_weak_mass(shock_field, wb.BURGERS_PAIR, cut)
        phi = co.SpaceTimeTestFunction(cut.chi, cut.eta)
        pairing = wb.pair_weak_mass(shock_field, wb.BURGERS_PAIR, phi).weak_mass
        assert rep.weak_mass == pytest.approx(pairing, rel=0.01)

    def test_cutoff_profile_independence(self):
        # the measure, not the cutoff, is probed: swapping taper shapes moves
        # the tested mass by a few percent at most
        nu = 1e-3
        hw, h = 30 * nu, 0.05 * nu
        nx = int(round(2 * hw / h)) + 1
        run = fx.viscous_burgers_run(fx.RiemannDatum(1.0, -1.0), nu, -hw, hw, nx,
                                     0.05, 401, initial="viscous_profile")
        masses = []
        for profile in ("cubic", "quintic"):
            cut = co.CutoffPair.build((0.0, 0.025), 0.008, 1.0,
                                      profile=profile)
            masses.append(wb.pair_weak_mass(run.field, wb.BURGERS_PAIR, cut).weak_mass)
        assert masses[0] == pytest.approx(masses[1], rel=0.05)

    def test_cylinder_margin_enforced(self, shock_field):
        cut = co.CutoffPair.build((0.9, 0.5), 0.1, 1.0)
        with pytest.raises(wb.MarginError):
            wb.pair_weak_mass(shock_field, wb.BURGERS_PAIR, cut)


class TestMarginRule:
    """One rule for every pairing, read from the factors' stated supports:
    each must leave the two edge nodes free on every spatial axis and at each
    constrained end of time."""

    @pytest.fixture(scope="class")
    def field(self):
        return fx.constant_field([0.5], 1, -1.0, 1.0, 65, 1.0, 33)

    @pytest.mark.parametrize("case", ["space-off-the-grid", "time-off-the-grid",
                                      "sub-cell-bump-in-the-margin"])
    def test_support_in_the_margin_is_rejected(self, field, case):
        # phi is 0 on every node, so a node-value check passes each of them
        h = field.h
        inside = co.SpatialTestFunction([co.PlateauProfile(-0.2, 0.2, 0.1)])
        during = co.PlateauProfile(0.4, 0.6, 0.1)
        phi = {"space-off-the-grid": co.SpaceTimeTestFunction(co.SpatialBump((5.0,), 0.1), during),
               "time-off-the-grid": co.SpaceTimeTestFunction(
                   inside, co.PlateauProfile(-3.5, -3.0, 0.1)),
               "sub-cell-bump-in-the-margin": co.SpaceTimeTestFunction(
                   co.SpatialBump((-1.0 + h / 2,), h / 4), during)}[case]
        with pytest.raises(wb.MarginError):
            wb.pair_weak_mass(field, wb.BURGERS_PAIR, phi)
        with pytest.raises(wb.MarginError):
            wb.boundary_extended_mass(field, phi, pair=wb.BURGERS_PAIR)

    @pytest.mark.parametrize("axis", ["x", "t"])
    @pytest.mark.parametrize("end", [0, 1])
    def test_collar_on_the_second_node_runs_and_one_past_it_fails(self, axis, end):
        # h = dt = 1/64 and 2 delta = (2 delta)**alpha = 1/4: every coordinate
        # below is exact, so the collar ends exactly on node 1 or node n-2
        field = fx.constant_field([0.5], 1, 0.0, 1.0, 65, 1.0, 65)

        def cutoff(c):
            center = (c, 0.5) if axis == "x" else (0.5, c)
            return co.CutoffPair.build(center, 0.125, 1.0)

        on_node = (17 / 64, 47 / 64)[end]
        cut = cutoff(on_node)
        support = cut.chi.support[0] if axis == "x" else cut.eta.support
        nodes = field.x_axis if axis == "x" else field.t_axis
        assert support[end] == nodes[(1, -2)[end]]
        rep = wb.holder_cylinder_bound(field, cut, INF, INF, pair=wb.BURGERS_PAIR)
        assert abs(rep.weak_mass) < 1e-12
        with pytest.raises(wb.MarginError):
            # one float further toward the edge at 0 or 1
            wb.pair_weak_mass(field, wb.BURGERS_PAIR, cutoff(math.nextafter(on_node, end)))


class TestHolderBound:
    def test_zero_field(self):
        field = fx.constant_field([0.0], 1, -1.0, 1.0, 128, 1.0, 128)
        cut = co.CutoffPair.build((0.0, 0.5), 0.1, 1.0)
        rep = wb.holder_cylinder_bound(field, cut, INF, INF, pair=wb.BURGERS_PAIR)
        assert rep.holder_bound == 0.0

    def test_overflowing_bound_fails_closed(self):
        # |u|^3 overflows a float64: the bound is inf and the check fails
        # (u_norm ** 3 raised OverflowError before)
        field = fx.constant_field([1e110], 1, -1.0, 1.0, 65, 1.0, 65)
        cut = co.CutoffPair.build((0.0, 0.5), 0.1, 1.0)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(VerificationError, match="non-finite"):
            wb.holder_cylinder_bound(field, cut, INF, INF, pair=wb.BURGERS_PAIR)

    def test_rejects_small_exponents(self, shock_field):
        cut = co.CutoffPair.build((0.0, 0.5), 0.1, 1.0)
        with pytest.raises(ValueError):
            wb.holder_cylinder_bound(shock_field, cut, 2.5, INF, pair=wb.BURGERS_PAIR)

    @pytest.mark.parametrize("q, r", [(math.nan, INF), (INF, math.nan), (math.nan, math.nan)])
    def test_rejects_nan_exponents(self, shock_field, q, r):
        # a bad argument, not a failed dominance check (VerificationError)
        cut = co.CutoffPair.build((0.0, 0.5), 0.1, 1.0)
        with pytest.raises(ValueError, match=">= 3"):
            wb.holder_cylinder_bound(shock_field, cut, q, r, pair=wb.BURGERS_PAIR)

    def test_dominance_across_exponents(self, shock_field):
        cut = co.CutoffPair.build((0.0, 0.5), 0.05, 1.0)
        for q in (3, 4, 6, INF):
            for r in (3, 4, 6, INF):
                rep = wb.holder_cylinder_bound(shock_field, cut, q, r, pair=wb.BURGERS_PAIR)
                assert rep.weak_mass <= rep.holder_bound * (1 + 1e-9)

    def test_shock_bound_slope_is_spatial_dimension(self, shock_field):
        # sup-norm bound scales like delta for the d = 1 shock
        deltas = [2.0 ** -k for k in range(3, 9)]
        bounds = [
            wb.holder_cylinder_bound(
                shock_field,
                co.CutoffPair.build((0.0, 0.5), d_, 1.0),
                INF, INF, pair=wb.BURGERS_PAIR,
            ).holder_bound
            for d_ in deltas
        ]
        slope = np.polyfit(np.log(deltas), np.log(bounds), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_bounded_field_sup_norm_form(self, shock_field):
        # q = r = inf: bound = (M^2/2)||chi||_1 ||eta'||_1 + (M^3/3)||gchi||_1 ||eta||_1
        delta = 0.125
        cut = co.CutoffPair.build((0.0, 0.5), delta, 1.0)
        rep = wb.holder_cylinder_bound(shock_field, cut, INF, INF, pair=wb.BURGERS_PAIR)
        m = rep.local_norms["u_LqLr"]
        expected = (0.5 * m ** 2 * 3 * delta * 2.0 + (1.0 / 3.0) * m ** 3 * 2.0 * 3 * delta)
        assert rep.holder_bound == pytest.approx(expected, rel=0.01)

    def test_euler_mode_includes_pressure_norm(self, shear_field):
        cut = co.CutoffPair.build((math.pi, math.pi, 2.0), 0.4, 1.0)
        rep = wb.holder_cylinder_bound(shear_field, cut, 4, 6)
        assert "p_Lq2Lr2" in rep.local_norms
        assert rep.weak_mass <= rep.holder_bound * (1 + 1e-9)

    def test_euler_mode_dominance_across_exponents(self):
        # a field with nontrivial pressure so all three bound terms engage
        field = fx.decaying_shear_field(0.05, 1.0, 0.0, 2 * math.pi, 96, 4.0, 96)
        p = 0.1 + 0.05 * np.sin(field.spatial_mesh()[..., 0])[None, :]
        field = dataclasses.replace(field, scalars={"p": np.broadcast_to(p, field.u.shape[:-1])})
        cut = co.CutoffPair.build((math.pi, math.pi, 2.0), 0.4, 1.0)
        for q in (3, 4, 7, INF):
            for r in (3, 5, INF):
                rep = wb.holder_cylinder_bound(field, cut, q, r)
                assert rep.weak_mass <= rep.holder_bound * (1 + 1e-9)
                rep_nu = wb.holder_cylinder_bound(field, cut, q, r, nu=0.05)
                assert rep_nu.weak_mass <= rep_nu.holder_bound * (1 + 1e-9)

    def test_euler_pair_mode_matches_split_flux(self, shear_field):
        # the pair carries the split II + III itself, so the bare balance and
        # the balance under the Hoelder bound make the same pairing
        cut = co.CutoffPair.build((2.1, 3.3, 1.7), 0.4, 1.0)
        via_pair = wb.pair_weak_mass(shear_field, wb.EULER_ENERGY_PAIR, cut)
        split = wb.holder_cylinder_bound(shear_field, cut, INF, INF, pair=wb.EULER_ENERGY_PAIR)
        assert list(via_pair.terms) == ["I", "II", "III"]
        assert via_pair.terms == split.terms
        assert via_pair.weak_mass == split.weak_mass

    def test_euler_pair_fluxes_sum_to_the_energy_flux(self):
        rng = np.random.default_rng(3)
        u, p = rng.normal(size=(5, 7, 7, 2)), rng.normal(size=(5, 7, 7))
        field = GriddedField(2, 0.0, 1.0, 7, 1.0, 5, u, {"p": p})
        total = sum(flux(field) for flux in wb.EULER_ENERGY_PAIR.fluxes.values())
        np.testing.assert_allclose(total, u * (0.5 * np.sum(u ** 2, axis=-1) + p)[..., None],
                                   rtol=1e-14, atol=1e-14)

    def test_bound_follows_the_pair_not_its_label(self):
        # a Burgers pair that happens to carry the Euler label keeps its own
        # flux: no pressure term, no pressure field needed
        field = fx.burgers_entropy_solution(fx.RiemannDatum(1.0, -1.0), -1.0, 1.0, 257, 1.0, 129)
        cut = co.CutoffPair.build((0.0, 0.5), 0.125, 1.0)
        relabelled = dataclasses.replace(wb.BURGERS_PAIR, label="euler_energy")
        rep = wb.holder_cylinder_bound(field, cut, INF, INF, pair=relabelled)
        ref = wb.holder_cylinder_bound(field, cut, INF, INF, pair=wb.BURGERS_PAIR)
        assert rep.terms == ref.terms
        assert list(rep.terms) == ["I", "II"]
        assert (rep.weak_mass, rep.holder_bound) == (ref.weak_mass, ref.holder_bound)

    def test_ns_mode_adds_laplacian_term(self, shear_field):
        cut = co.CutoffPair.build((math.pi, math.pi, 2.0), 0.4, 2.0,
                                  profile="quintic")
        rep = wb.holder_cylinder_bound(shear_field, cut, 4, 6, nu=0.05)
        assert "IV" in rep.terms
        assert rep.weak_mass <= rep.holder_bound * (1 + 1e-9)


def blob_field(d, nx, amplitude, width, direction, rho, delta=0.125, alpha=1.0,
               along=False, pressure=None):
    """A Gaussian blob of velocity at 0.5 - rho * direction (unit vector),
    switched on inside the time plateau |t - 1/2| < delta**alpha of the
    cutoff centered at (1/2, ..., 1/2; 1/2), on [0, 1]^d x [0, 1] with nt = nx.
    The velocity is ``amplitude`` times the blob in component 0, or along
    ``direction``; ``pressure`` (a number) adds p = pressure * blob.  With
    rho = 1.5 * delta the blob sits where |grad chi| peaks, and grad chi is
    parallel to ``direction`` there."""
    axis = np.linspace(0.0, 1.0, nx)
    mesh = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1)
    e = np.asarray(direction, dtype=float)
    blob = np.exp(-np.sum((mesh - (0.5 - rho * e)) ** 2, axis=-1) / (2 * width ** 2))
    on = (np.abs(axis - 0.5) < delta ** alpha).astype(float)[(slice(None),) + (None,) * d]
    vec = e if along else np.eye(d)[0]
    u = amplitude * (on * blob)[..., None] * vec
    scalars = {} if pressure is None else {"p": pressure * on * blob}
    return GriddedField(d, 0.0, 1.0, nx, 1.0, nx, u, scalars)


def diagonal(d, sign=1.0):
    return np.full(d, sign / math.sqrt(d))


class TestBroadcastFluxBound:
    """The Burgers flux u_0^3/3 has one component, which the pairing applies
    to every axis: at d >= 2 term II is Q * sum_i d_i chi, up to sqrt(d) times
    Q * |grad chi|, so its bound uses ||sum_i d_i chi||."""

    # each failed dominance with the ||grad chi|| bound
    # (d = 2: weak_mass 1008.4 > bound 783.9; d = 3: 88.3 > 62.4)
    @pytest.mark.parametrize("d, nx, width", [(2, 33, 0.02), (3, 25, 0.03)])
    def test_blob_along_the_diagonal_is_dominated(self, d, nx, width):
        field = blob_field(d, nx, 100.0, width, diagonal(d), 1.5 * 0.125)
        cut = co.CutoffPair.build((0.5,) * d + (0.5,), 0.125, 1.0)
        rep = wb.holder_cylinder_bound(field, cut, 3, 3, pair=wb.BURGERS_PAIR)
        assert 0.5 < rep.weak_mass <= rep.holder_bound
        norms = rep.local_norms
        assert norms["grad_chi"] < norms["sum_grad_chi"]
        assert norms["sum_grad_chi"] <= math.sqrt(d) * norms["grad_chi"] * (1 + 1e-12)

    def test_cli_verifies_the_blob_field(self, tmp_path):
        path = tmp_path / "blob.field"
        dio.write_field(path, blob_field(2, 33, 100.0, 0.02, diagonal(2), 1.5 * 0.125))
        assert main(["verify", "--input", str(path), "--pair", "burgers", "--q", "3",
                     "--r", "3", "--center", "0.5,0.5:0.5", "--delta-max", "0.125",
                     "--count", "3", "--csv", str(tmp_path / "sweep.csv")]) == 0

    @pytest.mark.parametrize("pair", [wb.BURGERS_PAIR, wb.EULER_ENERGY_PAIR])
    def test_full_width_and_one_dimensional_fluxes_keep_the_gradient_norm(self, pair):
        for d in (1, 2):
            field = blob_field(d, 33, 100.0, 0.02, diagonal(d), 1.5 * 0.125, pressure=1.0)
            cut = co.CutoffPair.build((0.5,) * d + (0.5,), 0.125, 1.0)
            rep = wb.holder_cylinder_bound(field, cut, 3, 3, pair=pair)
            broadcast = pair is wb.BURGERS_PAIR and d > 1
            assert ("sum_grad_chi" in rep.local_norms) == broadcast

    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([1, 2, 3]),
           direction=st.one_of(st.just("diagonal"), st.just("anti-diagonal"), st.just("axis"),
                               st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)),
           rho=st.floats(1.0, 2.0), width=st.floats(1.0, 3.0),
           amplitude=st.floats(-90.0, 3.0).map(lambda e: 10.0 ** e),
           sign=st.sampled_from([1.0, -1.0]),
           along=st.booleans(), alpha=st.sampled_from([1.0, 2.0]),
           pair=st.sampled_from(["burgers", "euler", "euler-p"]),
           q=st.sampled_from([3, 4.5, INF]), r=st.sampled_from([3, 4.5, INF]),
           nu=st.sampled_from([0.0, 0.01]))
    def test_blobs_along_grad_chi_are_dominated(self, d, direction, rho, width, amplitude,
                                                sign, along, alpha, pair, q, r, nu):
        amplitude *= sign
        nx, delta = {1: (41, 0.15), 2: (25, 0.15), 3: (17, 0.15)}[d]
        if direction == "diagonal":
            e = diagonal(d)
        elif direction == "anti-diagonal":
            e = diagonal(d, -1.0)
        elif direction == "axis":
            e = np.eye(d)[d - 1]
        else:
            e = np.asarray(direction[:d])
            if not np.linalg.norm(e) > 0.1:
                e = diagonal(d)
            e = e / np.linalg.norm(e)
        field = blob_field(d, nx, amplitude, width / (nx - 1), e, rho * delta, delta, alpha,
                           along, None if pair == "burgers" else (0.0 if pair == "euler" else
                                                                  amplitude))
        cut = co.CutoffPair.build((0.5,) * d + (0.5,), delta, alpha)
        entropy_pair = wb.BURGERS_PAIR if pair == "burgers" else wb.EULER_ENERGY_PAIR
        rep = wb.holder_cylinder_bound(field, cut, q, r, pair=entropy_pair, nu=nu)
        assert rep.weak_mass <= rep.holder_bound * (1 + wb.DOMINANCE_TOL)


class TestTinyAmplitudes:
    """A norm at finite p divides by the largest value before the power, so
    |u|^r does not underflow to 0 while the weak mass (|u|^3) stays above it."""

    def test_holder_bound_does_not_underflow(self):
        # failed with "weak_mass 3.81e-239 > bound 0.0" when |u|^4.5 underflowed
        field = blob_field(2, 25, 1.43e-79, 2 / 24, diagonal(2), 0.225, 0.15, 1.0)
        cut = co.CutoffPair.build((0.5, 0.5, 0.5), 0.15, 1.0)
        rep = wb.holder_cylinder_bound(field, cut, 3, 4.5, pair=wb.BURGERS_PAIR)
        assert 0 < rep.weak_mass <= rep.holder_bound
        assert rep.local_norms["u_LqLr"] > 1e-80

    @pytest.mark.parametrize("extra, rows", [
        ([], 6),
        (["--center", "0.5,0.5:0.5", "--delta-max", "0.15", "--ratio", "0.999",
          "--count", "3"], 3)])
    def test_cli_verifies_a_tiny_blob(self, tmp_path, capsys, extra, rows):
        # exited 3 at the default ladder, and the other ladder reported
        # "all_bounded": false for rows the kernel accepted (bound 0.0)
        path = tmp_path / "tiny.field"
        dio.write_field(path, blob_field(2, 25, 1e-106, 2 / 24, diagonal(2), 0.225, 0.15))
        code = main(["verify", "--input", str(path), "--pair", "burgers", "--q", "4.5",
                     "--r", "inf", "--csv", str(tmp_path / "sweep.csv")]
                    + extra)
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert (data["rows"], data["all_bounded"]) == (rows, True)

    def test_pnorm_keeps_unit_exponent_bits_and_scales_the_rest(self):
        rng = np.random.default_rng(5)
        vals, weights = rng.random((4, 50)) * 1e-200, rng.random(50)
        assert np.array_equal(wb._pnorm(vals, weights, 1), np.sum(weights * vals, axis=1))
        assert np.array_equal(wb._pnorm(vals, weights, INF), vals.max(axis=1))
        for p in (1.5, 3.0, 4.5):
            scaled = wb._pnorm(vals * 1e200, weights, p) * 1e-200
            assert wb._pnorm(vals, weights, p) == pytest.approx(scaled, rel=1e-14)
            assert wb._pnorm(vals[0], weights, p) == pytest.approx(scaled[0], rel=1e-14)
        assert wb._pnorm(np.zeros((2, 3)), np.ones(3), 4.5).tolist() == [0.0, 0.0]
        assert wb._pnorm(np.zeros((2, 0)), np.ones(0), 4.5).tolist() == [0.0, 0.0]
        assert type(wb._pnorm(vals[0], weights, 3.0)) is float


class TestNsWeakMass:
    def test_decaying_shear_identity(self):
        nu = 0.05
        field = fx.decaying_shear_field(nu, 1.0, 0.0, 2 * math.pi, 128, 4.0, 128)
        cut = co.CutoffPair.build((math.pi, math.pi, 2.0), 0.5, 2.0,
                                  profile="quintic")
        rep = wb.pair_weak_mass(field, wb.EULER_ENERGY_PAIR, cut, nu=nu)
        assert rep.weak_mass == pytest.approx(rep.grad_mass_cutoff, rel=0.02)
        assert rep.weak_mass >= rep.grad_mass_cylinder > 0

    def test_zero_field_all_terms_zero(self):
        field = fx.constant_field([0.0, 0.0], 2, -1.0, 1.0, 64, 1.0, 64)
        cut = co.CutoffPair.build((0.0, 0.0, 0.5), 0.15, 2.0)
        rep = wb.pair_weak_mass(field, wb.EULER_ENERGY_PAIR, cut, nu=0.01)
        for value in rep.terms.values():
            assert value == 0.0
        assert rep.grad_mass_cylinder == 0.0

    def test_viscous_shock_morrey_quantity(self):
        nu = 1e-3
        hw, h = 30 * nu, 0.05 * nu
        nx = int(round(2 * hw / h)) + 1
        run = fx.viscous_burgers_run(fx.RiemannDatum(1.0, -1.0), nu, -hw, hw, nx,
                                     0.05, 401, initial="viscous_profile")
        field = dataclasses.replace(run.field, scalars={"p": np.zeros(run.field.u.shape[:-1])})
        cut = co.CutoffPair.build((0.0, 0.025), 0.008, 2.0)
        rep = wb.pair_weak_mass(field, wb.EULER_ENERGY_PAIR, cut, nu=nu)
        assert rep.grad_mass_cylinder > 0
        assert rep.weak_mass >= rep.grad_mass_cylinder * (1 - 1e-9)

    def test_rejects_negative_or_non_finite_nu(self, shear_field):
        # nu = 0 is the inviscid balance; one check in the kernel rejects the
        # rest for every entry point
        cut = co.CutoffPair.build((math.pi, math.pi, 2.0), 0.4, 2.0)
        phi = co.SpaceTimeTestFunction(cut.chi, cut.eta)
        euler = wb.EULER_ENERGY_PAIR
        for nu in (-1.0, -1e-300, math.nan, INF, -INF):
            for call in (lambda: wb.pair_weak_mass(shear_field, euler, cut, nu=nu),
                         lambda: wb.holder_cylinder_bound(shear_field, cut, INF, INF, nu=nu),
                         lambda: wb.boundary_extended_mass(shear_field, phi, nu=nu)):
                with pytest.raises(ValueError, match="nu must be non-negative and finite"):
                    call()
        inviscid = wb.pair_weak_mass(shear_field, euler, cut, nu=0.0)
        assert list(inviscid.terms) == ["I", "II", "III"]
        assert inviscid.grad_mass_cutoff is None
        assert inviscid.terms == wb.pair_weak_mass(shear_field, euler, cut).terms


class TestRefinementOrder:
    # profile knots are placed on nodes of every grid in the sequence, so the
    # quadrature error carries a resolution-independent constant and the
    # observed order is clean

    def test_smooth_burgers_pairing_refines(self):
        vals = []
        for n, nt in ((129, 65), (257, 129), (513, 257)):
            field = fx.burgers_smooth_solution(-1.0, 1.0, n, 0.2, nt)
            space = co.SpatialTestFunction([co.PlateauProfile(-0.5, 0.5, 0.25)])
            phi = co.SpaceTimeTestFunction(space, co.PlateauProfile(0.05, 0.15, 0.025))
            vals.append(wb.pair_weak_mass(field, wb.BURGERS_PAIR, phi).weak_mass)
        order = math.log2(abs(vals[0]) / abs(vals[1]))
        order2 = math.log2(abs(vals[1]) / abs(vals[2]))
        assert min(order, order2) >= 1.5

    def test_boundary_identity_residual_refines(self):
        vals = []
        for n in (49, 97, 193):
            field = fx.decaying_shear_field(0.05, math.pi / 2, 0.0, 4.0, n, 4.0, n)
            space = co.SpatialTestFunction(
                [co.PlateauProfile(1.0, 3.0, 0.5, profile="quintic")] * 2)
            phi = co.SpaceTimeTestFunction(
                space, co.PlateauProfile(1.5, INF, 1.0, profile="quintic"))
            interior, terminal, nupair = wb.boundary_extended_mass(field, phi, nu=0.05)
            vals.append(interior - nupair - terminal)
        order = math.log2(abs(vals[0]) / abs(vals[1]))
        order2 = math.log2(abs(vals[1]) / abs(vals[2]))
        assert min(order, order2) >= 1.5

    def test_ns_identity_refines(self):
        gaps = []
        for n in (64, 128, 256):
            field = fx.decaying_shear_field(0.05, 1.0, 0.0, 2 * math.pi, n, 4.0, n)
            cut = co.CutoffPair.build((math.pi, math.pi, 2.0), 0.5, 2.0,
                                      profile="quintic")
            rep = wb.pair_weak_mass(field, wb.EULER_ENERGY_PAIR, cut, nu=0.05)
            gaps.append(rep.weak_mass - rep.grad_mass_cutoff)
        assert abs(gaps[2]) < abs(gaps[0])
        assert math.log2(abs(gaps[0]) / abs(gaps[2])) / 2 >= 0.75


@pytest.fixture(scope="module")
def viscous_run():
    nu = 1e-3
    hw, h = 30 * nu, 0.05 * nu
    nx = int(round(2 * hw / h)) + 1
    return fx.viscous_burgers_run(fx.RiemannDatum(1.0, -1.0), nu, -hw, hw, nx,
                                  0.05, 501, initial="viscous_profile")


class TestBoundaryExtended:
    def test_default_pair_without_pressure_is_burgers(self):
        field = fx.burgers_entropy_solution(fx.RiemannDatum(1.0, -1.0), -1.0, 1.0, 257, 1.0, 129)
        assert "p" not in field.scalars
        space = co.SpatialTestFunction([co.PlateauProfile(-0.5, 0.5, 0.2)])
        phi = co.SpaceTimeTestFunction(space, co.PlateauProfile(0.5, INF, 0.3))
        assert (wb.boundary_extended_mass(field, phi)
                == wb.boundary_extended_mass(field, phi, pair=wb.BURGERS_PAIR))

    def test_interior_phi_reduces_to_plain_balance(self, viscous_run):
        field = viscous_run.field
        hw = field.b
        space = co.SpatialTestFunction([co.PlateauProfile(-hw / 2, hw / 2, hw / 3)])
        time = co.PlateauProfile(0.01, 0.03, 0.005)
        phi = co.SpaceTimeTestFunction(space, time)
        interior, terminal, nupair = wb.boundary_extended_mass(
            field, phi, pair=wb.BURGERS_PAIR, nu=viscous_run.nu)
        assert terminal == 0.0
        plain = wb.pair_weak_mass(field, wb.BURGERS_PAIR, phi).weak_mass
        # the plain pairing lacks the diffusion-flux term; both equal the
        # dissipation pairing up to quadrature and O(nu * lap phi) effects
        assert interior == pytest.approx(nupair, rel=0.02)
        assert plain == pytest.approx(nupair, rel=0.05)

    def test_terminal_identity(self, viscous_run):
        field = viscous_run.field
        hw = field.b
        space = co.SpatialTestFunction([co.PlateauProfile(-hw / 2, hw / 2, hw / 3)])
        phi = co.SpaceTimeTestFunction(space, co.PlateauProfile(0.025, INF, 0.015))
        interior, terminal, nupair = wb.boundary_extended_mass(
            field, phi, pair=wb.BURGERS_PAIR, nu=viscous_run.nu)
        assert terminal > 0
        assert abs(interior - nupair - terminal) / terminal < 0.02

    def test_zero_field(self):
        field = fx.constant_field([0.0], 1, -1.0, 1.0, 64, 1.0, 64)
        space = co.SpatialTestFunction([co.PlateauProfile(-0.4, 0.4, 0.2)])
        phi = co.SpaceTimeTestFunction(space, co.PlateauProfile(0.5, INF, 0.3))
        interior, terminal, grad_mass = wb.boundary_extended_mass(field, phi,
                                                                  pair=wb.BURGERS_PAIR)
        assert interior == terminal == grad_mass == 0.0

    def test_rejects_phi_alive_at_t0(self, viscous_run):
        field = viscous_run.field
        hw = field.b
        space = co.SpatialTestFunction([co.PlateauProfile(-hw / 2, hw / 2, hw / 3)])
        phi = co.SpaceTimeTestFunction(space, co.PlateauProfile(0.00999, INF, 0.01999))
        with pytest.raises(wb.MarginError):
            wb.boundary_extended_mass(field, phi, pair=wb.BURGERS_PAIR)


@pytest.fixture(scope="module")
def power_law_grid():
    field = fx.PowerLawField(2, 0.5)
    return field, fx.power_law_vector_field(field, -1.0, 1.0, 512)


class TestSignedSupport:
    def test_divergence_free_field_pairs_to_zero(self):
        n = 256
        h = 2.0 / (n - 1)
        axis = -1.0 + h * np.arange(n)
        x1, x2 = np.meshgrid(axis, axis, indexing="ij")
        vals = np.stack([np.sin(x2), np.cos(x1)], axis=-1)  # divergence-free
        v = GriddedField(2, -1.0, 1.0, n, 1.0, 2, np.broadcast_to(vals, (2,) + vals.shape))
        phi = co.SpatialTestFunction([co.PlateauProfile(-0.3, 0.3, 0.3)] * 2)
        rep = wb.signed_support_bound(v, [((0.0, 0.0), 0.4)], phi, 2.0, threshold=1.0)
        assert abs(rep.full_pairing) < 1e-3

    def test_point_covering_of_integrable_density(self, power_law_grid):
        field, v = power_law_grid
        phi = co.SpatialTestFunction([co.PlateauProfile(-0.3, 0.3, 0.3)] * 2)
        reps = [
            wb.signed_support_bound(v, [((0.0, 0.0), k)], phi, 2.0, enforce_cover=False)
            for k in (0.2, 0.1, 0.05)
        ]
        # the full divergence pairing is kappa-independent and nonzero
        fulls = [r.full_pairing for r in reps]
        assert fulls[0] == pytest.approx(fulls[1], rel=1e-6)
        assert fulls[0] > 1.0
        # ... while the masked pairing decays like the covered ball mass kappa^eps
        masked = [r.pairing for r in reps]
        assert masked[1] / masked[0] == pytest.approx(2.0 ** -0.5, abs=0.05)
        assert masked[2] / masked[1] == pytest.approx(2.0 ** -0.5, abs=0.05)
        for r in reps:
            assert r.pairing <= r.bound_I + r.bound_II + 1e-9

    def test_full_pairing_matches_radial_oracle(self, power_law_grid):
        field, v = power_law_grid
        phi = co.SpatialTestFunction([co.PlateauProfile(-0.3, 0.3, 0.3)] * 2)
        rep = wb.signed_support_bound(v, [((0.0, 0.0), 0.1)], phi, 2.0,
                                      enforce_cover=False)
        # oracle: pair the pointwise divergence with phi; radial inside the
        # plateau (exact power-law mass), fine angular quadrature outside
        inner = field.c_d * 0.3 ** field.eps
        outer = _annulus_pairing(field, phi, 0.3, 0.6 * math.sqrt(2.0))
        assert rep.full_pairing == pytest.approx(inner + outer, rel=0.05)

    def test_a_ball_whose_squared_radius_overflows(self, power_law_grid):
        # delta**2 is inf, not OverflowError: the ball covers the grid, and
        # chi = 1 on phi's window leaves only the first piece
        _, v = power_law_grid
        phi = co.SpatialTestFunction([co.PlateauProfile(-0.3, 0.3, 0.3)] * 2)
        rep = wb.signed_support_bound(v, [((0.0, 0.0), 1e200)], phi, 2.0)
        assert rep.bound_II == 0.0
        assert rep.bound_I == rep.pairing == rep.full_pairing > 1.0

    def test_uncovered_cells_raise(self, power_law_grid):
        _, v = power_law_grid
        phi = co.SpatialTestFunction([co.PlateauProfile(-0.3, 0.3, 0.3)] * 2)
        with pytest.raises(wb.CoverageError):
            wb.signed_support_bound(v, [((0.0, 0.0), 0.05)], phi, 2.0)

    def test_segment_supported_divergence(self):
        n = 512
        h = 2.0 / (n - 1)
        axis = -1.0 + h * np.arange(n)
        x1, x2 = np.meshgrid(axis, axis, indexing="ij")
        vals = np.zeros((n, n, 2))
        vals[..., 0] = np.tanh(x1 / 0.01) * np.exp(-(x2 / 0.4) ** 2) * (np.abs(x2) < 0.5)
        v = GriddedField(2, -1.0, 1.0, n, 1.0, 2, np.broadcast_to(vals, (2,) + vals.shape))
        phi = co.SpatialTestFunction([co.PlateauProfile(-0.4, 0.4, 0.3)] * 2)
        pairings, firsts, seconds = [], [], []
        for k in (4, 8, 16):
            cov = [((0.0, y), 1.0 / k) for y in np.linspace(-0.6, 0.6, int(1.3 * k) + 1)]
            rep = wb.signed_support_bound(v, cov, phi, 2.0, threshold=0.5)
            pairings.append(rep.pairing)
            firsts.append(rep.bound_I)
            seconds.append(rep.bound_II)
        # chi = 1 on the divergence layer: the pairing is covering-stable
        assert max(pairings) == pytest.approx(min(pairings), rel=0.01)
        assert firsts[-1] <= max(firsts[0], 1e-12)
        assert max(seconds) < 4 * pairings[0]

    def test_rejects_small_r(self, power_law_grid):
        _, v = power_law_grid
        phi = co.SpatialTestFunction([co.PlateauProfile(-0.3, 0.3, 0.3)] * 2)
        with pytest.raises(ValueError):
            wb.signed_support_bound(v, [((0.0, 0.0), 0.2)], phi, 1.5)

    def test_rejects_nan_r(self, power_law_grid):
        _, v = power_law_grid
        phi = co.SpatialTestFunction([co.PlateauProfile(-0.3, 0.3, 0.3)] * 2)
        with pytest.raises(ValueError, match="d/\\(d-1\\)"):
            wb.signed_support_bound(v, [((0.0, 0.0), 0.2)], phi, math.nan, enforce_cover=False)


def _annulus_pairing(field, phi, rho_lo, rho_hi, n_rho=400, n_ang=720):
    """Midpoint rule in polar coordinates for phi paired with the power-law
    divergence eps * rho**(eps - d) on the annulus rho_lo < rho < rho_hi."""
    step = (rho_hi - rho_lo) / n_rho
    rho = rho_lo + (np.arange(n_rho) + 0.5) * step
    ang = 2 * math.pi * (np.arange(n_ang) + 0.5) / n_ang
    y = np.stack([np.outer(rho, np.cos(ang)), np.outer(rho, np.sin(ang))], axis=-1)
    ring = phi.value(y.reshape(-1, 2)).reshape(n_rho, n_ang).sum(axis=1) * (2 * math.pi / n_ang)
    return float(np.sum(field.eps * rho ** (field.eps - field.d) * ring * rho * step))


def steady(vals, a=-1.0, b=1.0):
    """A steady GriddedField (nt = 2) whose rows are views of ``vals``."""
    d = vals.shape[-1]
    return GriddedField(d, a, b, vals.shape[0], 1.0, 2, np.broadcast_to(vals, (2,) + vals.shape))


PLATEAU_2D = co.SpatialTestFunction([co.PlateauProfile(-0.3, 0.3, 0.3)] * 2)


class TestCoveringBalls:
    @pytest.mark.parametrize("ball", [
        ((0.0, 0.0), -0.1),        # chi would be 1 on the whole grid
        ((0.0, math.nan), 0.2),    # NaN bounds
        ((0.0,), 0.2),             # a d = 1 center on a d = 2 field
        ((0.0, 0.0), 0.0),         # divides by zero
        ((0.0, 0.0), math.inf),
        ((0.0, math.inf), 0.2),
    ])
    def test_rejects_bad_balls(self, power_law_grid, ball):
        _, v = power_law_grid
        with pytest.raises(ValueError, match="covering ball"):
            wb.signed_support_bound(v, [((0.1, 0.1), 0.2), ball], PLATEAU_2D, 2.0,
                                    enforce_cover=False)

    def test_nan_pairing_fails_the_triangle_check(self):
        class NanGradient(co.SpatialTestFunction):
            def gradient(self, y):
                return super().gradient(y) * math.nan

        phi = NanGradient([co.PlateauProfile(-2.0, 2.0, 0.5)] * 2)
        v = steady(np.ones((16, 16, 2)))
        with pytest.raises(VerificationError, match="triangle"):
            wb.signed_support_bound(v, [((0.0, 0.0), 0.2)], phi, 2.0, enforce_cover=False)

    def test_rejects_rows_that_differ(self):
        u = np.zeros((2, 16, 16, 2))
        u[1, 3, 4, 0] = 1.0
        v = GriddedField(2, -1.0, 1.0, 16, 1.0, 2, u)
        with pytest.raises(ValueError, match="steady"):
            wb.signed_support_bound(v, [((0.0, 0.0), 0.2)], PLATEAU_2D, 2.0,
                                    enforce_cover=False)

    @pytest.mark.parametrize("threshold", [math.nan, -0.5, math.inf, -math.inf])
    def test_rejects_a_threshold_that_is_not_finite_and_non_negative(self, threshold):
        # a NaN threshold would let every covering pass: no |div| > nan holds
        v = steady(np.ones((16, 16, 2)))
        with pytest.raises(ValueError, match="threshold must be finite"):
            wb.signed_support_bound(v, [((0.0, 0.0), 0.2)], PLATEAU_2D, 2.0, threshold)

    def test_rejects_a_one_dimensional_field(self):
        v = steady(np.ones((16, 1)))
        phi = co.SpatialTestFunction([co.PlateauProfile(-0.3, 0.3, 0.3)])
        with pytest.raises(ValueError, match="d >= 2"):
            wb.signed_support_bound(v, [((0.0,), 0.2)], phi, 2.0)

    @pytest.mark.parametrize("threshold, n_above", [(0.99, 17 * 17), (1.01, 0)])
    def test_divergence_of_linear_field(self, threshold, n_above):
        # V = (2 x1, -3 x2): the centered differences give div V = -1 at every node
        axis = -1.0 + 0.125 * np.arange(17)
        x1, x2 = np.meshgrid(axis, axis, indexing="ij")
        v = steady(np.stack([2.0 * x1, -3.0 * x2], axis=-1))
        rep = wb.signed_support_bound(v, [((0.0, 0.0), 10.0)], PLATEAU_2D, 2.0,
                                      threshold=threshold)
        assert rep.n_above_threshold == n_above

    def test_memory_does_not_grow_with_the_ball_count(self):
        v = fx.power_law_vector_field(fx.PowerLawField(2, 0.5), -1.0, 1.0, 256)
        centers = np.random.default_rng(1).uniform(-0.8, 0.8, (64, 2))
        peaks = []
        for n in (1, 64):
            cover = [(tuple(c), 0.02) for c in centers[:n]]
            tracemalloc.start()
            wb.signed_support_bound(v, cover, PLATEAU_2D, 2.0, enforce_cover=False)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 2 ** 20

    def test_memory_stays_below_a_whole_grid_mesh_and_weights(self):
        # a 256^2 steady field holds 1 MiB of samples; the estimate peaked at
        # 3.5 MiB when it built the whole grid's mesh and weights
        v = fx.power_law_vector_field(fx.PowerLawField(2, 1.0), -1.0, 1.0, 256)
        phi = co.SpatialTestFunction([co.PlateauProfile(-0.3, 0.3, 0.2)] * 2)
        rng = np.random.default_rng(1)
        cover = [((0.0, 0.0), 0.05)] + [(tuple(rng.uniform(-0.6, 0.6, 2)), 0.05)
                                        for _ in range(63)]
        tracemalloc.start()
        try:
            wb.signed_support_bound(v, cover, phi, 4, enforce_cover=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * v.u[0].nbytes


def whole_mesh_covering(field, covering, phi, r, threshold=None, enforce_cover=True):
    """The covering estimate on the whole mesh: every bump evaluated on every
    node and stacked below a zero layer, chi and grad chi from the stack's max
    and argmax, so chi = max(0, chi_1, ..., chi_n) and grad chi is that of the
    first layer to attain it (0 where no bump is positive), whole-grid sums.
    Returns the report's values as (value, sum of |integrand|) pairs, or
    raises CoverageError."""
    v, mesh, w = field.u[0], field.spatial_mesh(), field.spatial_weights()
    div = sum(np.gradient(v[..., i], field.h, axis=i) for i in range(field.d))
    if threshold is None:
        threshold = wb.DEFAULT_DIV_THRESHOLD * float(np.abs(div).max())
    above = np.abs(div) > threshold
    covered = np.zeros_like(above)
    for c, rad in covering:
        covered |= np.sum((mesh - np.asarray(c)) ** 2, axis=-1) < rad ** 2
    if enforce_cover and (above & ~covered).any():
        raise wb.CoverageError("oracle: the covering misses an above-threshold cell")
    bumps = [co.SpatialBump(tuple(c), rad) for c, rad in covering]
    stack = np.stack([np.zeros(mesh.shape[:-1])] + [b.value(mesh) for b in bumps])
    chi, winner = stack.max(axis=0), stack.argmax(axis=0)
    grad_chi = np.zeros(mesh.shape)
    for i, b in enumerate(bumps, start=1):
        grad_chi[winner == i] = b.gradient(mesh[winner == i])
    v_gphi = np.sum(v * phi.gradient(mesh), axis=-1)
    v_gchi_phi = np.sum(v * grad_chi, axis=-1) * phi.value(mesh)
    integrands = {"bound_I": v_gphi * chi, "bound_II": v_gchi_phi,
                  "pairing": v_gphi * chi + v_gchi_phi, "full_pairing": v_gphi}
    out = {name: (abs(float(np.sum(w * f))), float(np.sum(w * np.abs(f))))
           for name, f in integrands.items()}
    speed, w_sup = np.sqrt(np.sum(v ** 2, axis=-1))[chi > 0], w[chi > 0]
    norm = (0.0 if speed.size == 0 else float(speed.max()) if r == INF
            else float(np.sum(w_sup * speed ** r) ** (1 / r)))
    out["v_norm_on_cover"] = (norm, norm)
    return out, int(above.sum())


ORACLE_GRIDS = {2: 33, 3: 17}   # nx on [-1, 1]^d


@st.composite
def covering_cases(draw):
    d = draw(st.sampled_from([2, 3]))
    h = 2.0 / (ORACLE_GRIDS[d] - 1)
    coord = st.floats(-1.5, 1.5)   # some balls partly or wholly off the grid
    radius = st.one_of(st.floats(0.1 * h, h), st.floats(h, 0.8))   # some below h
    # the k-th of these balls lies near the node of k-th largest |div V|: they decide
    # the coverage
    aimed = draw(st.lists(st.tuples(st.tuples(*[st.floats(-h, h)] * d),
                                    st.floats(0.1 * h, 2 * h)), max_size=3))
    balls = draw(st.lists(st.tuples(st.tuples(*[coord] * d), radius),
                          min_size=0 if aimed else 1, max_size=10 - len(aimed)))
    # duplicates (of any ball, by index) tie exactly everywhere
    dups = draw(st.lists(st.integers(0, len(aimed) + len(balls) - 1),
                         max_size=10 - len(aimed) - len(balls)))
    profiles = [co.PlateauProfile(lo, lo + length, ramp) for lo, length, ramp in
                draw(st.lists(st.tuples(st.floats(-0.9, 0.3), st.floats(0.0, 0.5),
                                        st.floats(0.05, 0.4)), min_size=d, max_size=d))]
    threshold = draw(st.one_of(st.none(), st.floats(0.05, 1.0)))
    return (d, draw(st.integers(0, 2 ** 16)), aimed, balls, dups,
            co.SpatialTestFunction(profiles), draw(st.sampled_from([2.0, 3.0, INF])),
            threshold, draw(st.booleans()))


class TestCoveringOracle:
    @settings(max_examples=100, deadline=None)
    @given(case=covering_cases())
    # at node (0, 0.0625) the ball's value rounds to 0.0 beside a gradient of
    # (-0.0, -4.26e-13): chi is 0 there, and so is grad chi
    @example(case=(2, 0, [], [((0.0, 0.05), 0.00625)], [],
                   co.SpatialTestFunction([co.PlateauProfile(0.0, 0.0, 0.1)] * 2), 2.0,
                   None, False))
    def test_matches_the_whole_mesh_estimate(self, case):
        d, seed, aimed, balls, dups, phi, r, frac, enforce = case
        nx = ORACLE_GRIDS[d]
        v = steady(np.random.default_rng(seed).normal(size=(nx,) * d + (d,)))
        threshold = None if frac is None else frac * 2.0 / v.h   # |div| is O(1/h)
        if aimed:
            # one node of largest |div V| per aimed ball lies above the threshold
            div = sum(np.gradient(v.u[0, ..., i], v.h, axis=i) for i in range(d))
            order = np.argsort(-np.abs(div), axis=None)
            threshold = float(np.abs(div).ravel()[order[len(aimed)]])
            mesh = v.spatial_mesh().reshape(-1, d)
            balls = [(tuple(mesh[k] + offset), rad)
                     for k, (offset, rad) in zip(order, aimed)] + balls
        balls += [balls[i] for i in dups]
        try:
            oracle, n_above = whole_mesh_covering(v, balls, phi, r, threshold, enforce)
        except wb.CoverageError:
            with pytest.raises(wb.CoverageError):
                wb.signed_support_bound(v, balls, phi, r, threshold, enforce)
            return
        rep = wb.signed_support_bound(v, balls, phi, r, threshold, enforce)
        assert rep.n_above_threshold == n_above
        for name, (value, scale) in oracle.items():
            assert abs(getattr(rep, name) - value) <= 1e-12 * scale, name
