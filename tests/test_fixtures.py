import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dissdim import aniso_measure as am
from dissdim import cutoffs as co
from dissdim import fixtures as fx
from dissdim import weak_balance as wb
from dissdim.aniso_measure import Cylinder, SpaceTimePoint


class TestPowerLaw:
    def test_known_values(self):
        f2 = fx.PowerLawField(2, 1.0)
        assert fx.power_law_ball_mass(f2, 1.0) == pytest.approx(2 * math.pi, rel=1e-6)
        f3 = fx.PowerLawField(3, 0.5)
        assert fx.power_law_ball_mass(f3, 0.25) == pytest.approx(2 * math.pi, rel=1e-6)

    def test_surface_constants(self):
        assert fx.PowerLawField(2, 0.5).c_d == pytest.approx(2 * math.pi)
        assert fx.PowerLawField(3, 0.5).c_d == pytest.approx(4 * math.pi)

    def test_pure_power_ratios(self):
        f = fx.PowerLawField(2, 0.5)
        masses = [fx.power_law_ball_mass(f, d) for d in (0.1, 0.2, 0.4)]
        assert masses[1] / masses[0] == pytest.approx(math.sqrt(2), rel=1e-6)
        assert masses[2] / masses[1] == pytest.approx(math.sqrt(2), rel=1e-6)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("eps", [0.25, 0.5, 1.0, 1.9])
    def test_ball_mass_is_the_sphere_flux(self, d, eps, sphere_flux):
        f = fx.PowerLawField(d, eps)
        for delta in (0.01, 0.1, 0.5, 1.0):
            assert fx.power_law_ball_mass(f, delta) == pytest.approx(sphere_flux(f, delta),
                                                                     rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            fx.PowerLawField(2, 2.5)
        with pytest.raises(ValueError):
            fx.power_law_ball_mass(fx.PowerLawField(2, 0.5), 0.0)

    def test_divergence_formula(self):
        f = fx.PowerLawField(2, 0.5)
        x = np.array([[0.3, 0.4]])
        assert f.divergence(x)[0] == pytest.approx(0.5 / 0.5 ** 1.5)
        # finite-difference check of the vector field's divergence
        v = fx.power_law_vector_field(f, -1.0, 1.0, 1024)
        div = sum(np.gradient(v.u[0, ..., i], v.h, axis=i) for i in range(2))
        mesh = v.spatial_mesh()
        away = np.sum(mesh ** 2, axis=-1) > 0.25
        rel = np.abs(div[away] / f.divergence(mesh)[away] - 1)
        assert np.median(rel) < 1e-3


class TestBurgersEntropySolution:
    def test_standing_shock_samples(self):
        field = fx.burgers_entropy_solution(fx.RiemannDatum(1.0, -1.0), -1.0, 1.0, 257, 1.0, 9)
        assert np.all(field.u[:, field.x_axis < -0.01, 0] == 1.0)
        assert np.all(field.u[:, field.x_axis > 0.01, 0] == -1.0)

    def test_traveling_shock_path(self):
        datum = fx.RiemannDatum(2.0, 0.0)
        field = fx.burgers_entropy_solution(datum, -1.0, 3.0, 2048, 1.0, 33)
        assert datum.shock_speed == 1.0
        for k, t in enumerate(field.t_axis):
            xs = field.x_axis
            jump_at = xs[np.argmax(field.u[k, :, 0] < 1.0)]
            assert jump_at == pytest.approx(datum.x0 + t, abs=2 * field.h)

    def test_conservative_sampling_tracks_exact_mass(self):
        # cell averages reproduce the exact windowed mass, whose drift is the
        # flux imbalance f(u_l) - f(u_r)
        datum = fx.RiemannDatum(2.0, 0.0)
        a, b, nx, T, nt = -1.0, 3.0, 513, 1.0, 9
        field = fx.burgers_entropy_solution(datum, a, b, nx, T, nt)
        wx, _ = field.axis_weights()
        masses = [float(np.sum(wx * field.u[k, :, 0])) for k in range(nt)]
        flux_gap = 0.5 * (datum.u_l ** 2 - datum.u_r ** 2)
        for k, t in enumerate(field.t_axis):
            exact = masses[0] + flux_gap * t
            assert masses[k] == pytest.approx(exact, abs=1e-12)

    def test_standing_shock_mass_constant_zero(self):
        field = fx.burgers_entropy_solution(fx.RiemannDatum(1.0, -1.0), -1.0, 1.0, 513, 1.0, 9)
        wx, _ = field.axis_weights()
        for k in range(field.nt):
            assert float(np.sum(wx * field.u[k, :, 0])) == pytest.approx(0.0, abs=1e-13)

    def test_weak_momentum_form(self):
        # the sampled shock is a weak solution of the momentum form: the
        # pairing with the (u, u^2/2) pair vanishes across the shock
        momentum = wb.EntropyPair("momentum", lambda f: f.u[..., 0],
                                  {"II": lambda f: (0.5 * f.u[..., 0] ** 2)[..., None]})
        datum = fx.RiemannDatum(2.0, 0.0)
        field = fx.burgers_entropy_solution(datum, -1.0, 3.0, 2049, 1.0, 1025)
        space = co.SpatialTestFunction([co.PlateauProfile(0.2, 1.6, 0.3)])
        phi = co.SpaceTimeTestFunction(space, co.PlateauProfile(0.2, 0.8, 0.1))
        val = wb.pair_weak_mass(field, momentum, phi).weak_mass
        assert abs(val) < 5e-4

    def test_rarefaction_fan_profile(self):
        datum = fx.RiemannDatum(-1.0, 1.0)
        field = fx.burgers_entropy_solution(datum, -2.0, 2.0, 1025, 1.0, 5)
        k = 4  # t = 1
        xs = field.x_axis
        fan = (np.abs(xs) < 0.9)
        assert np.allclose(field.u[k, fan, 0], xs[fan], atol=2 * field.h)

    def test_degenerate_datum_rejected(self):
        with pytest.raises(ValueError):
            fx.RiemannDatum(1.0, 1.0)


class TestDissipationMeasure:
    def test_total_mass_exact(self):
        mu = fx.burgers_dissipation_measure(fx.RiemannDatum(1.0, -1.0), 1.0, 1000)
        assert mu.total_mass == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_small_jump_cubic_scaling(self):
        big = fx.burgers_dissipation_measure(fx.RiemannDatum(0.1, -0.1), 1.0, 100)
        small = fx.burgers_dissipation_measure(fx.RiemannDatum(0.01, -0.01), 1.0, 100)
        assert small.total_mass / big.total_mass == pytest.approx(1e-3, rel=1e-9)

    def test_rarefaction_empty_with_flag(self):
        mu = fx.burgers_dissipation_measure(fx.RiemannDatum(-1.0, 1.0), 1.0, 100)
        assert mu.n_atoms == 0

    def test_atoms_follow_shock_path(self):
        datum = fx.RiemannDatum(2.0, 0.0, x0=0.25)
        mu = fx.burgers_dissipation_measure(datum, 1.0, 64)
        assert np.allclose(mu.positions[:, 0], 0.25 + mu.times)

    def test_support_dimension(self):
        mu = fx.burgers_dissipation_measure(fx.RiemannDatum(1.0, -1.0), 1.0, 4096)
        res = am.box_counting_dimension(mu.support_points(), 1.0,
                                        [2.0 ** -k for k in range(3, 9)])
        assert res.dim_estimate == pytest.approx(1.0, abs=0.1)


class TestViscousRuns:
    def test_standing_shock_total(self, shock_runs):
        run = shock_runs(1e-3)
        assert 0.65 <= run.total_dissipation <= 0.69
        assert run.stability_margin <= 0.9 + 1e-12

    def test_smooth_periodic_energy_balance(self):
        run = periodic_sine_run()
        wx, _ = run.field.axis_weights()
        e0 = 0.5 * float(np.sum(wx * run.field.u[0, :, 0] ** 2))
        eT = 0.5 * float(np.sum(wx * run.field.u[-1, :, 0] ** 2))
        assert run.total_dissipation == pytest.approx(e0 - eT, rel=0.01)

    def test_constant_state_no_dissipation(self):
        run = fx.viscous_burgers_run(None, 1e-2, -1.0, 1.0, 129, 0.5, 65,
                                     initial_data=np.full(129, 0.7))
        assert abs(run.total_dissipation) < 1e-14

    def test_total_trend_toward_inviscid_value(self):
        # sharp-jump starts: the total decreases with nu toward the shock rate
        totals = []
        for nu in (4e-3, 2e-3, 1e-3):
            hw, h = 30 * nu, 0.05 * nu
            nx = int(round(2 * hw / h)) + 1
            run = fx.viscous_burgers_run(fx.RiemannDatum(1.0, -1.0), nu, -hw, hw,
                                         nx, 1.0, 201, initial="riemann")
            totals.append(run.total_dissipation)
        assert all(b <= a * 1.05 for a, b in zip(totals, totals[1:]))
        assert totals[-1] == pytest.approx(2.0 / 3.0, rel=0.05)

    def test_deterministic(self, shock_runs):
        run = shock_runs(1e-3)
        again = fx.viscous_burgers_run(
            fx.RiemannDatum(1.0, -1.0), 1e-3, run.field.a, run.field.b,
            run.field.nx, run.field.T, run.field.nt, initial="viscous_profile")
        assert np.array_equal(run.field.u, again.field.u)
        assert run.total_dissipation == again.total_dissipation

    def test_manifest_round(self, shock_runs):
        man = shock_runs(1e-3).manifest()
        assert man["nu"] == 1e-3
        assert man["total_dissipation"] > 0
        assert 0 < man["stability_margin"] <= 0.9 + 1e-12
        assert man["diffusion_number"] > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            fx.viscous_burgers_run(None, 1e-3, -1.0, 1.0, 65, 1.0, 65)
        with pytest.raises(ValueError):
            fx.viscous_burgers_run(fx.RiemannDatum(1.0, -1.0), 0.0, -1.0, 1.0, 65, 1.0, 65)


def periodic_sine_run():
    """nu = 1 on a 257-node periodic grid: dt_sub ~ 0.022 exceeds dt = 1/256."""
    xs = 2 * math.pi / 256 * np.arange(257)
    return fx.viscous_burgers_run(None, 1.0, 0.0, 2 * math.pi, 257, 1.0, 257,
                                  bc="periodic", initial_data=np.sin(xs))


@pytest.fixture(scope="module")
def ledger_runs(shock_runs):
    # shock_runs(1e-3, T=0.5) is the README vfield run; it freezes at t ~ 0.0835
    return {
        "readme-21": shock_runs(1e-3, T=0.5, nt=21),
        "readme-201": shock_runs(1e-3, T=0.5, nt=201),
        "riemann-1e-2": fx.viscous_burgers_run(fx.RiemannDatum(1.0, -1.0), 1e-2,
                                               -1.0, 1.0, 801, 0.5, 101),
        "periodic": periodic_sine_run(),
    }


def ledger(run):
    """The cell measure's weights as (nt, nx) rows."""
    return run.dissipation.weights.reshape(run.field.nt, run.field.nx)


class TestDissipationLedger:
    """One per-node density, summed over the substeps into the sample cells."""

    @pytest.mark.parametrize("name", ["readme-21", "readme-201", "riemann-1e-2", "periodic"])
    def test_total_is_the_measure_mass(self, ledger_runs, name):
        run = ledger_runs[name]
        assert run.total_dissipation == run.dissipation.total_mass
        assert run.manifest()["total_dissipation"] == run.dissipation.total_mass

    def test_which_runs_freeze(self, ledger_runs):
        assert ledger_runs["readme-201"].steady_time == pytest.approx(0.0835, abs=1e-4)
        assert ledger_runs["riemann-1e-2"].steady_time is None

    def test_coarse_samples_keep_the_whole_mass(self, ledger_runs):
        coarse, fine = ledger_runs["readme-21"], ledger_runs["readme-201"]
        assert coarse.steady_time == fine.steady_time
        assert coarse.dissipation.total_mass == pytest.approx(fine.dissipation.total_mass,
                                                              rel=1e-12)

    @pytest.mark.parametrize("name", ["readme-21", "readme-201"])
    def test_rows_after_the_freeze_hold_the_frozen_density(self, ledger_runs, name):
        run = ledger_runs[name]
        grid = run.field
        frozen = fx._dissipation_density(grid.u[-1, :, 0], grid.h, run.nu, run.bc)
        t = grid.t_axis
        after = t - grid.dt / 2 >= run.steady_time
        assert after.sum() >= grid.nt // 2
        cells = np.minimum(t[after] + grid.dt / 2, grid.T) - (t[after] - grid.dt / 2)
        np.testing.assert_allclose(ledger(run)[after], cells[:, None] * frozen,
                                   rtol=1e-13, atol=0)

    @pytest.mark.parametrize("name", ["readme-21", "riemann-1e-2"])
    def test_dirichlet_end_columns_weigh_nothing(self, ledger_runs, name):
        rows = ledger(ledger_runs[name])
        assert not rows[:, 0].any() and not rows[:, -1].any()
        assert rows[:, 1].any()

    def test_periodic_wrap_node_counts_once(self, ledger_runs):
        rows = ledger(ledger_runs["periodic"])
        assert not rows[:, -1].any() and rows[:, 0].any()

    def test_each_substep_lands_in_the_cell_of_its_midpoint(self, ledger_runs):
        # dt_sub > dt here, so cells without a substep midpoint stay empty
        run = ledger_runs["periodic"]
        assert run.dt_sub > run.field.dt and run.steady_time is None
        midpoints = (np.arange(run.steps) + 0.5) * run.dt_sub
        cells = np.floor(midpoints / run.field.dt + 0.5).astype(int)
        assert set(np.flatnonzero(ledger(run).any(axis=1))) == set(cells)


@st.composite
def viscous_cases(draw):
    """Riemann runs over cell Peclet numbers |u|h/2nu from 1e-2 to 1e2."""
    lo = draw(st.floats(-2.0, 1.9))
    hi = draw(st.floats(lo + 0.1, 2.0))
    shock = draw(st.booleans())
    datum = fx.RiemannDatum(hi, lo) if shock else fx.RiemannDatum(lo, hi)
    half_width = draw(st.floats(0.1, 2.0))
    nx = draw(st.integers(3, 129))
    h = 2 * half_width / (nx - 1)
    umax = max(abs(lo), abs(hi))
    peclet = 10.0 ** draw(st.floats(-2.0, 2.0))
    nu = umax * h / (2 * peclet)
    big_t = draw(st.floats(0.05, 1.0)) * 2 * half_width / umax
    return dict(datum=datum, nu=nu, a=-half_width, b=half_width, nx=nx, T=big_t,
                nt=draw(st.integers(2, 17)),
                bc=draw(st.sampled_from(["dirichlet_states", "periodic"])),
                initial=draw(st.sampled_from(["riemann", "viscous_profile"])))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(case=viscous_cases())
def test_implicit_diffusion_has_no_viscous_step_limit(case):
    run = fx.viscous_burgers_run(**case)
    datum, u = case["datum"], run.field.u[..., 0]
    lo = min(u[0].min(), datum.u_l, datum.u_r) - 1e-12
    hi = max(u[0].max(), datum.u_l, datum.u_r) + 1e-12
    assert np.all((lo <= u) & (u <= hi))
    assert run.stability_margin <= 0.9
    umax = max(abs(datum.u_l), abs(datum.u_r))
    # the advective rule alone sets the substep count (1e-12 absorbs rounding)
    assert run.steps <= math.ceil(case["T"] * umax / (0.9 * run.field.h) * (1 + 1e-12))
    assert run.diffusion_number == pytest.approx(case["nu"] * run.dt_sub / run.field.h ** 2)
    assert math.isfinite(run.total_dissipation) and run.total_dissipation >= 0


def test_substep_never_exceeds_the_courant_limit_by_rounding():
    # T/(0.9*h/umax) is 19 up to rounding here; 19 substeps overshoot 0.9 by an ulp
    run = fx.viscous_burgers_run(fx.RiemannDatum(0.0, 1.0), 1 / 19, -1.0, 1.0, 20, 1.8, 2)
    assert run.stability_margin <= 0.9
    assert run.steps == 20


class TestWeakConvergenceToShockMeasure:
    def test_pairings_match_atomic_measure(self, shock_runs):
        run = shock_runs(1e-4)
        atoms = fx.burgers_dissipation_measure(fx.RiemannDatum(1.0, -1.0), 1.0,
                                               run.field.nt - 1)
        hw = run.field.b
        space = co.SpatialTestFunction([co.PlateauProfile(-hw / 2, hw / 2, hw / 3)])
        time_profiles = [
            co.PlateauProfile(0.2, 0.8, 0.1),
            co.PlateauProfile(0.1, 0.5, 0.05),
            co.PlateauProfile(0.5, 0.9, 0.05),
            co.PlateauProfile(0.3, 0.7, 0.2),
            co.PlateauProfile(0.05, 0.95, 0.04),
        ]
        for tp in time_profiles:
            phi = co.SpaceTimeTestFunction(space, tp)
            viscous = float(np.sum(
                run.dissipation.weights
                * phi.value(run.dissipation.positions, run.dissipation.times)))
            analytic = float(np.sum(
                atoms.weights * phi.value(atoms.positions, atoms.times)))
            assert viscous == pytest.approx(analytic, rel=0.03)

    def test_off_shock_cylinders_carry_nothing(self, shock_runs):
        run = shock_runs(1e-4)
        delta = 5e-4
        on = am.cylinder_mass(run.dissipation,
                              Cylinder(SpaceTimePoint((0.0,), 0.5), delta, 1.0))
        off = am.cylinder_mass(run.dissipation,
                               Cylinder(SpaceTimePoint((4 * delta,), 0.5), delta, 1.0))
        assert on > 0
        assert off < 1e-3 * on


class TestTimeSingularFixture:
    def test_shapes_and_mass(self):
        mu = fx.time_singular_measure_fixture(2, 1000, seed=3)
        assert mu.d == 2
        assert mu.n_atoms == 1000
        assert mu.total_mass == pytest.approx(1.0)
        assert np.all(mu.times == 0.5)

    def test_dimension_d1(self):
        mu = fx.time_singular_measure_fixture(1, 10000, seed=0)
        res = am.box_counting_dimension(mu.support_points(), 1.0,
                                        [2.0 ** -k for k in range(2, 7)])
        assert res.dim_estimate == pytest.approx(1.0, abs=0.1)

    def test_dimension_d2(self):
        mu = fx.time_singular_measure_fixture(2, 100000, seed=0)
        res = am.box_counting_dimension(mu.support_points(), 1.0,
                                        [2.0 ** -k for k in range(2, 7)])
        assert res.dim_estimate == pytest.approx(2.0, abs=0.15)

    def test_lattice_mode_deterministic(self):
        # the lattice time slab is grid_measure with one time node
        a = fx.grid_measure(2, 512, 1)
        b = fx.grid_measure(2, 512, 1)
        assert np.array_equal(a.positions, b.positions)
        assert a.n_atoms == 512 ** 2
        assert np.all(a.times == 0.5) and np.all(a.weights == 1.0 / 512 ** 2)


class TestSmoothSolutionSampler:
    def test_rejects_near_breaking(self):
        with pytest.raises(ValueError):
            fx.burgers_smooth_solution(-1.0, 1.0, 129, 0.3, 65)

    def test_initial_slice_is_sine(self):
        field = fx.burgers_smooth_solution(-1.0, 1.0, 129, 0.2, 65)
        assert np.allclose(field.u[0, :, 0], 0.5 * np.sin(2 * math.pi * field.x_axis),
                           atol=1e-12)
