import math

import numpy as np
import pytest

from dissdim import cutoffs as co
from dissdim.aniso_measure import SpaceTimePoint


@pytest.mark.parametrize("profile", ["cubic", "quintic"])
class TestTaperShapes:
    def test_endpoint_values(self, profile):
        p = co.taper_profile(profile)
        assert p.value(np.array([0.0]))[0] == 1.0
        assert p.value(np.array([1.0]))[0] == 0.0
        assert p.deriv(np.array([0.0]))[0] == 0.0
        assert p.deriv(np.array([1.0]))[0] == 0.0

    def test_slope_bound_attained(self, profile):
        p = co.taper_profile(profile)
        s = np.linspace(0, 1, 20001)
        assert np.abs(p.deriv(s)).max() == pytest.approx(p.slope_max, rel=1e-6)

    def test_curvature_bound(self, profile):
        p = co.taper_profile(profile)
        s = np.linspace(0, 1, 20001)
        assert np.abs(p.second(s)).max() <= p.curvature_max * (1 + 1e-9)


class TestCutoffPair:
    def test_realized_constants_isotropic(self):
        cut = co.CutoffPair.build(SpaceTimePoint((0.0,), 0.0), 0.25, 1.0)
        consts = cut.constants
        assert consts["C_chi"] == 1.5
        assert consts["C_eta"] == 1.5
        assert consts["C_lap_chi"] == pytest.approx(6.0)

    def test_laplacian_constant_grows_with_dimension(self):
        c2 = co.CutoffPair.build(SpaceTimePoint((0.0, 0.0), 0.0), 0.25, 1.0)
        assert c2.constants["C_lap_chi"] == pytest.approx(7.5)

    def test_time_bump_scaling(self):
        cut = co.CutoffPair.build(SpaceTimePoint((0.0,), 0.5), 0.1, 2.0)
        assert cut.eta.inner == pytest.approx(0.01)
        assert cut.eta.outer == pytest.approx(0.04)
        ts = np.linspace(0.4, 0.6, 40001)
        assert np.abs(cut.eta.deriv(ts)).max() <= cut.eta.deriv_constant / 0.1 ** 2 * (1 + 1e-9)

    def test_validate_on_grid(self):
        cut = co.CutoffPair.build(SpaceTimePoint((0.0, 0.0), 0.5), 0.2, 1.0)
        axis = np.linspace(-1, 1, 101)
        mesh = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)
        cut.validate_on_grid(mesh.reshape(-1, 2), np.linspace(0, 1, 101))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            co.CutoffPair.build(SpaceTimePoint((0.0,), 0.0), 0.0, 1.0)
        with pytest.raises(ValueError):
            co.CutoffPair.build(SpaceTimePoint((0.0,), 0.0), 0.1, -1.0)
        # delta**alpha infinite, zero, or equal to (2 delta)**alpha after rounding,
        # or (2 delta)**alpha overflowing a float64
        for delta, alpha in ((0.1, math.inf), (0.1, 1000.0), (0.1, 1e-20), (1.0, 1e300)):
            with pytest.raises(ValueError, match="delta\\*\\*alpha"):
                co.CutoffPair.build(SpaceTimePoint((0.0,), 0.0), delta, alpha)

    def test_rejects_scales_that_are_not_normal_floats(self):
        # delta**2 underflows (the laplacian of the bump divided by 0) or
        # overflows; the ramp width (2 delta)**alpha - delta**alpha is subnormal
        for delta in (1.25e-201, 1e-155, 1e155):
            with pytest.raises(ValueError, match="delta\\*\\*2"):
                co.CutoffPair.build(SpaceTimePoint((0.0,), 0.0), delta, 1.0)
        with pytest.raises(ValueError, match="ramp width"):
            co.CutoffPair.build(SpaceTimePoint((0.0,), 0.0), 1e-100, 3.09)
        cut = co.CutoffPair.build(SpaceTimePoint((0.0,), 0.0), 1.25e-101, 1.0)
        assert np.isfinite(cut.chi.laplacian(np.array([[1e-101], [2e-101]]))).all()

    def test_stated_supports(self):
        bump = co.SpatialBump((0.5, -1.0), 0.25)
        assert bump.support == ((0.0, 1.0), (-1.5, -0.5))
        f = co.SpatialTestFunction([co.PlateauProfile(-0.4, 0.4, 0.3),
                                    co.PlateauProfile(0.2, math.inf, 0.1)])
        assert f.support == ((-0.4 - 0.3, 0.4 + 0.3), (0.2 - 0.1, math.inf))

    def test_support_values(self):
        cut = co.CutoffPair.build(SpaceTimePoint((0.0,), 0.0), 0.25, 1.0)
        pts = np.array([[0.1], [0.25], [0.3], [0.5], [0.6]])
        chi = cut.chi.value(pts)
        assert chi[0] == 1.0
        assert chi[1] == 1.0
        assert 0.0 < chi[2] < 1.0
        assert chi[3] == 0.0
        assert chi[4] == 0.0


class TestProfiles:
    def test_plateau_integral(self):
        p = co.PlateauProfile(-0.5, 0.5, 0.2)
        xs = np.linspace(-1, 1, 200001)
        assert np.trapezoid(p.value(xs), xs) == pytest.approx(p.integral, rel=1e-8)

    def test_plateau_derivative_consistency(self):
        for hi in (0.6, math.inf):   # inf: the one-sided plateau
            p = co.PlateauProfile(0.1, hi, 0.15, profile="quintic")
            xs = np.linspace(-0.2, 0.9, 2 ** 15)
            num = np.gradient(p.value(xs), xs)
            assert np.max(np.abs(num - p.deriv(xs))) < 1e-3

    def test_separable_gradient_matches_finite_differences(self):
        # quintic: the derivative is C^1, so centered differences converge
        # cleanly even across the taper knots
        f = co.SpatialTestFunction([co.PlateauProfile(-0.4, 0.4, 0.3, profile="quintic"),
                                    co.PlateauProfile(-0.2, 0.5, 0.25, profile="quintic")])
        axis = np.linspace(-1, 1, 1601)
        mesh = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)
        vals = f.value(mesh)
        grads = f.gradient(mesh)
        g0 = np.gradient(vals, axis[1] - axis[0], axis=0)
        g1 = np.gradient(vals, axis[1] - axis[0], axis=1)
        assert np.max(np.abs(g0 - grads[..., 0])) < 2e-3
        assert np.max(np.abs(g1 - grads[..., 1])) < 2e-3
