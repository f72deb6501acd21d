import math

import numpy as np
import pytest

from dissdim import cutoffs as co


# the peak |psi'| and |psi''| of each taper on the unit ramp
SLOPE = {"cubic": 1.5, "quintic": 1.875}
CURVATURE = {"cubic": 6.0, "quintic": 10.0 / math.sqrt(3.0)}


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
        assert np.abs(p.deriv(s)).max() == pytest.approx(SLOPE[profile], rel=1e-6)

    def test_curvature_bound(self, profile):
        p = co.taper_profile(profile)
        s = np.linspace(0, 1, 20001)
        assert np.abs(p.second(s)).max() <= CURVATURE[profile] * (1 + 1e-9)


def points_around(center, radius, n, seed):
    """n points at uniform distances 0..radius from center, in random directions."""
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n, len(center)))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    return np.asarray(center) + rng.uniform(0.0, radius, (n, 1)) * dirs


def centered_gradient(f, y, h):
    """(f(y + h e_i) - f(y - h e_i)) / 2h along each axis i."""
    return np.stack([(f(y + e) - f(y - e)) / (2 * h) for e in h * np.eye(y.shape[-1])],
                    axis=-1)


def centered_laplacian(f, y, h):
    """The sum over axes i of (f(y + h e_i) - 2 f(y) + f(y - h e_i)) / h**2."""
    return sum((f(y + e) - 2 * f(y) + f(y - e)) / h ** 2 for e in h * np.eye(y.shape[-1]))


class TestDerivativesAgainstDifferences:
    """The analytic derivatives the pairing kernel consumes, against centered
    differences at 4000 random points, with the quintic taper: its second
    derivative is continuous, so the second differences converge across the
    taper knots.  The step 1e-5 keeps the truncation error (about h/6 times
    the jump of the third derivative at a knot, 4e-3 for the bump below) and
    the rounding error (about 1e-5) under the tolerances: 1e-6 of the peak for
    first derivatives, 1e-3 of the peak for Laplacians."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_spatial_bump(self, d):
        bump = co.SpatialBump((0.1,) * d, 0.3, profile="quintic")
        y = points_around(bump.center, 0.7, 4000, d)   # past the support radius 0.6
        grad, lap = bump.gradient(y), bump.laplacian(y)
        # the sample reaches the peak slope 1.875 / delta
        assert np.abs(grad).max() == pytest.approx(1.875 / 0.3, rel=1e-2)
        assert np.abs(centered_gradient(bump.value, y, 1e-5) - grad).max() < 1e-6 * 6.25
        peak = np.abs(lap).max()   # at least the peak curvature / delta**2
        assert peak > 0.99 * 10 / math.sqrt(3) / 0.3 ** 2
        assert np.abs(centered_laplacian(bump.value, y, 1e-5) - lap).max() < 1e-3 * peak

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_spatial_test_function(self, d):
        f = co.SpatialTestFunction([co.PlateauProfile(-0.3 + 0.1 * i, 0.2, 0.25, "quintic")
                                    for i in range(d)])
        y = np.random.default_rng(d).uniform(-0.6, 0.5, (4000, d))
        grad, lap = f.gradient(y), f.laplacian(y)
        assert np.abs(centered_gradient(f.value, y, 1e-5) - grad).max() < \
            1e-6 * np.abs(grad).max()
        peak = np.abs(lap).max()
        assert peak > 10 / math.sqrt(3) / 0.25 ** 2 / 2
        assert np.abs(centered_laplacian(f.value, y, 1e-5) - lap).max() < 1e-3 * peak

    def test_time_bump(self):
        eta = co.TimeBump(0.5, 0.1, 2.0, profile="quintic")   # ramp over 0.01 < |t - 0.5| < 0.04
        t = np.random.default_rng(0).uniform(0.45, 0.55, 4000)
        deriv = eta.deriv(t)
        assert np.abs(deriv).max() == pytest.approx(1.875 / 0.03, rel=1e-2)
        num = (eta.value(t + 1e-7) - eta.value(t - 1e-7)) / 2e-7
        assert np.abs(num - deriv).max() < 1e-6 * 62.5


class TestCutoffPair:
    def test_time_bump_scaling(self):
        cut = co.CutoffPair.build((0.0, 0.5), 0.1, 2.0)
        assert cut.eta.inner == pytest.approx(0.01)
        assert cut.eta.outer == pytest.approx(0.04)
        ts = np.linspace(0.4, 0.6, 40001)
        # the cubic's peak slope 1.5 over the ramp width 0.04 - 0.01
        assert np.abs(cut.eta.deriv(ts)).max() == pytest.approx(1.5 / 0.03, rel=1e-6)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            co.CutoffPair.build((0.0, 0.0), 0.0, 1.0)
        with pytest.raises(ValueError):
            co.CutoffPair.build((0.0, 0.0), 0.1, -1.0)
        # delta**alpha infinite, zero, or equal to (2 delta)**alpha after rounding,
        # or (2 delta)**alpha overflowing a float64
        for delta, alpha in ((0.1, math.inf), (0.1, 1000.0), (0.1, 1e-20), (1.0, 1e300)):
            with pytest.raises(ValueError, match="delta\\*\\*alpha"):
                co.CutoffPair.build((0.0, 0.0), delta, alpha)

    def test_rejects_scales_that_are_not_normal_floats(self):
        # delta**2 underflows (the laplacian of the bump divided by 0) or
        # overflows; the ramp width (2 delta)**alpha - delta**alpha is subnormal
        for delta in (1.25e-201, 1e-155, 1e155):
            with pytest.raises(ValueError, match="delta\\*\\*2"):
                co.CutoffPair.build((0.0, 0.0), delta, 1.0)
        with pytest.raises(ValueError, match="ramp width"):
            co.CutoffPair.build((0.0, 0.0), 1e-100, 3.09)
        cut = co.CutoffPair.build((0.0, 0.0), 1.25e-101, 1.0)
        assert np.isfinite(cut.chi.laplacian(np.array([[1e-101], [2e-101]]))).all()

    def test_rejects_a_collar_whose_squared_radius_overflows(self):
        # delta**2 = 1e308 is a normal float, the collar's (2 delta)**2 is not
        with pytest.raises(ValueError, match="\\(2 delta\\)\\*\\*2"):
            co.CutoffPair.build((0.0, 0.0), 1e154, 1.0)

    def test_stated_supports(self):
        bump = co.SpatialBump((0.5, -1.0), 0.25)
        assert bump.support == ((0.0, 1.0), (-1.5, -0.5))
        f = co.SpatialTestFunction([co.PlateauProfile(-0.4, 0.4, 0.3),
                                    co.PlateauProfile(0.2, math.inf, 0.1)])
        assert f.support == ((-0.4 - 0.3, 0.4 + 0.3), (0.2 - 0.1, math.inf))

    def test_support_values(self):
        cut = co.CutoffPair.build((0.0, 0.0), 0.25, 1.0)
        pts = np.array([[0.1], [0.25], [0.3], [0.5], [0.6]])
        chi = cut.chi.value(pts)
        assert chi[0] == 1.0
        assert chi[1] == 1.0
        assert 0.0 < chi[2] < 1.0
        assert chi[3] == 0.0
        assert chi[4] == 0.0


class TestProfiles:
    def test_a_ramp_whose_square_overflows(self):
        # ramp**2 is inf, not OverflowError: the second derivative is 0
        assert co.PlateauProfile(0, 1, 1e200).second(0.5) == 0.0

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
