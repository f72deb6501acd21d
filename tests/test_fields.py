import numpy as np
import pytest

from dissdim.aniso_measure import SpaceTimePoint
from dissdim.fields import GriddedField, SpatialVectorField


class TestGriddedField:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            GriddedField(1, 0.0, 1.0, 8, 1.0, 4, np.zeros((4, 8)))
        with pytest.raises(ValueError):
            GriddedField(2, 0.0, 1.0, 8, 1.0, 4, np.zeros((4, 8, 8, 1)))

    def test_rejects_non_finite(self):
        u = np.zeros((4, 8, 1))
        u[1, 2, 0] = np.nan
        with pytest.raises(ValueError):
            GriddedField(1, 0.0, 1.0, 8, 1.0, 4, u)

    @pytest.mark.parametrize("a, b, T", [
        (-1.7e308, 1.7e308, 1.0),             # b - a overflows, so h = inf
        (0.0, 1.0, np.finfo(float).max),      # dt * (nt - 1) overflows
    ])
    def test_rejects_overflowing_axes(self, a, b, T):
        with pytest.raises(ValueError, match="overflow"):
            GriddedField(1, a, b, 3, T, 4, np.zeros((4, 3, 1)))

    def test_accepts_the_widest_finite_axes(self):
        field = GriddedField(1, 0.0, 1.7e308, 3, 1.7e308, 2, np.zeros((2, 3, 1)))
        assert np.all(np.isfinite(field.x_axis)) and np.all(np.isfinite(field.t_axis))

    def test_pressure_shape(self):
        u = np.zeros((4, 8, 1))
        with pytest.raises(ValueError):
            GriddedField(1, 0.0, 1.0, 8, 1.0, 4, u, p=np.zeros((4, 7)))

    def test_axes_and_spacing(self):
        field = GriddedField(1, -1.0, 1.0, 5, 2.0, 3, np.zeros((3, 5, 1)))
        assert field.h == 0.5
        assert field.dt == 1.0
        assert np.allclose(field.x_axis, [-1.0, -0.5, 0.0, 0.5, 1.0])
        assert np.allclose(field.t_axis, [0.0, 1.0, 2.0])

    def test_weights_integrate_constants_exactly(self):
        field = GriddedField(2, 0.0, 2.0, 9, 1.0, 5, np.zeros((5, 9, 9, 2)))
        wsp = field.spatial_weights()
        _, wt = field.axis_weights()
        assert float(wsp.sum()) == pytest.approx(4.0)
        assert float(wt.sum()) == pytest.approx(1.0)

    def test_grad_squared_on_linear_field(self):
        # u = (x, 0): |grad u|^2 = 1 everywhere, exactly for centered stencils
        nx, nt = 9, 3
        field = GriddedField(2, 0.0, 1.0, nx, 1.0, nt, np.zeros((nt, nx, nx, 2)))
        mesh = field.spatial_mesh()
        u = np.zeros((nt, nx, nx, 2))
        u[..., 0] = mesh[..., 0][None]
        field.u = u
        assert np.allclose(field.grad_squared(), 1.0)


class TestSpatialVectorField:
    def test_divergence_of_linear_field(self):
        nx = 17
        h = 2.0 / (nx - 1)
        axis = -1.0 + h * np.arange(nx)
        x1, x2 = np.meshgrid(axis, axis, indexing="ij")
        vals = np.stack([2.0 * x1, -3.0 * x2], axis=-1)
        v = SpatialVectorField(2, -1.0, 1.0, nx, vals)
        assert np.allclose(v.divergence(), -1.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SpatialVectorField(2, 0.0, 1.0, 4, np.zeros((4, 4)))

    @pytest.mark.parametrize("gridded", [False, True])
    @pytest.mark.parametrize("d, a, b, nx, match", [
        (1, 1.0, 0.0, 3, "b > a"),                 # reversed axis, h < 0
        (1, 0.0, 0.0, 3, "b > a"),                 # empty axis, h = 0
        (1, 0.0, 1.0, 1, "nx >= 2"),               # h would divide by zero
        (0, 0.0, 1.0, 3, "d >= 1"),
        (1, -1.7e308, 1.7e308, 3, "overflow"),     # b - a overflows, so h = inf
    ])
    def test_both_grid_types_reject_bad_axes(self, gridded, d, a, b, nx, match):
        shape = (nx,) * d + (d,)
        with pytest.raises(ValueError, match=match):
            if gridded:
                GriddedField(d, a, b, nx, 1.0, 2, np.zeros((2,) + shape))
            else:
                SpatialVectorField(d, a, b, nx, np.zeros(shape))


class TestSpaceTimePoint:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SpaceTimePoint((np.inf,), 0.0)
        with pytest.raises(ValueError):
            SpaceTimePoint((0.0,), np.nan)

    def test_coordinates_normalized(self):
        p = SpaceTimePoint((1, 2), 3)
        assert p.x == (1.0, 2.0)
        assert p.t == 3.0
        assert p.d == 2
