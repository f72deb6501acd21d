import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dissdim import fields
from dissdim.fields import GriddedField, _SpaceTimeGrid, blocks, release


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
            GriddedField(1, 0.0, 1.0, 8, 1.0, 4, u, {"p": np.zeros((4, 7))})

    def test_unknown_scalar_name(self):
        u = np.zeros((4, 8, 1))
        with pytest.raises(ValueError, match="'rho'"):
            GriddedField(1, 0.0, 1.0, 8, 1.0, 4, u, {"p": np.zeros((4, 8)), "rho": np.ones((4, 8))})

    def test_scalars_are_read_only(self):
        field = GriddedField(1, 0.0, 1.0, 8, 1.0, 4, np.zeros((4, 8, 1)), {"p": np.zeros((4, 8))})
        with pytest.raises(TypeError):
            field.scalars["theta"] = np.zeros((4, 8))
        with pytest.raises(TypeError):
            field.scalars["p"] = np.ones((4, 8))
        assert list(field.scalars) == ["p"] and not field.scalars["p"].any()

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


@st.composite
def index_boxes(draw):
    """A grid on [a, b]^d and an index box in it: per axis a slice that may
    start or end on a face, hold a single node or span the whole axis."""
    d, nx = draw(st.integers(1, 3)), draw(st.integers(2, 40))
    a = draw(st.floats(-10.0, 10.0))
    grid = _SpaceTimeGrid(d, a, a + draw(st.floats(0.1, 10.0)), nx, 1.0, 2)
    box = []
    for _ in range(d):
        start = draw(st.one_of(st.just(0), st.integers(0, nx - 1)))
        stop = draw(st.one_of(st.just(start + 1), st.just(nx), st.integers(start + 1, nx)))
        box.append(slice(start, stop))
    return grid, tuple(box)


@settings(max_examples=300, deadline=None)
@given(case=index_boxes())
def test_a_box_has_the_bits_of_the_whole_grid_slice(case):
    grid, box = case
    # the whole grid written out: a stacked meshgrid and the outer products
    # w_0 * w_1 * ... of the trapezoid weights, taken left to right
    wx = np.full(grid.nx, grid.h)
    wx[0] = wx[-1] = grid.h / 2
    weights = wx
    for _ in range(grid.d - 1):
        weights = np.multiply.outer(weights, wx)
    mesh = np.stack(np.meshgrid(*[grid.x_axis] * grid.d, indexing="ij"), axis=-1)
    for method, whole in ((grid.spatial_mesh, mesh), (grid.spatial_weights, weights)):
        for got, want in ((method(), whole), (method(box), method()[box])):
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestSpatialVectorField:
    """A time-independent vector field is a steady GriddedField: nt = 2, both
    rows views of one array, with every GriddedField axis check.  (The names
    are those of the spatial-only grid type it replaces.)"""

    @pytest.mark.parametrize("steady", [True])
    @pytest.mark.parametrize("d, a, b, nx, match", [
        (1, 1.0, 0.0, 3, "b > a"),                 # reversed axis, h < 0
        (1, 0.0, 0.0, 3, "b > a"),                 # empty axis, h = 0
        (1, 0.0, 1.0, 1, "nx >= 2"),               # h would divide by zero
        (0, 0.0, 1.0, 3, "d >= 1"),
        (1, -1.7e308, 1.7e308, 3, "overflow"),     # b - a overflows, so h = inf
    ])
    def test_both_grid_types_reject_bad_axes(self, steady, d, a, b, nx, match):
        shape = (nx,) * d + (d,)
        with pytest.raises(ValueError, match=match):
            GriddedField(d, a, b, nx, 1.0, 2, np.broadcast_to(np.zeros(shape), (2,) + shape))


@pytest.fixture
def mapped(tmp_path):
    """A read-only map of an 8 MB file of distinct float64 rows."""
    values = np.arange(1 << 20, dtype="<f8").reshape(-1, 16) * np.pi
    values.tofile(tmp_path / "body")
    return np.memmap(tmp_path / "body", dtype="<f8", mode="r", shape=values.shape), values


class TestRelease:
    """``release`` drops the pages under a view of a read-only file mapping
    and does nothing on any other array; ``blocks`` walks rows and releases
    each block after it."""

    def test_values_read_after_a_release_are_the_same_bits(self, mapped):
        body, values = mapped
        before = body[1000:3000].tobytes()
        release(body[1000:3000])
        release(body[::7, 3])
        assert body[1000:3000].tobytes() == before
        assert body.tobytes() == values.tobytes()
        release(body)
        assert body.tobytes() == values.tobytes()

    def test_a_release_drops_the_resident_pages(self, mapped, rss_file):
        body, _ = mapped
        float(body.sum())   # faults in every page
        resident = rss_file()
        release(body[: len(body) // 2])
        assert resident - rss_file() > 3e6   # about half of the 8.4 MB
        for _ in blocks(body):
            pass
        assert resident - rss_file() > 7e6   # blocks released the rest

    @pytest.mark.parametrize("array", [
        np.arange(1 << 16, dtype=float),                      # anonymous, many pages
        np.broadcast_to(np.arange(3.0), (1 << 14, 3)),
        np.empty((0, 3)),
        np.array(2.5),
    ], ids=["anonymous", "broadcast", "empty", "0-d"])
    def test_does_nothing_on_other_arrays(self, array):
        before = array.tobytes()
        release(array)
        assert array.tobytes() == before

    def test_does_nothing_on_an_empty_view_of_a_mapping(self, mapped):
        body, values = mapped
        release(body[5:5])
        release(body[:, 3:3])
        assert body[5:6].tobytes() == values[5:6].tobytes()

    def test_a_copy_on_write_value_survives(self, mapped, tmp_path):
        _, values = mapped
        body = np.memmap(tmp_path / "body", dtype="<f8", mode="c", shape=values.shape)
        body[7, 2] = -1.0
        release(body)
        release(body[7])
        assert body[7, 2] == -1.0
        assert np.fromfile(tmp_path / "body", "<f8")[7 * 16 + 2] == values[7, 2]

    @pytest.mark.parametrize("flip", [False, True])
    def test_a_row_release_is_the_release_of_the_rows(self, mapped, monkeypatch, flip):
        # row_releaser finds the bytes of rows by arithmetic on one row of the
        # box; release finds them from the view: the same pages either way
        body, _ = mapped
        a = body.reshape(512, 128, 16)[::-1 if flip else 1]
        box = (slice(3, 70), slice(2, 9))
        advised = []
        monkeypatch.setattr(fields, "_advise", lambda mapping, lo, hi: advised.append((lo, hi)))
        for start, stop in [(0, 1), (5, 6), (5, 9), (300, 700), (511, 512)]:
            fields.row_releaser(a, *box)(start, stop)
            release(a[(slice(max(2 * start - stop, 0), stop),) + box])
            assert advised[-2] == advised[-1]
        assert len(advised) == 10

    @pytest.mark.parametrize("shape", [(300, 1000), (131, 1000), (1, 5), (300_000,)])
    def test_blocks_yield_every_row_once_in_order(self, shape):
        a = np.arange(np.prod(shape), dtype=float).reshape(shape)
        step = fields.FINITE_BLOCK // a.strides[0]
        got = list(blocks(a))
        assert [len(b) for b in got[:-1]] == [step] * (len(got) - 1)
        assert 0 < len(got[-1]) <= step
        assert np.concatenate(got).tobytes() == a.tobytes()

    def test_blocks_take_a_0d_array_as_one_row(self):
        assert [b.tolist() for b in blocks(np.array(4.0))] == [[4.0]]

    def test_blocks_of_a_mapping_read_back_the_file(self, mapped):
        body, values = mapped
        assert np.concatenate(list(blocks(body))).tobytes() == values.tobytes()
        assert np.concatenate(list(blocks(body[::-1]))).tobytes() == values[::-1].tobytes()
