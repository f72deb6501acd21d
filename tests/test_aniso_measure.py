import math

import numpy as np
import pytest

from dissdim import aniso_measure as am
from dissdim import fixtures as fx
from dissdim import io as dio
from dissdim.aniso_measure import AtomicMeasure, Cylinder


def cyl(x, t, delta, alpha=1.0):
    return Cylinder((*(x if isinstance(x, tuple) else (x,)), t), delta, alpha)


def cantor_points(level, t=0.5):
    xs = np.array([0.0])
    for _ in range(level):
        xs = np.concatenate([xs / 3.0, xs / 3.0 + 2.0 / 3.0])
    xs = xs + 2.0 ** -45  # keep points off lattice edges shared by two cells
    return np.column_stack([xs, np.full_like(xs, t)])


class TestCylinderMass:
    def test_single_atom_inside(self):
        mu = AtomicMeasure([[0.0, 0.0]], [1.0])
        assert am.cylinder_mass(mu, cyl(0.0, 0.0, 0.5)) == 1.0

    def test_single_atom_outside(self):
        mu = AtomicMeasure([[0.0, 0.0]], [1.0])
        assert am.cylinder_mass(mu, cyl(2.0, 0.0, 0.5)) == 0.0

    def test_grid_matches_bruteforce(self):
        xs = np.linspace(0, 1, 10)
        pos, ts = np.meshgrid(xs, xs, indexing="ij")
        mu = AtomicMeasure(np.column_stack([pos.ravel(), ts.ravel()]), np.ones(100))
        c = cyl(0.5, 0.5, 0.35)
        expected = sum(
            1.0
            for x in xs
            for t in xs
            if abs(x - 0.5) < 0.35 and abs(t - 0.5) < 0.35
        )
        assert am.cylinder_mass(mu, c) == expected

    def test_offsets_that_overflow_are_outside(self):
        # the first atom is 2e308 from the center in x, the second in t: both
        # offsets are inf, so both atoms are outside, with no RuntimeWarning
        mu = AtomicMeasure([[-1e308, 1e308], [1e308, -1e308], [1e308, 1e308]], [1.0, 2.0, 4.0])
        c = cyl(1e308, 1e308, 1e300)
        assert c.contains(mu.points).tolist() == [False, False, True]
        assert am.cylinder_mass(mu, c) == 4.0

    def test_strict_boundary_exclusion(self):
        mu = AtomicMeasure([[0.5, 0.0]], [1.0])
        assert am.cylinder_mass(mu, cyl(0.0, 0.0, 0.5)) == 0.0

    def test_monotone_in_delta_and_additive(self):
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.random((500, 1)), rng.random(500)])
        mu = AtomicMeasure(pts, rng.random(500))
        masses = [am.cylinder_mass(mu, cyl(0.5, 0.5, d)) for d in (0.1, 0.2, 0.4)]
        assert masses[0] <= masses[1] <= masses[2]
        # additivity over atom-disjoint cylinders
        left = am.cylinder_mass(mu, cyl(0.2, 0.5, 0.1))
        right = am.cylinder_mass(mu, cyl(0.8, 0.5, 0.1))
        both = left + right
        combined = sum(
            w
            for x, t, w in zip(mu.positions[:, 0], mu.times, mu.weights)
            if (abs(x - 0.2) < 0.1 or abs(x - 0.8) < 0.1) and abs(t - 0.5) < 0.1
        )
        assert both == pytest.approx(combined, rel=1e-12)

    def test_dimension_mismatch(self):
        mu = AtomicMeasure([[0.0, 0.0, 0.0]], [1.0])
        with pytest.raises(ValueError):
            am.cylinder_mass(mu, cyl(0.0, 0.0, 0.5))

    def test_measure_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            AtomicMeasure([[0.0, 0.0]], [-1.0])

    @pytest.mark.parametrize("weights, problem", [
        ([1.0, 2.0, -5e-324], "non-negative"),   # the least negative float, last
        ([-np.inf, 1.0, 2.0], "finite"),
        ([1.0, np.nan, -1.0], "finite"),
        ([0.0, -0.0, 5e-324], None),
    ])
    def test_weight_checks_see_every_atom(self, weights, problem):
        args = (np.zeros((3, 2)), weights)
        if problem is None:
            assert AtomicMeasure(*args).n_atoms == 3
        else:
            with pytest.raises(ValueError, match=problem):
                AtomicMeasure(*args)

    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates_rejected(self, column, value):
        rows = np.zeros((4, 3))
        rows[-1, column] = value
        with pytest.raises(ValueError, match="finite"):
            AtomicMeasure(rows[:, :2], rows[:, 2])

    def test_empty_measure_accepted(self):
        mu = AtomicMeasure(np.zeros((0, 3)), [])
        assert mu.n_atoms == 0 and mu.total_mass == 0.0
        assert am.cylinder_mass(mu, Cylinder((0.0, 0.0, 0.0), 1.0, 1.0)) == 0.0


class TestCylinderCenter:
    """A cylinder's center is one space-time row [x_1 ... x_d, t]."""

    def test_rejects_non_finite(self):
        for center in ((np.inf, 0.0), (0.0, np.nan), (0.0, -np.inf, 1.0)):
            with pytest.raises(ValueError, match="space-time point must have finite coordinates"):
                Cylinder(center, 1.0, 1.0)

    def test_coordinates_normalized(self):
        c = Cylinder(np.array([1, 2, 3]), 1, 2)
        assert c.center == (1.0, 2.0, 3.0) and all(type(v) is float for v in c.center)
        assert c.d == 2 and (c.delta, c.alpha) == (1.0, 2.0)


class TestPointLayout:
    """A measure holds its atoms as the package's (n, d+1) point rows."""

    def test_positions_and_times_view_the_points(self):
        mu = AtomicMeasure(np.arange(12.0).reshape(4, 3), np.ones(4))
        assert mu.d == 2 and mu.positions.shape == (4, 2) and mu.times.shape == (4,)
        for arr in (mu.positions, mu.times):
            assert np.shares_memory(arr, mu.points) and not arr.flags.writeable

    def test_the_arrays_cannot_be_replaced(self):
        mu = AtomicMeasure(np.zeros((3, 2)), np.ones(3))
        for name in ("points", "weights", "positions", "times"):
            with pytest.raises(AttributeError):
                setattr(mu, name, getattr(mu, name))
        for arr in (mu.points, mu.weights):
            assert not arr.flags.writeable

    def test_the_callers_arrays_stay_writeable(self):
        points, weights = np.zeros((3, 2)), np.ones(3)
        mu = AtomicMeasure(points, weights)
        assert np.shares_memory(mu.points, points) and np.shares_memory(mu.weights, weights)
        points[0, 0], weights[0] = 1.0, 2.0
        assert mu.points[0, 0] == 1.0 and mu.weights[0] == 2.0

    @pytest.mark.parametrize("points, weights", [
        (np.zeros(3), np.ones(3)),          # 1-D points
        (np.zeros((3, 1)), np.ones(3)),     # one column: d = 0
        (np.zeros((3, 2)), np.ones(2)),     # mismatched lengths
    ])
    def test_a_bad_shape_is_rejected(self, points, weights):
        with pytest.raises(ValueError):
            AtomicMeasure(points, weights)

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("n", [0, 300, 70_001])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_support_points_are_the_heavy_rows(self, tmp_path, d, n, binary):
        # weights of 0 and 1e-20 lie below the cutoff, the others above it; 70,001
        # rows straddle a fields.blocks boundary at every row stride here, and
        # the in-memory points and weights have different strides
        rng = np.random.default_rng(d)
        mu = AtomicMeasure(rng.standard_normal((n, d + 1)), rng.choice([0.0, 1e-20, 0.5, 2.0], n))
        dio.write_measure(tmp_path / "m", mu, binary=binary)
        for m in (mu, dio.read_measure(tmp_path / "m")):
            mask = m.weights > am.SUPPORT_WEIGHT_CUTOFF * m.total_mass
            want = np.column_stack([m.positions[mask], m.times[mask]])
            got = m.support_points()
            assert got.shape == want.shape == (mask.sum(), d + 1)
            assert got.tobytes() == want.tobytes()


class TestMappedResidency:
    """The dimension steps leave a mapped measure's pages released."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_support_and_ladder_keep_no_pages(self, tmp_path, rss_file, d):
        n = 8_000_000 // (8 * (d + 2))   # an 8 MB body
        rng = np.random.default_rng(d)
        mu = AtomicMeasure(rng.random((n, d + 1)), rng.random(n))
        dio.write_measure(tmp_path / "m", mu, binary=True)
        scales = [0.1, 0.05, 0.025]
        # a run in memory first faults in the library code that the steps use
        am.density_ladder(mu, 1.0, 0.0, scales, centers=mu.support_points()[::n // 4])
        mu = dio.read_measure(tmp_path / "m")
        resident = rss_file()
        centers = mu.support_points()
        assert rss_file() - resident < 1e6
        am.density_ladder(mu, 1.0, 0.0, scales, centers=centers[::n // 4])
        assert rss_file() - resident < 1e6

    def test_a_cylinder_mass_keeps_no_pages(self, tmp_path, rss_file):
        n = 8_000_000 // 24   # an 8 MB d = 1 body
        rng = np.random.default_rng(0)
        mu = AtomicMeasure(rng.random((n, 2)), rng.random(n))
        dio.write_measure(tmp_path / "m", mu, binary=True)
        c = Cylinder((0.5, 0.5), 0.25, 1.0)
        want = float(mu.weights[c.contains(mu.points)].sum())   # one mask
        assert am.cylinder_mass(mu, c) == want   # also faults in the library code it uses
        mu = dio.read_measure(tmp_path / "m")
        resident = rss_file()
        assert am.cylinder_mass(mu, c) == want
        assert rss_file() - resident < 1e6


class TestBoxCounting:
    SCALES = [2.0 ** -k for k in range(2, 8)]

    def test_full_square_dimension(self):
        rng = np.random.default_rng(7)
        pts = rng.random((100000, 2))
        res = am.box_counting_dimension(pts, 1.0, self.SCALES)
        assert res.dim_estimate == pytest.approx(2.0, abs=0.15)
        assert all(a <= b for a, b in zip(res.counts, res.counts[1:]))

    def test_segment_isotropic(self):
        xs = np.linspace(0, 1, 4000, endpoint=False)
        pts = np.column_stack([xs, np.full_like(xs, 0.5)])
        res = am.box_counting_dimension(pts, 1.0, self.SCALES)
        assert res.dim_estimate == pytest.approx(1.0, abs=0.1)

    def test_segment_parabolic_count_oracle(self):
        # a time slab still needs about 1/delta spatial cells at any alpha
        xs = np.linspace(0, 1, 4000, endpoint=False)
        pts = np.column_stack([xs, np.full_like(xs, 0.5)])
        res = am.box_counting_dimension(pts, 2.0, self.SCALES)
        for delta, count in zip(self.SCALES, res.counts):
            assert count == math.ceil(1.0 / delta)
        assert res.dim_estimate == pytest.approx(1.0, abs=0.1)

    def test_validation(self):
        pts = np.zeros((5, 2))
        with pytest.raises(ValueError):
            am.box_counting_dimension(pts, 1.0, [0.5, 0.25])
        with pytest.raises(ValueError):
            am.box_counting_dimension(pts, 1.0, [0.5, 0.5, 0.25])
        with pytest.raises(ValueError):
            am.box_counting_dimension(np.zeros((0, 2)), 1.0, self.SCALES)

    def test_nan_scale_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            am.box_counting_dimension(np.zeros((5, 2)), 1.0, [math.nan, 0.5, 0.25])

    def test_union_bounded_by_max(self):
        rng = np.random.default_rng(3)
        cloud = rng.random((20000, 2))
        xs = np.linspace(0, 1, 2000, endpoint=False)
        line = np.column_stack([xs, np.full_like(xs, 0.3)])
        d_cloud = am.box_counting_dimension(cloud, 1.0, self.SCALES).dim_estimate
        d_line = am.box_counting_dimension(line, 1.0, self.SCALES).dim_estimate
        d_union = am.box_counting_dimension(
            np.vstack([cloud, line]), 1.0, self.SCALES
        ).dim_estimate
        assert d_union <= max(d_cloud, d_line) + 0.15

    def test_product_with_time_interval(self):
        # (cantor set in space) x (time interval): dimension log2/log3 + 1
        # at triadic scales the lattice count is exactly 6^k
        xs = cantor_points(9)[:, 0]
        ts = (np.arange(512) + 0.5) / 512
        pts = np.stack(np.meshgrid(xs, ts, indexing="ij"), axis=-1).reshape(-1, 2)
        scales = [3.0 ** -k for k in range(2, 6)]
        res = am.box_counting_dimension(pts, 1.0, scales)
        target = math.log(2) / math.log(3) + 1
        assert res.dim_estimate == pytest.approx(target, abs=0.2)


class TestDensityLadder:
    def test_uniform_grid_density_constant(self):
        m = 256
        mu = fx.grid_measure(1, m, m)
        h = 1.0 / m
        scales = [(k + 0.5) * h for k in (63, 31, 15, 7, 3)]
        sup = mu.support_points()
        center = sup[np.argmin(np.sum((sup - [0.5, 0.5]) ** 2, axis=1))][None, :]
        lad = am.density_ladder(mu, 1.0, 2.0, scales, centers=center)
        assert lad.densities == pytest.approx([4.0] * 5, rel=1e-12)
        assert lad.fitted_slope == pytest.approx(2.0, abs=1e-9)

    def test_dirac_at_s0(self):
        mu = AtomicMeasure([[0.25, 0.25]], [2.5])
        lad = am.density_ladder(mu, 1.0, 0.0, [0.2, 0.1, 0.05, 0.025], centers=mu.support_points())
        assert lad.densities == pytest.approx([2.5] * 4)

    def test_shock_measure_density(self):
        datum = fx.RiemannDatum(1.0, -1.0)
        mu = fx.burgers_dissipation_measure(datum, 1.0, 4096)
        dt = 1.0 / 4096
        scales = [(k + 0.5) * dt for k in (255, 127, 63, 31, 15)]
        # center on an interior atom of the shock path
        center = mu.support_points()[2047][None, :]
        lad = am.density_ladder(mu, 1.0, 1.0, scales, centers=center)
        assert lad.densities == pytest.approx([4.0 / 3.0] * 5, rel=1e-12)

    def test_densities_bounded_by_mass_at_s0(self):
        rng = np.random.default_rng(5)
        pts = np.column_stack([rng.random((200, 1)), rng.random(200)])
        mu = AtomicMeasure(pts, rng.random(200))
        lad = am.density_ladder(mu, 1.0, 0.0, [0.4, 0.2, 0.1], centers=mu.support_points())
        assert max(lad.densities) <= mu.total_mass

    def test_validation(self):
        mu = AtomicMeasure([[0.0, 0.0]], [1.0])
        for s in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                am.density_ladder(mu, 1.0, s, [0.4, 0.2, 0.1], centers=mu.support_points())
        # delta**s underflows to 0 (s = 400) or overflows (s = 1e6, delta = 2)
        for s, scales in ((400.0, [0.125, 0.0625, 0.03125]), (1e6, [2.0, 1.0, 0.5])):
            with pytest.raises(ValueError, match="float range"):
                am.density_ladder(mu, 1.0, s, scales, centers=mu.support_points())
        with pytest.raises(ValueError, match="finite"):
            am.density_ladder(mu, 1.0, 0.0, [0.4, 0.2, 0.1], centers=[[math.nan, 0.0]])
        empty = AtomicMeasure(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            am.density_ladder(empty, 1.0, 1.0, [0.4, 0.2, 0.1], centers=empty.support_points())

    def test_nan_scale_rejected(self):
        mu = AtomicMeasure([[0.0, 0.0]], [1.0])
        with pytest.raises(ValueError, match="positive"):
            am.density_ladder(mu, 1.0, 0.0, [math.nan, 0.5, 0.25], centers=mu.support_points())

    def test_sup_masses_are_the_measured_maxima(self):
        # not rebuilt as density * delta**s, which can differ in the last bit
        rng = np.random.default_rng(11)
        for _ in range(20):
            pts = np.column_stack([rng.random((50, 1)), rng.random(50)])
            mu = AtomicMeasure(pts, rng.random(50))
            s = rng.uniform(0.1, 2.0)
            scales = np.sort(rng.uniform(0.01, 0.5, 5))[::-1].tolist()
            lad = am.density_ladder(mu, 1.0, s, scales, centers=mu.support_points())
            want = am._masses(mu, mu.support_points(), scales, 1.0).max(axis=1)
            assert lad.sup_masses == tuple(want.tolist())

    @pytest.mark.parametrize("d", [1, 2])
    def test_a_radius_whose_square_overflows(self, d):
        # delta**2 = inf is a valid radius: every atom lies inside
        rng = np.random.default_rng(d)
        mu = AtomicMeasure(np.column_stack([rng.random((50, d)), rng.random(50)]), rng.random(50))
        lad = am.density_ladder(mu, 1.0, 0.0, [1e300, 1e299, 1e298], centers=mu.support_points())
        assert lad.densities == pytest.approx([mu.total_mass] * 3, rel=1e-12)
        cyl = Cylinder((0.0,) * d + (0.0,), 1e300, 1.0)
        assert am.cylinder_mass(mu, cyl) == pytest.approx(mu.total_mass, rel=1e-12)

    def test_fewer_than_three_positive_scales_fit_no_slope(self):
        # a center 0.3 off the one atom: only the 0.4 cylinder holds it
        mu = AtomicMeasure([[0.0, 0.0]], [1.0])
        lad = am.density_ladder(mu, 1.0, 0.0, [0.4, 0.2, 0.1], centers=[[0.3, 0.0]])
        assert lad.sup_masses == (1.0, 0.0, 0.0)
        assert math.isnan(lad.fitted_slope) and math.isnan(lad.fit_residual)
        assert am.certify_lower_bound(lad) == (0.0, "inconclusive")


def ladder_scales(base_count, unit):
    ks = [255, 127, 63, 31, 15, 7, 3, 1][:base_count]
    return [(k + 0.5) * unit for k in ks]


class TestCertifyLowerBound:
    def test_uniform_grid(self):
        m = 1024
        mu = fx.grid_measure(1, m, m)
        sup = mu.support_points()
        center = sup[np.argmin(np.sum((sup - [0.5, 0.5]) ** 2, axis=1))][None, :]
        lad = am.density_ladder(mu, 1.0, 2.0, ladder_scales(8, 1.0 / m), centers=center)
        certified, verdict = am.certify_lower_bound(lad)
        assert verdict == "certified"
        assert certified == pytest.approx(2.0, abs=0.15)

    def test_dirac(self):
        mu = AtomicMeasure([[0.5, 0.5]], [1.0])
        lad = am.density_ladder(mu, 1.0, 0.0, ladder_scales(8, 1.0 / 1024),
                                centers=mu.support_points())
        certified, verdict = am.certify_lower_bound(lad)
        assert verdict == "certified"
        assert certified == pytest.approx(0.0, abs=0.15)

    def test_radial_power_law_measure(self):
        # rings with boundaries on the scale ladder carry exactly the
        # power-law ball masses c_d * delta**eps of the divergence field
        eps, d = 0.5, 2
        field = fx.PowerLawField(d, eps)
        scales = ladder_scales(8, 1.0 / 1024)
        edges = scales + [scales[-1] / 4.0]
        n_ang = 16
        pos, ws = [], []
        for outer, inner in zip(edges, edges[1:]):
            ring_mass = field.c_d * (outer ** eps - inner ** eps)
            mid = 0.5 * (outer + inner)
            for i in range(n_ang):
                ang = 2 * math.pi * i / n_ang
                pos.append([mid * math.cos(ang), mid * math.sin(ang)])
                ws.append(ring_mass / n_ang)
        pos.append([edges[-1] / 2.0, 0.0])
        ws.append(field.c_d * edges[-1] ** eps)
        mu = AtomicMeasure(np.column_stack([pos, np.zeros(len(ws))]), np.array(ws))
        lad = am.density_ladder(mu, 1.0, eps, scales, centers=np.array([[0.0, 0.0, 0.0]]))
        assert lad.densities == pytest.approx([field.c_d] * len(scales), rel=1e-12)
        certified, verdict = am.certify_lower_bound(lad)
        assert verdict == "certified"
        assert certified == pytest.approx(eps, abs=0.15)

    @pytest.mark.parametrize("s", [0.0, 1.0])
    def test_gauges_that_overflow_are_inf(self, s):
        # equal masses at delta = 1e307, 5e306, 2.5e306: the densities stay within
        # twice the first while 4**s' <= 2, so s' = 0.5 is certified; past s' = 1,
        # delta**s' overflows to inf, with no RuntimeWarning.  From s' = 1.01 on
        # (before s_max = s + 1.005 at s = 1) every gauge is inf and every density
        # 0, which certifies nothing: the scan stops there
        lad = am.DensityLadder(s=s, scales=(1e307, 5e306, 2.5e306), densities=(1.0,) * 3,
                               sup_masses=(1.0,) * 3, fitted_slope=0.0, fit_residual=0.0)
        assert am.certify_lower_bound(lad) == (0.5, "certified")

    def test_inconclusive_on_short_ladder(self):
        mu = AtomicMeasure([[0.5, 0.5]], [1.0])
        lad = am.density_ladder(mu, 1.0, 0.0, [0.4, 0.2, 0.1], centers=mu.support_points())
        noisy = am.DensityLadder(
            s=0.0, scales=lad.scales, densities=(1.0, 0.0, 0.0),
            sup_masses=(1.0, 0.0, 0.0),
            fitted_slope=float("nan"), fit_residual=float("nan"),
        )
        certified, verdict = am.certify_lower_bound(noisy)
        assert verdict == "inconclusive"

    def test_premeasure_consistency_below_certified(self, covering_estimates):
        # wherever a ladder certifies exponent s, the covering estimate at
        # s - 0.2 diverges as the cap shrinks (three fixture sets)
        fixtures = []
        m = 512
        mu = fx.grid_measure(1, m, m)
        fixtures.append((mu.support_points(), 2.0))
        datum = fx.RiemannDatum(1.0, -1.0)
        shock = fx.burgers_dissipation_measure(datum, 1.0, 4096)
        fixtures.append((shock.support_points(), 1.0))
        slab = fx.grid_measure(1, 4096, 1)
        fixtures.append((slab.support_points(), 1.0))
        for pts, s in fixtures:
            vals = covering_estimates(pts, s - 0.2, [0.1 * 2.0 ** -j for j in range(4)])
            assert all(b > a for a, b in zip(vals, vals[1:]))


class TestCoveringPremeasure:
    def test_single_point_vanishes_with_cap(self, covering_estimates):
        pts = np.array([[0.3, 0.4]])
        for s in (0.5, 1.0):
            vals = covering_estimates(pts, s, [0.2, 0.1, 0.05])
            assert vals == pytest.approx([dc ** s for dc in (0.2, 0.1, 0.05)])
            assert vals[-1] < vals[0]

    def test_segment_stable_at_its_dimension(self, covering_estimates):
        xs = np.linspace(0, 1, 5000, endpoint=False)
        pts = np.column_stack([xs, np.full_like(xs, 0.25)])
        vals = covering_estimates(pts, 1.0, [2.0 ** -k for k in range(2, 7)])
        assert all(0.9 <= v <= 1.3 for v in vals)

    def test_cantor_bounded_at_its_dimension(self, covering_estimates):
        s = math.log(2) / math.log(3)
        pts = cantor_points(10)
        vals = covering_estimates(pts, s, [3.0 ** -k for k in range(2, 8)])
        # exact 2^k-cell covers at triadic scales keep the estimate near 1
        assert max(vals) <= 4 * min(vals)
        assert all(0.25 <= v <= 4.0 for v in vals)


def alpha_estimates(points, scales):
    """Box-dimension estimates at alpha = 1 and 2, and whether the second
    drops below the first by more than the fit tolerance 0.15: at scales
    below 1 a larger alpha thins the temporal cells, so it may not."""
    e1, e2 = (am.box_counting_dimension(points, alpha, scales).dim_estimate
              for alpha in (1.0, 2.0))
    return (e1, e2), e2 < e1 - 0.15


class TestAlphaMonotonicity:
    SCALES = [2.0 ** -k for k in range(2, 7)]

    def test_time_slab_d2(self):
        slab = fx.time_singular_measure_fixture(2, 300000, seed=2)
        estimates, violation = alpha_estimates(slab.support_points(), self.SCALES)
        assert estimates[0] == pytest.approx(2.0, abs=0.15)
        assert estimates[1] == pytest.approx(2.0, abs=0.15)
        assert not violation

    def test_diagonal_exact_lattice_counts(self):
        # oracle: in each spatial column of width delta the diagonal spans a
        # time range of length delta, hence delta/delta**alpha cells; the
        # alpha = 2 estimate is therefore 2, not 1
        xs = np.linspace(0, 1, 20000, endpoint=False)
        diag = np.column_stack([xs, xs])
        scales = [2.0 ** -k for k in range(2, 6)]
        estimates, violation = alpha_estimates(diag, scales)
        r2 = am.box_counting_dimension(diag, 2.0, scales)
        for delta, count in zip(scales, r2.counts):
            per_column = delta / delta ** 2
            assert count == pytest.approx((1.0 / delta) * per_column, rel=0.05)
        assert estimates[0] == pytest.approx(1.0, abs=0.1)
        assert estimates[1] == pytest.approx(2.0, abs=0.1)
        assert not violation

    def test_full_cube_d1(self):
        gx = (np.arange(64) + 0.5) / 64
        gt = (np.arange(4096) + 0.5) / 4096
        cube = np.stack(np.meshgrid(gx, gt, indexing="ij"), axis=-1).reshape(-1, 2)
        estimates, violation = alpha_estimates(cube, [2.0 ** -k for k in range(1, 6)])
        assert estimates[0] == pytest.approx(2.0, abs=0.1)
        assert estimates[1] == pytest.approx(3.0, abs=0.1)
        assert not violation
