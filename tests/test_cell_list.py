"""Cylinder masses against an all-pairs oracle, and the lattice's range check.

``_masses`` runs the merge-sort-tree sweep for d = 1 and the cell list for
d = 2, 3; the oracle applies the strict membership tests of
``Cylinder.contains`` to every center-atom pair.  Cases put centers and atoms
on lattice cell faces, on cylinder boundaries and a few ulps to either side
of both, where the rounded cell index, the sweep's bisection and the rounded
membership test could disagree.
"""

import json
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dissdim import aniso_measure as am
from dissdim import io as dio
from dissdim.aniso_measure import AtomicMeasure
from dissdim.cli import main


def all_pairs(mu, centers, delta, alpha):
    """Masses and member counts per center, testing every atom."""
    d2 = np.sum((mu.positions[None, :, :] - centers[:, None, :-1]) ** 2, axis=2)
    inside = (d2 < delta ** 2) & (np.abs(mu.times[None, :] - centers[:, None, -1])
                                  < delta ** alpha)
    return inside @ mu.weights, inside.sum(axis=1)


def masses(mu, centers, deltas, alpha):
    """Masses and member counts from ``_masses``, one row per scale; the counts
    are the masses of the same atoms with unit weights (exact float sums)."""
    ones = AtomicMeasure(mu.points, np.ones(mu.n_atoms))
    return am._masses(mu, centers, deltas, alpha), am._masses(ones, centers, deltas, alpha)


def assert_matches_all_pairs(mu, centers, deltas, alpha):
    got, counts = masses(mu, centers, deltas, alpha)
    assert got.shape == counts.shape == (len(deltas), len(centers))
    for row, delta in enumerate(deltas):
        want, want_counts = all_pairs(mu, centers, delta, alpha)
        assert np.array_equal(counts[row], want_counts)
        assert np.all(np.abs(got[row] - want) <= 1e-12 * mu.total_mass)
    return got


def nudge(x, ulps):
    """Move each entry of x by the given number of ulps."""
    x = np.array(x, dtype=float)
    for step in range(int(np.max(np.abs(ulps), initial=0))):
        move = np.abs(ulps) > step
        x[move] = np.nextafter(x[move], np.where(ulps > 0, np.inf, -np.inf)[move])
    return x


ULPS = st.integers(-3, 3)


@st.composite
def cases(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    alpha = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0]))
    deltas = draw(st.lists(st.one_of(st.sampled_from([2.0 ** -3, 0.1, 1.0 / 3.0, 0.7]),
                                     st.floats(0.01, 1.0)), min_size=1, max_size=3, unique=True))
    all_sides = [np.array([delta] * d + [delta ** alpha]) for delta in deltas]
    sides = all_sides[0]
    # scaled coordinates near powers of two, where the rounding of x / side
    # changes its ulp from one cell to the next
    base = draw(st.sampled_from([0.0, 1e3, 2.0 ** 30] + [sign * 2.0 ** m for sign in (1, -1)
                                                         for m in (2, 7, 10, 19)])) * sides

    def lattice_points(n):
        # cell faces, cell midpoints or arbitrary positions, nudged by a few ulps
        k = np.array(draw(st.lists(st.integers(-3, 3), min_size=n * (d + 1),
                                   max_size=n * (d + 1)))).reshape(n, d + 1)
        frac = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 0.999, 0.37]),
                                      min_size=n * (d + 1), max_size=n * (d + 1))))
        pts = base + (k + frac.reshape(n, d + 1)) * sides
        ulps = np.array(draw(st.lists(ULPS, min_size=pts.size, max_size=pts.size)))
        return nudge(pts.ravel(), ulps).reshape(pts.shape)

    centers = lattice_points(draw(st.integers(1, 6)))
    # atoms one side or half a side of some scale from a center along each
    # axis, then nudged: on, just inside and just outside the cylinder boundary
    near = []
    for c in centers:
        for _ in range(draw(st.integers(0, 6))):
            step = np.array(draw(st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
                                          min_size=d + 1, max_size=d + 1)))
            ulps = np.array(draw(st.lists(ULPS, min_size=d + 1, max_size=d + 1)))
            near.append(nudge(c + step * draw(st.sampled_from(all_sides)), ulps))
    atoms = np.vstack([lattice_points(draw(st.integers(0, 12))),
                       np.reshape(near, (-1, d + 1))])
    if len(atoms) and draw(st.booleans()):
        atoms = np.vstack([atoms, atoms[:draw(st.integers(1, len(atoms)))]])   # duplicates
    if d >= 2 and draw(st.booleans()):
        # a copy of every center and atom 2**32 to 2**40 cells away on two
        # spatial axes: the cell index box holds more cells than an int64 counts
        shift = np.zeros(d + 1)
        for axis in draw(st.permutations(range(d)))[:2]:
            shift[axis] = draw(st.sampled_from([-1, 1])) * draw(
                st.integers(2 ** 32, 2 ** 40)) * sides[axis]
        centers = np.vstack([centers, centers + shift])
        atoms = np.vstack([atoms, atoms + shift])
    weights = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 0.25, 3.7]),
                                     min_size=len(atoms), max_size=len(atoms))))
    far = centers + 1e6 * max(deltas)   # no atom within reach
    mu = AtomicMeasure(atoms.reshape(-1, d + 1), weights)
    return mu, np.vstack([centers, far]), len(centers), deltas, alpha


class TestCellListOracle:
    @settings(max_examples=400, deadline=None)
    @given(case=cases())
    def test_matches_all_pairs(self, case):
        mu, centers, n_near, deltas, alpha = case
        got = assert_matches_all_pairs(mu, centers, deltas, alpha)
        assert not np.any(got[:, n_near:])

    # atoms on a uniform lattice, each a center, with time step h**alpha: at
    # delta = h every neighbour lies on the cylinder boundary (the sampled
    # measures of the viscous solver have this shape)
    @settings(max_examples=100, deadline=None)
    @given(d=st.sampled_from([1, 2]), alpha=st.sampled_from([0.5, 1.0, 2.0]),
           h=st.sampled_from([5e-5, 2.0 ** -4, 0.1, 1.0 / 3.0, 0.7]),
           origin=st.sampled_from([0.0, -0.03, -1.0 / 3.0, 1e3]),
           n=st.integers(2, 7), data=st.data())
    def test_lattice_at_its_spacing(self, d, alpha, h, origin, n, data):
        axes = [origin + h * np.arange(n)] * d + [h ** alpha * np.arange(n)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d + 1)
        weights = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0, 0.25, 3.7]),
                                              min_size=len(pts), max_size=len(pts))))
        mu = AtomicMeasure(pts, weights)
        assert_matches_all_pairs(mu, pts, [2.0 * h, 1.5 * h, h, 0.5 * h], alpha)

    # member atoms in a cell below floor(c / side - 1), where the rounded
    # subtraction lands on a power of two: (center, atom, side), found by a
    # random search; the cell list must widen its reach past that cell
    @pytest.mark.parametrize("c, x, side", [
        (-54176.701044934955, -54176.804378988716, 0.10333405376241438),
        (-27.215312802300904, -27.429606603893824, 0.21429380159292047),
        (-121.79857693374535, -122.75762084660948, 0.9590439128641365),
        (-102.37267186172618, -102.47274289971418, 0.10007103798800211),
    ])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_atoms_past_the_neighbour_cells(self, c, x, side, axis):
        # d = 2, so the cell list answers; the other axes stay at 0
        atom, center = np.zeros(3), np.zeros((1, 3))
        atom[axis], center[0, axis] = x, c
        mu = AtomicMeasure(atom[None, :], [1.0])
        assert np.floor(x / side) < np.floor(c / side - 1)
        assert all_pairs(mu, center, side, 1.0)[1][0] == 1
        assert masses(mu, center, [side], 1.0)[1][0, 0] == 1.0

    # delta**alpha rounds to 0 at the second scale, and so does delta**2 in
    # the first case: the open interval, so every cylinder, is empty, also
    # at its center
    @pytest.mark.parametrize("alpha, delta", [(2.0, 2.0 ** -600), (1100.0, 0.5)])
    def test_radii_that_underflow(self, alpha, delta):
        pts = np.array([[0.0, 0.0], [0.5, 0.0]])
        mu = AtomicMeasure(pts, [1.0, 2.0])
        got = assert_matches_all_pairs(mu, pts, [0.75, delta], alpha)
        assert got.tolist() == [[3.0, 3.0], [0.0, 0.0]]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_measure_without_atoms(self, d):
        mu = AtomicMeasure(np.zeros((0, d + 1)), np.zeros(0))
        centers = np.zeros((3, d + 1))
        assert np.array_equal(am._masses(mu, centers, [0.5, 0.25], 1.0), np.zeros((2, 3)))

    def test_wrapped_keys_count_each_atom_once(self):
        # spatial spans of 2**32 cells on axes 1 and 2 make the stride of axis 0
        # 2**64, so all cells along axis 0 share one wrapped key
        cluster = np.array([[x, 0.0, 0.0] for x in (-1.5, -0.5, 0.25, 0.75, 1.5)])
        corners = np.array([[0.0, 2.0 ** 32 - 0.5, 0.0], [0.0, 0.0, 2.0 ** 32 - 0.5]])
        pos = np.vstack([cluster, corners])
        pts = np.column_stack([pos, np.zeros(len(pos))])
        mu = AtomicMeasure(pts, np.arange(1.0, len(pts) + 1))
        centers = np.array([[0.1, 0.0, 0.0, 0.0], [-0.9, 0.0, 0.0, 0.0]])
        got, counts = masses(mu, centers, [1.0], 1.0)
        want_masses, want_counts = all_pairs(mu, centers, 1.0, 1.0)
        assert np.array_equal(counts[0], want_counts)
        assert np.array_equal(got[0], want_masses)


def grid_measure(rng, n):
    """n atoms of a d = 1 measure on the grid of step 1/8 in x and t, so many
    share an x, a t or both, with weights in {0, 0.25, 1, 3.5}: every partial
    sum of such weights is exact, so masses compare bit for bit."""
    x, t = rng.integers(-8, 9, n) / 8.0, rng.integers(0, 9, n) / 8.0
    return AtomicMeasure(np.column_stack([x, t]), rng.choice([0.0, 0.25, 1.0, 3.5], n))


class TestSweep:
    """The d = 1 sweep answers its queries QUERY_BLOCK at a time."""

    # the atom counts 2**k and 2**k + 1 fill the merge-sort tree's last block
    # exactly or with one atom; scales 1/4 and 1/8 put grid atoms on the
    # boundary of grid-centred cylinders
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 16, 17, 64, 65])
    @pytest.mark.parametrize("query_block", [1, 3, 64])
    def test_blocks_of_queries_match_all_pairs_exactly(self, n, query_block, monkeypatch):
        rng = np.random.default_rng(n)
        mu = grid_measure(rng, n)
        centers = np.vstack([mu.points, rng.integers(-9, 10, (40, 2)) / 8.0,
                             rng.uniform(-1.1, 1.1, (10, 2))])
        monkeypatch.setattr(am, "QUERY_BLOCK", query_block)
        deltas = [0.5, 0.3, 0.25, 0.125]
        got = am._masses(mu, centers, deltas, 2.0)
        for row, delta in enumerate(deltas):
            assert np.array_equal(got[row], all_pairs(mu, centers, delta, 2.0)[0])

    def test_more_queries_than_one_block(self):
        rng = np.random.default_rng(7)
        mu = grid_measure(rng, 65)
        centers = rng.integers(-9, 10, (6000, 2)) / 8.0
        deltas = [0.5, 0.25, 0.125]
        assert len(deltas) * len(centers) > am.QUERY_BLOCK
        got = am._masses(mu, centers, deltas, 1.0)
        for row, delta in enumerate(deltas):
            assert np.array_equal(got[row], all_pairs(mu, centers, delta, 1.0)[0])

    # traced bytes: 28 per atom and 24 per query (four int32 range ends and
    # the float64 mass) plus the temporaries of one block of queries.  Holding
    # every query's bisection and search arrays at once, as an unblocked sweep
    # does, takes about 100 B per query and 48 per atom.
    @pytest.mark.parametrize("n, m", [(2 ** 17 + 1, 256), (20000, 20000)])
    def test_memory_is_bounded_per_atom_and_per_query(self, n, m):
        rng = np.random.default_rng(1)
        mu = AtomicMeasure(np.column_stack([rng.random((n, 1)), rng.random(n)]), rng.random(n))
        centers = rng.random((m, 2))
        deltas = [0.1 * 0.5 ** k for k in range(6)]
        tracemalloc.start()
        try:
            am._masses(mu, centers, deltas, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * n + 28 * len(deltas) * m + 64 * am.QUERY_BLOCK

    def test_too_many_atoms_for_int32_ranks(self):
        class Huge:
            n_atoms, d = 2 ** 31, 1
        with pytest.raises(ValueError, match="2\\*\\*31"):
            am._masses(Huge(), np.zeros((1, 2)), [0.5], 1.0)


@st.composite
def int_rows(draw, cols):
    """Integer rows, with near-equal rows (one entry off by one) and entries
    near +-2**53, the ends of the lattice's exact cell indices."""
    value = st.one_of(st.integers(-3, 3), st.integers(-2 ** 53, 2 ** 53),
                      st.sampled_from([s * (2 ** 53 + k) for s in (1, -1) for k in (-2, -1, 0)]))
    pool = draw(st.lists(st.lists(value, min_size=cols, max_size=cols), min_size=1, max_size=6))
    for row in list(pool):
        near = list(row)
        near[draw(st.integers(0, cols - 1))] += draw(st.sampled_from([-1, 1]))
        pool.append(near)
    return draw(st.lists(st.sampled_from(pool), max_size=40))


class TestRowIds:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), cols=st.integers(1, 4))
    def test_equal_ids_exactly_for_equal_rows(self, data, cols):
        rows = np.array(data.draw(int_rows(cols)), dtype=np.int64).reshape(-1, cols)
        ids = am._row_ids(rows)
        distinct, inverse = np.unique(rows, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        assert ids.dtype == np.int64 and ids.shape == (len(rows),)
        assert sorted(set(ids.tolist())) == list(range(len(distinct)))   # dense
        # one id per distinct row and one row per id
        assert len(set(zip(ids.tolist(), inverse.tolist()))) == len(distinct)


class TestLatticeRange:
    FAR = [[1e19, 0.0], [3e19, 0.0], [5e19, 0.0]]

    def test_unrepresentable_cells_raise(self):
        with pytest.raises(ValueError, match="2\\*\\*53"):
            am.box_counting_dimension(self.FAR, 1.0, [1.0, 0.5, 0.25])
        # the ladder of a d >= 2 measure takes the cell list
        mu = AtomicMeasure([[1e19, 0.0, 0.0]], [1.0])
        with pytest.raises(ValueError, match="2\\*\\*53"):
            am.density_ladder(mu, 1.0, 0.0, [1.0, 0.5, 0.25])

    def test_an_overflowing_time_side(self):
        # 8**400 overflows a float64: no lattice has that time side, while the
        # time interval of a d = 1 cylinder then holds every finite atom
        with pytest.raises(ValueError, match="2\\*\\*53"):
            am.box_counting_dimension([[0.0, 1.0]], 400.0, [8.0, 4.0, 2.0])
        with pytest.raises(ValueError, match="2\\*\\*53"):
            am.density_ladder(AtomicMeasure([[0.0, 0.0, 0.0]], [1.0]), 400.0, 0.0,
                              [8.0, 4.0, 2.0])
        mu = AtomicMeasure([[0.0, 0.0], [0.5, 1e300]], [1.0, 2.0])
        assert am.density_ladder(mu, 400.0, 0.0, [8.0, 4.0, 2.0]).densities == (3.0, 2.0, 2.0)

    def test_sweep_needs_no_lattice(self):
        # 1e19 + 2048 is the next float after 1e19
        mu = AtomicMeasure([[1e19, 0.0], [1e19 + 2048.0, 0.0], [-1e19, 0.0]], [1.0, 2.0, 0.5])
        ladder = am.density_ladder(mu, 1.0, 0.0, [4096.0, 1024.0, 1.0])
        assert ladder.densities == (3.0, 2.0, 2.0)

    def test_largest_exact_cells_still_count(self):
        pts = [[2.0 ** 53 - 2, 0.0], [2.0 ** 53 - 1, 0.0], [-(2.0 ** 53 - 1), 0.0]]
        assert am.box_counting_dimension(pts, 1.0, [4.0, 2.0, 1.0]).counts[-1] == 3
        with pytest.raises(ValueError, match="2\\*\\*53"):
            am.box_counting_dimension([[2.0 ** 53, 0.0]], 1.0, [4.0, 2.0, 1.0])

    def test_dimension_exits_2(self, tmp_path, capsys):
        path = tmp_path / "far.measure"
        pts = np.array(self.FAR)
        dio.write_measure(path, AtomicMeasure(pts, np.ones(3)))
        assert main(["dimension", "--input", str(path), "--delta-max", "1.0"]) == 2
        assert "2**53" in capsys.readouterr().out


class TestSquaresThatOverflow:
    """Where delta**2 overflows, the one ball test (``in_ball``) scales the
    offsets and delta by a power of two, so a squared offset that overflows
    too is still compared, and every path counts the same members."""

    # the atoms at 0 and 1e159 lie 1e159 apart: inside both larger open balls
    FAR = [[-1e160, 0.0], [1e160, 0.0], [0.0, 0.0], [1e159, 0.0]]
    SCALES = [2.5e159, 1.25e159, 6.25e158]

    def test_the_d1_sweep(self):
        mu = AtomicMeasure(self.FAR, np.ones(4))
        assert am.density_ladder(mu, 1.0, 0.0, self.SCALES).densities == (2.0, 2.0, 1.0)

    def test_the_d2_cell_list(self):
        pts = np.insert(np.array(self.FAR), 1, 1e150, axis=1)   # a second axis, well inside
        mu = AtomicMeasure(pts, np.ones(4))
        assert am._masses(mu, pts, self.SCALES, 1.0).tolist() == [[1, 1, 2, 2]] * 2 + [[1] * 4]

    def test_cylinder_mass(self):
        mu = AtomicMeasure(self.FAR, np.ones(4))
        assert am.cylinder_mass(mu, am.Cylinder((0.0, 0.0), self.SCALES[0], 1.0)) == 2.0

    def test_the_ball_stays_open(self):
        delta = 1e160
        mu = AtomicMeasure([[0.0, 0.0], [delta, 0.0], [np.nextafter(delta, 0), 0.0]], [1, 2, 4])
        ladder = am.density_ladder(mu, 1.0, 0.0, [delta, 1e150, 1e140], centers=[[0.0, 0.0]])
        assert ladder.sup_masses == (5.0, 1.0, 1.0)
        assert am.cylinder_mass(mu, am.Cylinder((0.0, 0.0), delta, 1.0)) == 5.0

    def test_dimension(self, tmp_path, capsys):
        path = tmp_path / "far.measure"
        dio.write_measure(path, AtomicMeasure(self.FAR, np.ones(4)))
        assert main(["dimension", "--input", str(path), "--count", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["scales"] == self.SCALES and out["densities"] == [2.0, 2.0, 1.0]


@st.composite
def measures_at_any_magnitude(draw):
    """Unit atoms at a magnitude 10**e, e in [-200, 200], each a whole number
    of magnitudes from a base plus an offset of 0, 1/2, 3/4 or 1 delta per
    axis, nudged by a few ulps: on, just inside and just outside the ball."""
    d = draw(st.sampled_from([1, 2]))
    mag = 10.0 ** draw(st.integers(-200, 200))
    delta = mag * draw(st.floats(0.5, 2.0))
    n = draw(st.integers(1, 8))
    cells = np.array(draw(st.lists(st.integers(-3, 3), min_size=n * (d + 1),
                                   max_size=n * (d + 1)))).reshape(n, d + 1)
    steps = np.array(draw(st.lists(st.sampled_from([-1.0, -0.75, -0.5, 0.0, 0.5, 0.75, 1.0]),
                                   min_size=n * (d + 1), max_size=n * (d + 1)))).reshape(n, d + 1)
    pts = draw(st.sampled_from([0.0, 1.0, -7.0])) * mag + cells * mag + steps * delta
    ulps = np.array(draw(st.lists(ULPS, min_size=pts.size, max_size=pts.size)))
    return AtomicMeasure(nudge(pts.ravel(), ulps).reshape(pts.shape), np.ones(n)), delta


def exact_count(mu, center, delta):
    """Members of the open cylinder (alpha = 1) in exact arithmetic, or None
    where an atom lies within a relative 1e-12 of its boundary."""
    c, r = [Fraction(v) for v in center], Fraction(delta)
    count = 0
    for row in mu.points.tolist():
        gaps = [Fraction(v) - cv for v, cv in zip(row, c)]
        ball = sum(g * g for g in gaps[:-1]) / (r * r) - 1
        time = abs(gaps[-1]) / r - 1
        if min(abs(ball), abs(time)) < Fraction(1, 10 ** 12):
            return None
        count += ball < 0 and time < 0
    return count


class TestMembersAtEveryMagnitude:
    @settings(max_examples=150, deadline=None)
    @given(measures_at_any_magnitude())
    def test_masses_are_the_member_counts(self, case):
        mu, delta = case
        scales = [delta, delta / 2, delta / 4]
        got = am._masses(mu, mu.points, scales, 1.0)
        for row, s in zip(got, scales):
            want = [am.cylinder_mass(mu, am.Cylinder(c, s, 1.0)) for c in mu.points]
            assert row.tolist() == want
            if s * s >= sys.float_info.min:   # a square that underflows holds nothing
                exact = [exact_count(mu, c, s) for c in mu.points]
                assert all(e is None or e == w for e, w in zip(exact, want))
