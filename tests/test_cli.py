import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dissdim import io as dio
from dissdim import fixtures as fx
from dissdim import cli
from dissdim.aniso_measure import AtomicMeasure
from dissdim.cli import main
from dissdim.cutoffs import CutoffPair
from dissdim.fields import GriddedField
from dissdim.weak_balance import BURGERS_PAIR, holder_cylinder_bound


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def run_json(args, capsys):
    code, out = run_cli(args, capsys)
    return code, json.loads(out, parse_constant=not_json)


class TestExponentsCommand:
    def test_euler_bounded(self, capsys):
        code, data = run_json(["exponents", "--regime", "euler", "--d", "3",
                               "--q", "inf", "--r", "inf"], capsys)
        assert code == 0
        assert data["s"] == 3.0
        assert data["alpha"] == 1.0
        assert data["schema"] == "dissdim/1"

    def test_claw_bounded(self, capsys):
        code, data = run_json(["exponents", "--regime", "claw", "--d", "1",
                               "--r", "inf"], capsys)
        assert code == 0
        assert data["s"] == 1.0

    def test_ns_three_term_minimum(self, capsys):
        # at alpha = 2 with 2/q + d/r < 1 the parabolic closed form does not
        # apply: the reported s is the true three-term minimum
        code, data = run_json(["exponents", "--regime", "ns", "--d", "3",
                               "--q", "8", "--r", "6", "--alpha", "2"], capsys)
        assert code == 0
        assert data["s"] == 1.5
        assert [t["value"] for t in data["terms"]] == [1.5, 1.75, 1.5]

    def test_ns_closed_form_on_valid_locus(self, capsys):
        code, data = run_json(["exponents", "--regime", "ns", "--d", "3",
                               "--q", "4", "--r", "4", "--alpha", "2"], capsys)
        assert code == 0
        assert data["s"] == pytest.approx(3 + 1 - 3 * (3 / 4 + 2 / 4))

    def test_fraction_arguments(self, capsys):
        code, data = run_json(["exponents", "--regime", "euler", "--d", "3",
                               "--q", "inf", "--r", "9/2"], capsys)
        assert code == 0
        assert data["s"] == pytest.approx(5 / 3)
        assert data["alpha"] == pytest.approx(5 / 3)

    def test_unbounded_pressure_flag(self, capsys):
        code, data = run_json(["exponents", "--regime", "euler", "--d", "3",
                               "--q", "3", "--r", "inf", "--unbounded-pressure"], capsys)
        assert code == 0
        assert data["s"] == 2.0
        assert data["alpha"] == 1.5
        assert data["open_exponent"] is True

    def test_validation_exit_code(self, capsys):
        code, data = run_json(["exponents", "--regime", "euler", "--d", "3",
                               "--q", "2", "--r", "6"], capsys)
        assert code == 2
        assert "error" in data

    def test_float_terms_balance_within_rounding(self, capsys):
        # at alpha_opt = 1.75 the two float terms differ in their last bit,
        # which the balance check accepts as equal up to its relative tolerance
        code, data = run_json(["exponents", "--regime", "euler", "--d", "1",
                               "--q", "3.0", "--r", "6.0"], capsys)
        assert code == 0
        assert [t["value"] for t in data["terms"]] == [-0.5000000000000001, -0.5]
        assert (data["alpha"], data["s"]) == (1.75, -0.5000000000000001)


@pytest.mark.parametrize("flags", [
    pytest.param(["--regime", "ns", "--unbounded-pressure"], id="flags1"),
    pytest.param(["--regime", "claw", "--r", "inf", "--unbounded-pressure"], id="flags3"),
    pytest.param(["--regime", "claw", "--r", "inf", "--q", "4"], id="flags4"),
    pytest.param(["--regime", "claw", "--r", "inf", "--alpha", "2"], id="flags5"),
    pytest.param(["--regime", "euler", "--q", "3", "--alpha", "2", "--unbounded-pressure"],
                 id="flags7"),
])
def test_exponents_rejects_ignored_flags(flags, capsys):
    code, data = run_json(["exponents", "--d", "3"] + flags, capsys)
    assert code == 2
    assert data["error"]["type"] == "CliError"


@pytest.mark.parametrize("argv", [
    pytest.param(["exponents", "--regime", "euler", "--d", "3", "--bogus"], id="unknown-flag"),
    pytest.param(["verify", "--input", "f", "--count", "abc"], id="bad-int"),
    pytest.param(["verify"], id="missing-input"),
    pytest.param([], id="missing-subcommand"),
    pytest.param(["exponents", "--d", "3", "--regime", "ns", "--optimal"], id="optimal-ns"),
    pytest.param(["exponents", "--d", "3", "--regime", "claw", "--r", "inf", "--optimal"],
                 id="optimal-claw"),
    pytest.param(["exponents", "--d", "3", "--regime", "euler", "--alpha", "2", "--optimal"],
                 id="optimal-alpha"),
    pytest.param(["exponents", "--d", "3", "--regime", "euler", "--q", "3", "--optimal",
                  "--unbounded-pressure"], id="optimal-unbounded-pressure"),
])
def test_parser_errors_print_the_json_error(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert json.loads(out)["error"]["type"] == "CliError"


@pytest.mark.parametrize("argv, kind, message", [
    (["verify", "--center", "0.5"], "CliError",
     "center must look like 'x1[,x2,...]:t', got '0.5'"),
    (["verify", "--center", "0.1,0.2:0.5"], "CliError",
     "center has 2 spatial coordinates, field has d=1"),
    (["verify", "--q", "1/0"], "CliError", "cannot parse number '1/0': Fraction(1, 0)"),
    (["exponents", "--regime", "claw", "--d", "1"], "CliError", "claw regime requires --r"),
    (["exponents", "--regime", "euler", "--d", "0"], "RegimeError",
     "spatial dimension d must be an integer >= 1, got 0"),
    (["dimension", "--alpha", "0"], "ValueError", "alpha must be positive, got 0.0"),
])
def test_malformed_values_exit_2_with_their_message(argv, kind, message, shock_files, capsys):
    field_path, measure_path = shock_files
    if argv[0] in ("verify", "dimension"):
        argv = argv + ["--input", field_path if argv[0] == "verify" else measure_path]
    code, data = run_json(argv, capsys)
    assert code == 2
    assert data["error"] == {"type": kind, "message": message}


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exponents", "--help"])
    assert exc.value.code == 0
    assert "the alpha that balances the two terms" in " ".join(capsys.readouterr().out.split())


@pytest.fixture(scope="module")
def shock_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    datum = fx.RiemannDatum(1.0, -1.0)
    field = fx.burgers_entropy_solution(datum, -1.0, 1.0, 1025, 1.0, 513)
    measure = fx.burgers_dissipation_measure(datum, 1.0, 2048)
    field_path = str(base / "shock.field")
    measure_path = str(base / "shock.measure")
    dio.write_field(field_path, field)
    dio.write_measure(measure_path, measure, binary=True)
    return field_path, measure_path


class TestDimensionCommand:
    def test_shock_measure_dimension(self, shock_files, capsys):
        _, measure_path = shock_files
        code, data = run_json(["dimension", "--input", measure_path, "--alpha", "1",
                               "--delta-max", "0.125", "--count", "6"], capsys)
        assert code == 0
        assert data["dim_estimate"] == pytest.approx(1.0, abs=0.1)
        assert data["verdict"] == "certified"

    def test_a_radius_whose_square_overflows(self, shock_files, capsys):
        # delta**2 = inf at delta = 1e300 is a valid radius: every atom is inside
        _, measure_path = shock_files
        code, data = run_json(["dimension", "--input", measure_path, "--delta-max", "1e300"],
                              capsys)
        assert code == 0
        assert data["densities"] == pytest.approx([data["total_mass"]] * 6, rel=1e-12)

    def test_csv_output(self, shock_files, capsys, tmp_path):
        _, measure_path = shock_files
        csv_path = str(tmp_path / "out.csv")
        code, _ = run_cli(["dimension", "--input", measure_path, "--csv", csv_path], capsys)
        assert code == 0
        lines = open(csv_path).read().strip().split("\n")
        assert lines[0] == "delta,count,fit_slope,residual"
        assert len(lines) == 7

    def test_empty_measure_rejected(self, capsys, tmp_path):
        import numpy as np
        from dissdim.aniso_measure import AtomicMeasure
        path = str(tmp_path / "empty.measure")
        dio.write_measure(path, AtomicMeasure(np.zeros((0, 2)), np.zeros(0)))
        code, data = run_json(["dimension", "--input", path], capsys)
        assert code == 2
        assert "empty support" in data["error"]["message"]

    @pytest.mark.parametrize("n", [1, 5])
    def test_a_support_of_zero_extent_asks_for_delta_max(self, capsys, tmp_path, n):
        # one atom, or five at one space-time point: the default delta_max, width / 8, is 0
        path = str(tmp_path / "point.measure")
        dio.write_measure(path, AtomicMeasure(np.tile([0.25, 0.5], (n, 1)), np.ones(n)))
        code, data = run_json(["dimension", "--input", path], capsys)
        assert (code, data["error"]["type"]) == (2, "CliError")
        assert "zero extent" in data["error"]["message"]
        assert "--delta-max" in data["error"]["message"]
        code, data = run_json(["dimension", "--input", path, "--delta-max", "0.5"], capsys)
        assert (code, data["counts"]) == (0, [1] * 6)

    def test_a_support_whose_extent_overflows_asks_for_delta_max(self, capsys, tmp_path):
        # atoms at x = -1e308, 0 and 1e308: the width, 2e308, overflows a float64;
        # it is read only for the default delta_max, so a given one runs clean
        path = str(tmp_path / "wide.measure")
        dio.write_measure(path, AtomicMeasure([[-1e308, 0.5], [0.0, 0.5], [1e308, 0.5]],
                                              np.ones(3)))
        code, data = run_json(["dimension", "--input", path, "--count", "3"], capsys)
        assert (code, data["error"]["type"]) == (2, "CliError")
        assert "extent overflows" in data["error"]["message"]
        assert "--delta-max" in data["error"]["message"]
        code, data = run_json(["dimension", "--input", path, "--delta-max", "1e307",
                               "--count", "3"], capsys)
        assert (code, data["densities"], data["certified_s"]) == (0, [1.0] * 3, 0.5)

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "garbage.measure"
        path.write_text("dissdim-measure v1 d=1 n=2 body=text\n0.0 0.0 1.0\n")
        code, data = run_json(["dimension", "--input", str(path)], capsys)
        assert code == 2
        assert "line" in data["error"]["message"]


def few_heavy_atoms(d):
    """4,096 light atoms on a lattice in (0, 1)^(d+1), 32 of them heavy with
    distinct weights: a sampled sup depends on which centers are drawn, where
    on a lattice measure every draw gives the same sup."""
    side = round(4096 ** (1 / (d + 1)))
    axes = np.meshgrid(*[(np.arange(side) + 0.5) / side] * (d + 1), indexing="ij")
    points = np.column_stack([a.ravel() for a in axes])
    weights = np.full(len(points), 1e-3)
    weights[np.arange(32) * 127] = np.arange(1.0, 33.0)
    return AtomicMeasure(points, weights)


@pytest.fixture(scope="module")
def spatial_measure_files(tmp_path_factory):
    """Measure files for the density-ladder oracle: d >= 2 runs the cell
    list, d = 1 the merge-sort-tree sweep."""
    base = tmp_path_factory.mktemp("spatial")
    slab = fx.grid_measure(2, 64, 1)
    paths = {}
    for name, mu, binary in (("slab-binary", slab, True), ("slab-text", slab, False),
                             ("grid-3d", fx.grid_measure(3, 8, 8), True),
                             ("heavy-1d", few_heavy_atoms(1), True),
                             ("heavy-2d", few_heavy_atoms(2), True)):
        paths[name] = str(base / f"{name}.measure")
        dio.write_measure(paths[name], mu, binary=binary)
    return paths


def sup_densities(mu, centers, scales, s):
    """Sup cylinder density per scale at alpha = 1, testing every center-atom pair."""
    best = np.zeros(len(scales))
    for start in range(0, len(centers), 512):
        c = centers[start:start + 512]
        d2 = np.sum((mu.positions[None, :, :] - c[:, None, :-1]) ** 2, axis=2)
        dt = np.abs(mu.times[None, :] - c[:, None, -1])
        for k, delta in enumerate(scales):
            inside = (d2 < delta ** 2) & (dt < delta)
            best[k] = max(best[k], (inside @ mu.weights).max())
    return [m / delta ** s for m, delta in zip(best.tolist(), scales)]


class TestDimensionOnSpatialMeasures:
    @pytest.mark.parametrize("name", ["slab-binary", "slab-text", "grid-3d",
                                      "heavy-1d", "heavy-2d"])
    @pytest.mark.parametrize("sample", [[], ["--sample-centers", "64", "--seed", "3"]])
    def test_densities_match_all_pairs(self, spatial_measure_files, name, sample, capsys):
        path = spatial_measure_files[name]
        code, data = run_json(["dimension", "--input", path, "--s", "2", "--delta-max", "0.25",
                               "--count", "4"] + sample, capsys)
        assert code == 0
        mu = dio.read_measure(path)
        support = centers = mu.support_points()
        if sample:   # the draw of --sample-centers 64 --seed 3
            centers = support[sorted(random.Random(3).sample(range(len(support)), 64))]
        want = sup_densities(mu, centers, data["scales"], 2.0)
        assert data["densities"] == pytest.approx(want, rel=1e-12)
        if sample and name.startswith("heavy"):   # these 64 centers miss the heaviest atoms
            every = sup_densities(mu, support, data["scales"], 2.0)
            assert want != pytest.approx(every, rel=1e-12)

    def test_the_drawn_centers(self, tmp_path, capsys, monkeypatch):
        """The draw of --sample-centers 5 --seed 3 over 100 support atoms, as
        literals, so that every supported Python shows the same indices."""
        path = str(tmp_path / "line.measure")
        points = np.column_stack([np.arange(100.0), np.zeros(100)])
        dio.write_measure(path, AtomicMeasure(points, np.ones(100)))
        drawn, ladder = [], cli.density_ladder

        def spy(mu, *args, centers):
            drawn.append(centers[:, 0].tolist())   # atom i sits at x = i
            return ladder(mu, *args, centers=centers)

        monkeypatch.setattr(cli, "density_ladder", spy)
        code, _ = run_json(["dimension", "--input", path, "--sample-centers", "5",
                            "--seed", "3"], capsys)
        assert code == 0
        assert drawn == [[16.0, 30.0, 47.0, 69.0, 75.0]]


class TestVerifyCommand:
    def test_shock_sweep(self, shock_files, capsys, tmp_path):
        field_path, _ = shock_files
        csv_path = str(tmp_path / "sweep.csv")
        code, data = run_json(["verify", "--input", field_path, "--q", "inf",
                               "--r", "inf", "--alpha", "1", "--pair", "burgers",
                               "--center", "0.0:0.5", "--delta-max", "0.125",
                               "--count", "6", "--csv", csv_path], capsys)
        assert code == 0
        assert data["rows"] == 6
        assert data["time_unresolved"] == 0
        assert data["all_bounded"]
        body = open(csv_path).read().strip().split("\n")
        assert body[0].startswith("center_x,t,delta,weak_mass,holder_bound,ratio")
        for line in body[1:]:
            cells = [float(v) for v in line.split(",")]
            assert cells[3] <= cells[4] * (1 + 1e-9)

    def test_margin_violations_skipped(self, shock_files, capsys):
        field_path, _ = shock_files
        code, data = run_json(["verify", "--input", field_path, "--pair", "burgers",
                               "--center", "0.0:0.5", "--delta-max", "0.6",
                               "--count", "4"], capsys)
        assert code == 0
        assert data["skipped"] >= 1
        assert data["rows"] + data["skipped"] == 4

    def test_center_off_the_grid_exits_2(self, shock_files, capsys):
        # every cutoff's collar lies off [-1, 1], so no row runs
        field_path, _ = shock_files
        code, data = run_json(["verify", "--input", field_path, "--pair", "burgers",
                               "--center", "5.0:0.5"], capsys)
        assert code == 2
        assert data["error"]["message"] == "every sweep point violated the grid margins"

    @pytest.mark.parametrize("d", [1, 2])
    def test_a_center_with_a_negative_first_coordinate(self, shock_files, capsys, tmp_path, d):
        # the center as the word after --center gives the sweep of --center=<center>
        if d == 1:
            field_path, center = shock_files[0], "-0.01:0.5"
        else:
            field_path, center = str(tmp_path / "shear.field"), "-0.05,0.1:0.5"
            dio.write_field(field_path, fx.decaying_shear_field(1e-2, math.pi, -1.0, 1.0,
                                                                 33, 1.0, 33))
        bodies = []
        for flags in (["--center", center], [f"--center={center}"]):
            csv_path = tmp_path / f"{len(bodies)}.csv"
            code, data = run_json(["verify", "--input", field_path, "--delta-max", "0.125",
                                   "--count", "3", *flags, "--csv", str(csv_path)], capsys)
            assert code == 0 and data["rows"] == 3
            bodies.append(csv_path.read_text())
        assert bodies[0] == bodies[1]
        assert bodies[0].splitlines()[1].startswith(center.split(":")[0].split(",")[0] + ",")

    def test_a_collar_radius_whose_square_overflows_exits_2(self, tmp_path, capsys):
        # delta = 1e154: delta**2 is a normal float, the collar's (2 delta)**2
        # overflows (an OverflowError traceback and exit 1 before)
        path = str(tmp_path / "big.field")
        dio.write_field(path, GriddedField(1, -1e155, 1e155, 41, 1e155, 41,
                                           np.full((41, 41, 1), 0.5)))
        code, data = run_json(["verify", "--input", path, "--center", "0:5e154", "--delta-max",
                               "1e154", "--count", "3", "--pair", "burgers"], capsys)
        assert code == 2
        assert data["error"]["type"] == "ValueError"
        assert "(2 delta)**2" in data["error"]["message"]

    def test_offsets_whose_squares_overflow_run_without_warnings(self, tmp_path, capsys):
        # |x - c| up to 1e155 on the window: its square overflows to inf, quietly
        path = str(tmp_path / "big.field")
        dio.write_field(path, GriddedField(1, -1e155, 1e155, 41, 1e155, 41,
                                           np.full((41, 41, 1), 0.5)))
        code, data = run_json(["verify", "--input", path, "--center", "0:5e154", "--delta-max",
                               "5e153", "--count", "3", "--pair", "burgers"], capsys)
        assert code == 0 and data["rows"] == 3

    @pytest.mark.parametrize("center", ["nan:0.5", "inf:0.5", "0:nan", "0:-inf",
                                        "nan,0:0.5", "0,-inf:0.5", "0,0:inf"])
    def test_a_center_that_is_not_finite_exits_2(self, tmp_path, capsys, center):
        path = str(tmp_path / "f.field")
        d = center.split(":")[0].count(",") + 1
        dio.write_field(path, fx.decaying_shear_field(1e-2, math.pi, -1.0, 1.0, 9, 1.0, 9)
                        if d == 2 else GriddedField(1, -1.0, 1.0, 9, 1.0, 9, np.zeros((9, 9, 1))))
        code, data = run_json(["verify", "--input", path, f"--center={center}",
                               "--delta-max", "0.125", "--count", "3"], capsys)
        assert code == 2
        assert data["error"] == {"type": "ValueError",
                                 "message": "space-time point must have finite coordinates"}

    def test_time_unresolved_rows_counted(self, shock_files, capsys):
        # dt = 1/512 > (2 delta)^2 for delta <= 0.02: each time cutoff is
        # nonzero only at the center node t = 0.5
        field_path, _ = shock_files
        code, data = run_json(["verify", "--input", field_path, "--pair", "burgers",
                               "--alpha", "2", "--center", "0.0:0.5", "--delta-max", "0.02",
                               "--count", "3"], capsys)
        assert code == 0
        assert (data["rows"], data["skipped"], data["time_unresolved"]) == (3, 0, 3)

    def test_failed_dominance_check_exit_3(self, shock_files, capsys, monkeypatch):
        # a negative tolerance makes every positive weak mass "exceed" its bound
        from dissdim import weak_balance as wb
        monkeypatch.setattr(wb, "DOMINANCE_TOL", -2.0)
        field_path, _ = shock_files
        code, data = run_json(["verify", "--input", field_path, "--pair", "burgers",
                               "--center", "0.0:0.5", "--delta-max", "0.125",
                               "--count", "3"], capsys)
        assert code == 3
        assert data["error"]["type"] == "VerificationError"
        assert "dominance" in data["error"]["message"]

    def test_all_bounded_is_the_kernels_dominance_test(self, shock_files, capsys,
                                                        monkeypatch):
        # a subnormal weak mass over a bound of 0.0 passes the kernel's test
        # (1e-300 absolute slack), so it is reported as bounded too
        from dissdim import cli
        from dissdim import weak_balance as wb

        def tiny(*args, **kwargs):
            return wb.BalanceReport(terms={}, weak_mass=1.3e-320, time_nodes=3, holder_bound=0.0)

        monkeypatch.setattr(cli, "holder_cylinder_bound", tiny)
        field_path, _ = shock_files
        code, data = run_json(["verify", "--input", field_path, "--pair", "burgers",
                               "--center", "0.0:0.5", "--delta-max", "0.125",
                               "--count", "3"], capsys)
        assert code == 0
        assert (data["rows"], data["all_bounded"]) == (3, True)
        assert wb.dominated(1.3e-320, 0.0)
        assert not wb.dominated(1.0, 1.0 - 1e-6) and not wb.dominated(math.nan, 1.0)

    def test_non_finite_weak_mass_exit_3(self, shock_files, capsys, monkeypatch):
        # the dominance check fails closed: NaN never passes as bounded
        from dissdim import cli
        from dissdim import weak_balance as wb
        nan_pair = wb.EntropyPair("nan", lambda f: np.full(f.u.shape[:-1], np.nan),
                                  wb.BURGERS_PAIR.fluxes, eta_quad_coeff=0.5,
                                  q_cubic_coeff=1.0 / 3.0)
        monkeypatch.setattr(cli, "BURGERS_PAIR", nan_pair)
        field_path, _ = shock_files
        code, data = run_json(["verify", "--input", field_path, "--pair", "burgers",
                               "--center", "0.0:0.5", "--delta-max", "0.125",
                               "--count", "3"], capsys)
        assert code == 3
        assert data["error"]["type"] == "VerificationError"
        assert "non-finite" in data["error"]["message"]

    def test_fraction_exponents_match_their_decimals(self, capsys, tmp_path):
        # q and r are floats inside the bound: 9/2 gives the bytes of 4.5
        field_path = str(tmp_path / "shear.field")
        dio.write_field(field_path, fx.decaying_shear_field(1e-2, 2 * math.pi, 0.0, 1.0,
                                                             33, 1.0, 33))
        bodies = []
        for value in ("9/2", "4.5"):
            csv_path = tmp_path / f"{value.replace('/', '_')}.csv"
            code, data = run_json(["verify", "--input", field_path, "--nu", "1e-2",
                                   "--q", value, "--r", value, "--delta-max", "0.125",
                                   "--count", "5", "--center", "0.4,0.45:0.5",
                                   "--center", "0.55,0.6:0.45", "--csv", str(csv_path)],
                                  capsys)
            assert code == 0 and (data["q"], data["r"], data["rows"]) == (4.5, 4.5, 10)
            bodies.append(csv_path.read_bytes())
        assert bodies[0] == bodies[1]

    def test_viscous_mode_emits_morrey_column(self, capsys, tmp_path):
        nu = 2e-3
        hw, h = 30 * nu, 0.05 * nu
        nx = int(round(2 * hw / h)) + 1
        run = fx.viscous_burgers_run(fx.RiemannDatum(1.0, -1.0), nu, -hw, hw, nx,
                                     0.05, 201, initial="viscous_profile")
        field_path = str(tmp_path / "v.field")
        dio.write_field(field_path, run.field)
        csv_path = str(tmp_path / "v.csv")
        code, data = run_json(["verify", "--input", field_path, "--pair", "burgers",
                               "--alpha", "2", "--nu", str(nu),
                               "--center", f"0.0:0.025", "--delta-max", "0.008",
                               "--count", "3", "--csv", csv_path], capsys)
        assert code == 0
        assert data["all_bounded"]
        body = open(csv_path).read().strip().split("\n")
        assert body[0].endswith("grad_mass_cylinder")
        for line in body[1:]:
            cells = [float(v) for v in line.split(",")]
            weak, bound, morrey = cells[3], cells[4], cells[6]
            assert 0 <= morrey <= bound * (1 + 1e-9)


def csv_columns(path):
    """The header names of a report CSV and its cells read back as floats, by column."""
    header, *lines = open(path).read().splitlines()
    return header.split(","), [list(col) for col in zip(*(map(float, line.split(","))
                                                           for line in lines))]


def bits(values):
    return np.array(values, dtype=float).view(np.uint64).tolist()


class TestCsvCellsReadBack:
    """Each CSV cell reads back, bit for bit, as the value the run reports."""

    @pytest.mark.parametrize("s_flag", [[], ["--s", "1"]])
    def test_dimension(self, shock_files, capsys, tmp_path, s_flag):
        csv_path = str(tmp_path / "out.csv")
        code, data = run_json(["dimension", "--input", shock_files[1], "--alpha", "1",
                               "--delta-max", "0.125", "--count", "6", *s_flag,
                               "--csv", csv_path], capsys)
        assert code == 0
        header, columns = csv_columns(csv_path)
        n = len(data["scales"])
        if s_flag:
            assert header == ["delta", "density", "fit_slope", "residual"]
            expected = [data["scales"], data["densities"], [data["ladder_slope"]] * n,
                        [data["ladder_residual"]] * n]
        else:
            assert header == ["delta", "count", "fit_slope", "residual"]
            expected = [data["scales"], data["counts"], [data["dim_estimate"]] * n,
                        [data["box_fit_residual"]] * n]
        assert [bits(c) for c in columns] == [bits(c) for c in expected]

    @pytest.mark.parametrize("d", [1, 2])
    def test_verify(self, shock_files, capsys, tmp_path, d):
        if d == 1:
            field_path = shock_files[0]
            flags = ["--pair", "burgers", "--center", "0.0:0.5", "--delta-max", "0.125",
                     "--count", "6"]
            pair, nu = BURGERS_PAIR, 0.0
        else:
            field_path = str(tmp_path / "shear.field")
            dio.write_field(field_path, fx.decaying_shear_field(1e-2, 2 * math.pi, 0.0, 1.0,
                                                                 33, 1.0, 33))
            flags = ["--nu", "1e-2", "--q", "9/2", "--r", "4.5", "--delta-max", "0.125",
                     "--count", "5", "--center", "0.4,0.45:0.5", "--center", "0.55,0.6:0.45"]
            pair, nu = None, 1e-2
        csv_path = str(tmp_path / "sweep.csv")
        code, data = run_json(["verify", "--input", field_path, *flags, "--csv", csv_path],
                              capsys)
        assert code == 0
        header, columns = csv_columns(csv_path)
        names = ["center_x"] if d == 1 else ["center_x1", "center_x2"]
        names += ["t", "delta", "weak_mass", "holder_bound", "ratio"]
        assert header == names + (["grad_mass_cylinder"] if nu else [])
        assert len(columns[0]) == data["rows"] > 0
        field = dio.read_field(field_path)
        q, r = (4.5, 4.5) if nu else (math.inf, math.inf)
        for row in zip(*columns):
            rep = holder_cylinder_bound(field, CutoffPair.build(row[:d + 1], row[d + 1], 1.0), q, r,
                                        pair=pair, nu=nu)
            expected = [rep.weak_mass, rep.holder_bound, rep.weak_mass / rep.holder_bound]
            assert bits(row[d + 2:]) == bits(expected + ([rep.grad_mass_cylinder] if nu else []))


class TestFixtureCommands:
    def test_burgers_writes_files(self, capsys, tmp_path):
        fpath = str(tmp_path / "f.field")
        mpath = str(tmp_path / "m.measure")
        code, data = run_json(["burgers", "--ul", "1", "--ur", "-1", "--nx", "129",
                               "--nt", "65", "--measure-atoms", "256",
                               "--field-out", fpath, "--measure-out", mpath], capsys)
        assert code == 0
        assert data["shock"] is True
        assert data["measure_mass"] == pytest.approx(2 / 3, rel=1e-9)
        assert dio.read_field(fpath).nx == 129
        assert dio.read_measure(mpath).n_atoms == 256

    def test_vfield_manifest(self, capsys, tmp_path):
        code, data = run_json(["vfield", "--nu", "0.01", "--ul", "1", "--ur", "-1",
                               "--a", "-0.3", "--b", "0.3", "--nx", "301",
                               "--T", "0.2", "--nt", "51"], capsys)
        assert code == 0
        assert data["nu"] == 0.01
        assert data["total_dissipation"] > 0
        assert data["stability_margin"] <= 0.9 + 1e-12
        assert data["diffusion_number"] == pytest.approx(
            0.01 * data["dt_sub"] / (0.6 / 300) ** 2)

    def test_vfield_coarse_grid_runs(self, capsys):
        # cell Peclet number 0.63: the explicit diffusion step blew up here
        code, data = run_json(["vfield", "--nu", "2e-3", "--ul", "1", "--ur", "-1",
                               "--a", "-1", "--b", "1", "--nx", "801", "--T", "0.5"], capsys)
        assert code == 0
        assert data["steps"] <= math.ceil(0.5 / (0.9 * 2 / 800))
        # the centred nu*u_x^2 rate misses the scheme's numerical dissipation,
        # so the total stays below the shock's (u_l - u_r)^3 T / 12 = 1/3
        assert 0.2 < data["total_dissipation"] < 1 / 3

    def test_measure_only_run_builds_no_field(self, capsys, tmp_path, monkeypatch):
        from dissdim import cli

        def no_field(*args):
            raise AssertionError("the field is built without --field-out")

        monkeypatch.setattr(cli, "burgers_entropy_solution", no_field)
        mpath = str(tmp_path / "m.measure")
        code, data = run_json(["burgers", "--ul", "1", "--ur", "-1",
                               "--measure-out", mpath], capsys)
        assert code == 0
        assert data["measure_atoms"] == 2048

    @pytest.mark.parametrize("T", ["1", "2"])
    def test_a_shock_speed_near_the_float_limit(self, T, capsys, tmp_path):
        # 0.5 * (u_l + u_r) overflowed to inf, and inf * 0 made the t = 0 row
        # NaN; past t = 1.09 the position x0 + speed * t overflows to inf.
        # Every row after t = 0 has the shock right of the grid
        fpath = str(tmp_path / "f.field")
        code, data = run_json(["burgers", "--ul", "1.7e308", "--ur", "1.6e308", "--nx", "33",
                               "--nt", "9", "--T", T, "--field-out", fpath], capsys)
        assert code == 0
        assert data["shock_speed"] == 0.5 * 1.7e308 + 0.5 * 1.6e308
        u = dio.read_field(fpath).u[..., 0]
        assert np.all(u[0, :16] == 1.7e308) and np.all(u[0, 17:] == 1.6e308)
        assert np.all(u[1:] == 1.7e308)

    def test_an_allocation_that_fails_exits_2(self, capsys, tmp_path, monkeypatch):
        # a grid too large for memory (--nx 10000000000000 asks for 72.8 TiB)
        # is refused like any other input, with no traceback
        def no_memory(shape, *args, **kwargs):
            raise MemoryError(f"Unable to allocate an array with shape {shape}")

        monkeypatch.setattr(np, "empty", no_memory)   # numpy's, for this test only
        code, data = run_json(["burgers", "--ul", "1", "--ur", "-1", "--nx", "33", "--nt", "9",
                               "--field-out", str(tmp_path / "f")], capsys)
        assert code == 2
        assert data["error"] == {"type": "MemoryError",
                                 "message": "Unable to allocate an array with shape (9, 33)"}

    @pytest.mark.parametrize("T, message", [
        ("0.2", "non-finite state at step 64"),                    # 112 substeps
        ("0.05", "non-finite state at the end of the run"),        # 28 substeps
    ])
    def test_a_non_finite_state_exits_3(self, T, message, monkeypatch, capsys):
        def blow_up(u, *args):
            return np.full_like(u, np.nan)

        monkeypatch.setattr(fx, "_viscous_step", blow_up)
        code, data = run_json(VFIELD + ["--nx", "301", "--T", T], capsys)
        assert code == 3
        assert data == {"schema": "dissdim/1",
                        "error": {"type": "NumericalError", "message": message}}

    def test_a_shock_whose_entropy_rate_overflows_exits_2(self, capsys, tmp_path):
        # the jump**3 of the rate overflows to inf, which the measure refuses by name
        code, data = run_json(["burgers", "--ul", "1e120", "--ur", "-1e120", "--measure-out",
                               str(tmp_path / "m")], capsys)
        assert code == 2
        assert data["error"] == {"type": "ValueError",
                                 "message": "the shock's entropy rate (u_l - u_r)**3 / 12 "
                                            "overflows at u_l=1e+120, u_r=-1e+120"}

    def test_rarefaction_measure_is_empty(self, capsys, tmp_path):
        mpath = str(tmp_path / "m.measure")
        code, data = run_json(["burgers", "--ul", "-1", "--ur", "1",
                               "--measure-out", mpath, "--measure-atoms", "64"], capsys)
        assert code == 0
        assert data["shock"] is False
        assert data["measure_atoms"] == 0

    @pytest.mark.parametrize("ul, ur", [("1", "-1"), ("-1", "1")], ids=["shock", "rarefaction"])
    @pytest.mark.parametrize("x0", ["1e308", "-1e308", "1.7e308", "-1.7e308"])
    def test_a_jump_far_off_the_grid(self, ul, ur, x0, capsys, tmp_path):
        # the jump's distance to a node over the cell width overflowed, with
        # a RuntimeWarning and exit 0; every cell lies on one side of it
        fpath = str(tmp_path / "f.field")
        code, _ = run_json(["burgers", "--ul", ul, "--ur", ur, "--x0", x0, "--nx", "33",
                            "--nt", "9", "--field-out", fpath], capsys)
        assert code == 0
        state = float(ul if float(x0) > 0 else ur)
        assert np.all(dio.read_field(fpath).u == state)


VFIELD = ["vfield", "--nu", "0.01", "--ul", "1", "--ur", "-1", "--a", "-0.3", "--b", "0.3"]


@pytest.mark.parametrize("argv", [
    ["burgers", "--ul", "1", "--ur", "-1", "--nx", "1", "--field-out", os.devnull],
    ["burgers", "--ul", "1", "--ur", "-1", "--nt", "1", "--field-out", os.devnull],
    VFIELD + ["--nx", "1", "--T", "0.2"],
    VFIELD + ["--nx", "301", "--T", "0.2", "--nt", "1"],
    ["verify", "--nu", "-1"],
    ["dimension", "--sample-centers", "0"],
    ["dimension", "--seed", "5"],
    VFIELD + ["--nx", "301", "--T", "inf"],
    VFIELD + ["--nx", "301", "--T", "0.2", "--ul", "inf"],
    VFIELD + ["--nx", "301", "--T", "0.2", "--x0", "nan"],
    VFIELD + ["--nx", "301", "--T", "0.2", "--x0", "inf"],
    VFIELD + ["--nx", "301", "--T", "0.2", "--nu", "inf"],
    ["dimension", "--s", "nan"],
    ["dimension", "--s", "inf"],
    ["verify", "--alpha", "inf"],
    ["verify", "--nu", "inf"],
    # grids checked before any axis is built: no NaN axis, no RuntimeWarning
    ["burgers", "--ul", "1", "--ur", "-1", "--T", "inf", "--nx", "9", "--nt", "5",
     "--field-out", os.devnull],
    ["vfield", "--nu", "0.01", "--ul", "1", "--ur", "-1", "--a=-inf", "--b", "0.3",
     "--nx", "31", "--T", "0.2"],
    # delta**alpha overflows a float64: (2 delta)**alpha of the time bump, the lattice side
    ["verify", "--pair", "burgers", "--center", "0.0:0.5", "--delta-max", "1", "--count", "3",
     "--alpha", "1e300"],
    ["dimension", "--alpha", "400", "--delta-max", "8"],
    # delta**s underflows to 0, or overflows, at some ladder scale
    ["dimension", "--s", "400", "--delta-max", "0.125"],
    ["dimension", "--s", "1e6", "--delta-max", "2"],
    # flags that would be parsed and then ignored
    ["burgers", "--ul", "1", "--ur", "-1", "--measure-atoms", "64"],
    ["burgers", "--ul", "1", "--ur", "-1", "--text"],
    # the grid flags shape only the field, and the measure depends only on the
    # datum, --T and --measure-atoms
    *(["burgers", "--ul", "1", "--ur", "-1", flag, value, "--measure-out", os.devnull]
      for flag, value in (("--a", "-2"), ("--b", "2"), ("--nx", "129"), ("--nt", "65"))),
    ["burgers", "--ul", "1", "--ur", "-1", "--nx", "1", "--measure-out", os.devnull],
    # with no output, nothing reads the datum's position or the final time
    ["burgers", "--ul", "1", "--ur", "-1", "--x0", "0.5"],
    ["burgers", "--ul", "1", "--ur", "-1", "--T", "2"],
    # a rarefaction measure has no atoms, yet the count is still checked
    ["burgers", "--ul", "-1", "--ur", "1", "--measure-atoms", "0", "--measure-out", os.devnull],
    # the final time is checked even when only the measure is written
    ["burgers", "--ul", "1", "--ur", "-1", "--T", "inf", "--measure-out", os.devnull],
    ["burgers", "--ul", "1", "--ur", "-1", "--T", "0", "--measure-out", os.devnull],
    # delta = 1.25e-201 at the last scale: delta**2 underflows to 0, which made
    # the laplacian of the spatial bump NaN and passed a NaN weak mass
    ["verify", "--center", "0.0:0.5", "--delta-max", "0.125", "--ratio", "1e-100",
     "--count", "3", "--nu", "1e-3"],
    ["verify", "--center", "0.0:0.5", "--delta-max", "0.125", "--ratio", "1e-100",
     "--count", "3"],
    # an infinite alpha gives NaN and -inf terms, which JSON cannot carry
    ["exponents", "--regime", "euler", "--d", "3", "--q", "3", "--r", "3", "--alpha", "inf"],
    ["exponents", "--regime", "euler", "--d", "3", "--q", "3", "--r", "3", "--alpha", "1e400"],
    ["exponents", "--regime", "ns", "--d", "3", "--q", "3", "--r", "3", "--alpha", "inf"],
    # 2 alpha overflows to inf, which printed "s": -Infinity with exit 0
    ["exponents", "--regime", "euler", "--d", "3", "--q", "3", "--r", "3", "--alpha", "1e308"],
    # an integer alpha beyond the float range, which raised OverflowError (exit 1)
    ["exponents", "--regime", "ns", "--d", "3", "--q", "3", "--r", "3", "--alpha",
     "1" + "0" * 400],
    ["exponents", "--regime", "claw", "--d", "1", "--r", "1" + "0" * 400],
    ["verify", "--q", "1" + "0" * 400],
    # a decimal beyond float64 is the same number as its integer, not inf
    ["exponents", "--regime", "euler", "--d", "3", "--q", "1e400", "--r", "inf"],
    ["verify", "--q", "1e400"],
    # the substep count T / dt_sub overflows, which raised OverflowError (exit 1)
    *(["vfield", "--nu", "0.07", "--ul", "-1.48", "--ur", ur, "--a", "-0.22", "--b", "1",
       "--nx", "17", "--T", T, "--nt", "2", "--bc", "periodic", "--field-out", os.devnull]
      for ur, T in (("0.75", "1e308"), ("1e308", "0.35"))),
    # an integer count beyond the float range, which raised OverflowError (exit 1)
    *(["burgers", "--ul", "1", "--ur", "-1", flag, "1" + "0" * 400, "--field-out", os.devnull]
      for flag in ("--nx", "--nt")),
    ["burgers", "--ul", "1", "--ur", "-1", "--measure-atoms", "1" + "0" * 400,
     "--measure-out", os.devnull],
    VFIELD + ["--nx", "1" + "0" * 400, "--T", "0.2"],
    # a spacing or a time step that rounds to 0: 0/0 in the cell averages
    # (RuntimeWarning), or a ZeroDivisionError in the solver (exit 1)
    ["burgers", "--ul", "1", "--ur", "-1", "--a", "0", "--b", "5e-324", "--nx", "3",
     "--field-out", os.devnull],
    ["vfield", "--nu", "1e-3", "--ul", "1", "--ur", "-1", "--a", "-1", "--b", "1", "--nx", "11",
     "--T", "5e-324", "--nt", "3"],
    # a measure atom past the float range: x0 + speed * t overflows by t = T
    ["burgers", "--ul", "1e100", "--ur", "9e99", "--T", "1e300", "--measure-out", os.devnull],
])
def test_out_of_range_arguments_exit_2(argv, shock_files, capsys):
    field_path, measure_path = shock_files
    if argv[0] in ("verify", "dimension"):
        argv = argv + ["--input", field_path if argv[0] == "verify" else measure_path]
    code, data = run_json(argv, capsys)
    assert code == 2
    assert data["schema"] == "dissdim/1"
    if argv[0] == "exponents":
        assert data["error"]["type"] == "RegimeError"
    else:
        assert data["error"]["type"] in ("ValueError", "CliError")



@pytest.mark.parametrize("command", ["dimension", "verify"])
def test_a_huge_count_is_refused_before_its_ladder_is_built(command, tmp_path, capsys):
    # 0.5 ** (10**12 - 1) underflows to 0: the list of 10**12 scales is never built
    datum = fx.RiemannDatum(1.0, -1.0)
    path = str(tmp_path / command)
    if command == "verify":
        dio.write_field(path, fx.burgers_entropy_solution(datum, -1.0, 1.0, 17, 1.0, 9))
    else:
        dio.write_measure(path, fx.burgers_dissipation_measure(datum, 1.0, 16))
    tracemalloc.start()
    try:
        code, data = run_json([command, "--input", path, "--count", str(10 ** 12)], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert data["error"]["type"] == "CliError"
    assert peak < 2 ** 20


def test_a_ladder_is_refused_at_its_first_repeated_scale(shock_files, capsys):
    # on the shock measure, 1 - 2**-53 rounds scale 1025 onto scale 1024: the other
    # 998,975 of the 10**6 scales are never built
    _, measure_path = shock_files
    tracemalloc.start()
    try:
        code, data = run_json(["dimension", "--input", measure_path, "--ratio",
                               "0.9999999999999999", "--count", str(10 ** 6)], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert data["error"]["type"] == "CliError"
    assert data["error"]["message"].startswith("scales must be strictly decreasing: scale 1025 ")
    assert peak < 2 ** 20


@pytest.mark.parametrize("command", ["dimension", "verify"])
@pytest.mark.parametrize("flag, value, message", [
    ("--ratio", "1", "ladder ratio must lie in (0, 1), got 1.0"),
    ("--count", "2", "ladder count must be at least 3, got 2"),
    ("--delta-max", "0", "ladder delta_max must be positive"),
    # which raised OverflowError (exit 1) in the underflow check of the last scale
    pytest.param("--count", "1" + "0" * 400, "ladder count must fit a float64, got 1" + "0" * 400,
                 id="--count-beyond-float64"),
])
def test_the_shared_ladder_flags(command, flag, value, message, shock_files, capsys):
    # both commands take these flags from one declaration, and _ladder reads them
    field_path, measure_path = shock_files
    path = field_path if command == "verify" else measure_path
    code, data = run_json([command, "--input", path, flag, value], capsys)
    assert code == 2
    assert data["error"] == {"type": "CliError", "message": message}


def test_a_negative_seed_is_refused(shock_files, capsys):
    code, data = run_json(["dimension", "--input", shock_files[1], "--sample-centers", "4",
                           "--seed", "-3"], capsys)
    assert code == 2
    assert data["error"] == {"type": "CliError", "message": "--seed must be non-negative, got -3"}


class TestDeterminism:
    @staticmethod
    def rerun(measure_path, *flags):
        cmd = [sys.executable, "-m", "dissdim.cli", "dimension", "--input",
               measure_path, "--alpha", "1", "--delta-max", "0.125", "--count", "6", *flags]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_byte_identical_reruns(self, shock_files):
        self.rerun(shock_files[1])

    def test_byte_identical_sampled_reruns(self, shock_files):
        self.rerun(shock_files[1], "--sample-centers", "16", "--seed", "5")

    def test_missing_file_exit_2(self, capsys):
        code, data = run_json(["dimension", "--input", "/does/not/exist"], capsys)
        assert code == 2


def test_the_cli_loads_only_the_standard_library_and_numpy(shock_files):
    """numpy is the one dependency pyproject.toml declares; another package
    that happens to be installed (scipy, say) must not be imported.  A
    sampled dimension run draws its centers with the standard library's
    random, so it loads neither numpy.random nor OpenSSL's _hashlib."""
    code = ("import sys; before = set(sys.modules); import dissdim.cli; "
            "print(*{name.split('.')[0] for name in set(sys.modules) - before})")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert set(run.stdout.split()) - set(sys.stdlib_module_names) == {"dissdim", "numpy"}

    code = ("import sys; from dissdim.cli import main; "
            f"code = main(['dimension', '--input', {shock_files[1]!r}, "
            "'--sample-centers', '16', '--seed', '1']); "
            "print(code, *sorted({'numpy.random', '_hashlib'} & set(sys.modules)), "
            "file=sys.stderr)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert run.stderr.split() == ["0"]


@pytest.fixture(scope="module")
def multi_block_files(tmp_path_factory):
    """A binary d = 1 field with u and p (time rows of 64 KiB, so the
    finiteness check takes 15, 15 and then 10 of its 40 rows) and a binary
    d = 1 measure (43,690, 43,690 and then 12,620 of its 100,000 atoms)."""
    folder = tmp_path_factory.mktemp("blocks")
    nx, nt = 4097, 40
    rng = np.random.default_rng(4)
    field = GriddedField(1, -1.0, 1.0, nx, 1.0, nt, rng.standard_normal((nt, nx, 1)),
                            {"p": rng.standard_normal((nt, nx))})
    dio.write_field(folder / "f", field)
    n = 100_000
    points = np.column_stack([rng.random((n, 1)), rng.random(n)])
    dio.write_measure(folder / "m", AtomicMeasure(points, rng.random(n)), binary=True)
    return {"field": (folder / "f", nx * nt, 2), "measure": (folder / "m", n, 3)}


NON_FINITE_CELLS = {   # column of the row, message, command
    "u": (0, "u contains non-finite samples", "verify"),
    "p": (1, "p contains non-finite samples", "verify"),
    "weight": (2, "atoms must have finite coordinates and weights", "dimension"),
}


@settings(max_examples=30, deadline=None)
@given(cell=st.sampled_from(sorted(NON_FINITE_CELLS)),
       value=st.sampled_from([math.nan, math.inf, -math.inf]),
       where=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
@example(cell="u", value=math.nan, where=0.0)   # the first row
@example(cell="p", value=-math.inf, where=1.0)   # the last row, in the last partial block
@example(cell="weight", value=math.inf, where=1.0)
def test_a_non_finite_sample_anywhere_in_a_mapped_body_exits_2(multi_block_files, cell, value,
                                                                where):
    column, message, command = NON_FINITE_CELLS[cell]
    path, rows, width = multi_block_files["field" if command == "verify" else "measure"]
    row = round(where * (rows - 1))
    offset = len(path.read_bytes().split(b"\n", 1)[0]) + 1 + (row * width + column) * 8
    with open(path, "r+b") as fh:
        fh.seek(offset)
        original = fh.read(8)
        fh.seek(offset)
        fh.write(np.float64(value).tobytes())
    try:
        read = dio.read_field if command == "verify" else dio.read_measure
        with pytest.raises(dio.MalformedFileError, match=message):
            read(path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([command, "--input", str(path)]) == 2
        assert json.loads(out.getvalue())["error"]["message"] == f"{path}: {message}"
    finally:
        with open(path, "r+b") as fh:
            fh.seek(offset)
            fh.write(original)
