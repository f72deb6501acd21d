import json
import math
import subprocess
import sys

import pytest

from dissdim import io as dio
from dissdim import fixtures as fx
from dissdim.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def run_json(args, capsys):
    code, out = run_cli(args, capsys)
    return code, json.loads(out)


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
                               "--q", "inf", "--r", "9/2", "--optimal"], capsys)
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


@pytest.mark.parametrize("flags", [
    ["--regime", "ns", "--optimal"],
    ["--regime", "ns", "--unbounded-pressure"],
    ["--regime", "claw", "--r", "inf", "--optimal"],
    ["--regime", "claw", "--r", "inf", "--unbounded-pressure"],
    ["--regime", "claw", "--r", "inf", "--q", "4"],
    ["--regime", "claw", "--r", "inf", "--alpha", "2"],
    ["--regime", "euler", "--alpha", "2", "--optimal"],
    ["--regime", "euler", "--q", "3", "--alpha", "2", "--unbounded-pressure"],
    ["--regime", "euler", "--q", "3", "--optimal", "--unbounded-pressure"],
])
def test_exponents_rejects_ignored_flags(flags, capsys):
    code, data = run_json(["exponents", "--d", "3"] + flags, capsys)
    assert code == 2
    assert data["error"]["type"] == "CliError"


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
        dio.write_measure(path, AtomicMeasure(np.zeros((0, 1)), np.zeros(0),
                                              np.zeros(0), d=1))
        code, data = run_json(["dimension", "--input", path], capsys)
        assert code == 2
        assert "empty support" in data["error"]["message"]

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "garbage.measure"
        path.write_text("dissdim-measure v1 d=1 n=2\n0.0 0.0 1.0\n")
        code, data = run_json(["dimension", "--input", str(path)], capsys)
        assert code == 2
        assert "line" in data["error"]["message"]


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
        assert data["weak_mass_slope"] == pytest.approx(1.0, abs=0.1)
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

    def test_rarefaction_measure_is_empty(self, capsys, tmp_path):
        mpath = str(tmp_path / "m.measure")
        code, data = run_json(["burgers", "--ul", "-1", "--ur", "1",
                               "--measure-out", mpath, "--measure-atoms", "64"], capsys)
        assert code == 0
        assert data["shock"] is False
        assert data["measure_atoms"] == 0


VFIELD = ["vfield", "--nu", "0.01", "--ul", "1", "--ur", "-1", "--a", "-0.3", "--b", "0.3"]


@pytest.mark.parametrize("argv", [
    ["burgers", "--ul", "1", "--ur", "-1", "--nx", "1"],
    ["burgers", "--ul", "1", "--ur", "-1", "--nt", "1"],
    VFIELD + ["--nx", "1", "--T", "0.2"],
    VFIELD + ["--nx", "301", "--T", "0.2", "--nt", "1"],
    ["verify", "--nu", "-1"],
    ["dimension", "--top-k", "-1"],
    ["dimension", "--top-k", "0"],
    ["dimension", "--sample-centers", "0"],
    ["dimension", "--sample-centers", "64", "--top-k", "1"],
    ["dimension", "--seed", "5"],
    VFIELD + ["--nx", "301", "--T", "inf"],
    VFIELD + ["--nx", "301", "--T", "0.2", "--ul", "inf"],
    VFIELD + ["--nx", "301", "--T", "0.2", "--x0", "nan"],
    VFIELD + ["--nx", "301", "--T", "0.2", "--x0", "inf"],
    VFIELD + ["--nx", "301", "--T", "0.2", "--nu", "inf"],
])
def test_out_of_range_arguments_exit_2(argv, shock_files, capsys):
    field_path, measure_path = shock_files
    if argv[0] in ("verify", "dimension"):
        argv = argv + ["--input", field_path if argv[0] == "verify" else measure_path]
    code, data = run_json(argv, capsys)
    assert code == 2
    assert data["schema"] == "dissdim/1"
    assert data["error"]["type"] in ("ValueError", "CliError")


class TestDeterminism:
    def test_byte_identical_reruns(self, shock_files):
        _, measure_path = shock_files
        cmd = [sys.executable, "-m", "dissdim.cli", "dimension", "--input",
               measure_path, "--alpha", "1", "--delta-max", "0.125", "--count", "6"]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_missing_file_exit_2(self, capsys):
        code, data = run_json(["dimension", "--input", "/does/not/exist"], capsys)
        assert code == 2
