"""The benchmark's span contract, checked in-process at a tiny size.

``bench/selftest.py`` lists the layers each workload must drive, and
``bench/spans.py`` wraps those functions from outside the package.  A
refactor that stops calling one of them would leave its per-layer metrics at
zero; this runs each workload's pipeline at a small size, in process, under
``spans.install`` and checks that every layer listed for the workload
records a call.
"""

import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    """bench/spans.py and bench/selftest.py, imported for this test only;
    ``spans.install`` sets its wrappers through monkeypatch, which puts the
    dissdim attributes back afterwards."""
    monkeypatch.syspath_prepend(str(BENCH))
    import selftest
    import spans
    monkeypatch.setattr(spans, "setattr", monkeypatch.setattr, raising=False)
    yield spans, selftest
    for name, module in list(sys.modules.items()):
        if Path(getattr(module, "__file__", None) or "").parent == BENCH:
            del sys.modules[name]


def idle_layers(bench, workload, commands, capsys):
    """Run the CLI commands in order under one recorder; the layers that
    ``selftest.USES[workload]`` lists and that recorded no call."""
    spans, selftest = bench
    from dissdim import cli

    recorder = spans.Recorder(workload)
    spans.install(recorder)
    for argv in commands:
        code = cli.main(argv)
        assert code == 0, (argv, capsys.readouterr().out)
    metrics = spans.layer_metrics(recorder.spans)
    return [name for name in selftest.USES[workload] if not metrics[f"{name}.calls"] > 0]


def test_verify_drives_every_layer_the_benchmark_lists(bench, tmp_path, capsys):
    from dissdim import io
    from dissdim.fixtures import decaying_shear_field

    path = str(tmp_path / "shear.field")
    io.write_field(path, decaying_shear_field(1e-2, 2 * math.pi, 0.0, 1.0, 17, 1.0, 17))
    assert not idle_layers(bench, "verify-2d-scan", [
        ["verify", "--input", path, "--nu", "1e-2", "--delta-max", "0.125",
         "--count", "3", "--center", "0.5,0.5:0.5", "--csv", str(tmp_path / "sweep.csv")],
    ], capsys)


def test_shock_text_drives_every_layer_the_benchmark_lists(bench, tmp_path, capsys):
    field, measure = str(tmp_path / "shock.field"), str(tmp_path / "shock.measure")
    ladder = ["--delta-max", "0.125", "--count", "3"]
    assert not idle_layers(bench, "shock-text", [
        ["burgers", "--ul", "1", "--ur", "-1", "--nx", "129", "--nt", "65", "--text",
         "--field-out", field, "--measure-out", measure],
        ["dimension", "--input", measure, "--alpha", "1", *ladder,
         "--csv", str(tmp_path / "ladder.csv")],
        ["verify", "--input", field, "--q", "inf", "--r", "inf", "--alpha", "1",
         "--pair", "burgers", "--center", "0.0:0.5", *ladder,
         "--csv", str(tmp_path / "sweep.csv")],
    ], capsys)


def test_viscous_readme_drives_every_layer_the_benchmark_lists(bench, tmp_path, capsys):
    field, measure = str(tmp_path / "v.field"), str(tmp_path / "v.measure")
    assert not idle_layers(bench, "viscous-readme", [
        ["vfield", "--nu", "1e-3", "--ul", "1", "--ur", "-1", "--a", "-0.03", "--b", "0.03",
         "--nx", "241", "--T", "0.05", "--nt", "41", "--initial", "viscous_profile",
         "--field-out", field, "--measure-out", measure],
        ["dimension", "--input", measure, "--sample-centers", "8", "--seed", "1",
         "--csv", str(tmp_path / "ladder.csv")],
        ["verify", "--input", field, "--alpha", "2", "--nu", "1e-3", "--pair", "burgers",
         "--center", "0.0:0.025", "--delta-max", "0.0075",
         "--csv", str(tmp_path / "sweep.csv")],
    ], capsys)
