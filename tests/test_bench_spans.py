"""The benchmark's span contract, checked in-process at a tiny size.

``bench/selftest.py`` lists the layers each workload must drive, and
``bench/spans.py`` wraps those functions from outside the package.  A
refactor that stops calling one of them would leave its per-layer metrics at
zero; this runs a small d = 2 viscous ``verify`` under ``spans.install`` and
checks that every layer listed for ``verify-2d-scan`` records a call.
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


def test_verify_drives_every_layer_the_benchmark_lists(bench, tmp_path, capsys):
    spans, selftest = bench
    from dissdim import cli, io
    from dissdim.fixtures import decaying_shear_field

    path = str(tmp_path / "shear.field")
    io.write_field(path, decaying_shear_field(1e-2, 2 * math.pi, 0.0, 1.0, 17, 1.0, 17))
    recorder = spans.Recorder("verify")
    spans.install(recorder)
    code = cli.main(["verify", "--input", path, "--nu", "1e-2", "--delta-max", "0.125",
                     "--count", "3", "--center", "0.5,0.5:0.5",
                     "--csv", str(tmp_path / "sweep.csv")])
    assert code == 0, capsys.readouterr().out
    metrics = spans.layer_metrics(recorder.spans)
    idle = [name for name in selftest.USES["verify-2d-scan"]
            if not metrics[f"{name}.calls"] > 0]
    assert not idle
