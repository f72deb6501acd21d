import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import settings

from dissdim import aniso_measure as am
from dissdim import fixtures as fx

# CI runs draw the same examples every time and print the blob that replays a
# failure; local runs stay random
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

_RUN_CACHE = {}

STANDING_SHOCK = fx.RiemannDatum(1.0, -1.0)


def standing_shock_run(nu, T=1.0, nt=401, width_factor=30.0, h_factor=0.05):
    """Cached standing-shock viscous runs; grids scale with the shock width."""
    key = (nu, T, nt, width_factor, h_factor)
    if key not in _RUN_CACHE:
        hw = width_factor * nu
        h = h_factor * nu
        nx = int(round(2 * hw / h)) + 1
        _RUN_CACHE[key] = fx.viscous_burgers_run(
            STANDING_SHOCK, nu, -hw, hw, nx, T, nt, initial="viscous_profile"
        )
    return _RUN_CACHE[key]


@pytest.fixture(scope="session")
def shock_runs():
    return standing_shock_run


def outward_sphere_flux(field, delta, n=64):
    """Flux of ``field.value`` out of the sphere of radius delta about 0.

    By the divergence theorem this is the ball mass of the divergence, found
    here without the closed form: trapezoid rule in the angle for d = 2,
    Gauss-Legendre in cos(theta) times the trapezoid rule in phi for d = 3.
    """
    phi = 2 * np.pi * np.arange(n) / n
    if field.d == 2:
        normal = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        area = np.full(n, 2 * np.pi / n) * delta
    elif field.d == 3:
        mu, w_mu = np.polynomial.legendre.leggauss(n)
        sin_theta = np.sqrt(1 - mu ** 2)[:, None]
        normal = np.stack([sin_theta * np.cos(phi), sin_theta * np.sin(phi),
                           np.broadcast_to(mu[:, None], (n, n))], axis=-1)
        area = np.outer(w_mu, np.full(n, 2 * np.pi / n)) * delta ** 2
    else:
        raise ValueError(f"sphere quadrature is written for d = 2, 3, got {field.d}")
    flux_density = np.sum(field.value(delta * normal) * normal, axis=-1)
    return float(np.sum(area * flux_density))


@pytest.fixture(scope="session")
def sphere_flux():
    return outward_sphere_flux


def box_count_covering_estimates(points, s, caps):
    """N(cap) * cap**s at each cap, alpha = 1, with N(cap) the occupied
    lattice-cell count of ``box_counting_dimension``: the covering estimate of
    the points with cells of size at most cap, which is an upper bound for
    their size-capped s-premeasure (the aligned cells of side cap cover them)."""
    counts = am.box_counting_dimension(points, 1.0, caps).counts
    return [n * cap ** s for n, cap in zip(counts, caps)]


@pytest.fixture(scope="session")
def covering_estimates():
    return box_count_covering_estimates


def resident_file_bytes():
    """Bytes of file-backed pages this process has resident (Linux)."""
    with open("/proc/self/status") as fh:
        line = next(line for line in fh if line.startswith("RssFile:"))
    return int(line.split()[1]) * 1024


@pytest.fixture
def rss_file():
    """``resident_file_bytes``; skips the test where /proc/self/status is missing."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("reads RssFile")
    return resident_file_bytes


def write_steady_field(path) -> str:
    """Setup code for ``grown_in_fork`` that writes a 38.7 MB steady 2D
    field to ``path`` and holds no more than one time slice while it does."""
    return f"""
        nx, nt = 193, 65   # 65 * 193**2 * 2 * 8 bytes
        x = np.sin(2 * np.pi * np.linspace(0.0, 1.0, nx))
        v = np.stack(np.meshgrid(x, -x, indexing="ij"), axis=-1)
        dio.write_field({str(path)!r},
                        GriddedField(2, 0.0, 1.0, nx, 1.0, nt, np.broadcast_to(v, (nt,) + v.shape)))
    """


def peak_growth_in_fork(setup: str, work: str) -> dict:
    """Run ``setup`` in a new interpreter, then ``work`` in a fork of it, and
    return {"grown": bytes by which the fork's peak RSS grew during ``work``,
    "body": the value ``work`` left in ``body``}.

    The fork's peak RSS starts at its own resident size, which leaves out the
    file pages (library code, a mapped body) that the setup had mapped until
    the work touches them again; the work runs in the fork so that the
    setup's own peak does not count."""
    code = textwrap.dedent("""
        import json, os, resource, sys
        import numpy as np
        from dissdim import aniso_measure as am
        from dissdim import io as dio
        from dissdim.cutoffs import CutoffPair
        from dissdim.fields import GriddedField
        from dissdim.weak_balance import holder_cylinder_bound
    """) + textwrap.dedent(setup) + textwrap.dedent("""
        if os.fork() == 0:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        {work}
            grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
            print(json.dumps({{"grown": grown * 1024, "body": body}}), flush=True)
            os._exit(0)
        sys.exit(os.waitstatus_to_exitcode(os.wait()[1]))
    """).format(work=textwrap.indent(textwrap.dedent(work).strip("\n"), "    "))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


@pytest.fixture
def grown_in_fork():
    return peak_growth_in_fork


@pytest.fixture
def steady_field_file():
    return write_steady_field
