import os

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
