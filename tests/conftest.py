from dataclasses import replace

import numpy as np
import pytest

from qhydro import gaussian_packet, make_grid
from qhydro.cli import default_config, run_scenario


@pytest.fixture(scope="session")
def grid256():
    # wide enough that a sigma=1 Gaussian decays below 1e-14 at the boundary
    return make_grid(20.0, 256)


@pytest.fixture(scope="session")
def grid1024():
    return make_grid(40.0, 1024)


# default runs shared by the acceptance criteria and the identity-table tests
@pytest.fixture(scope="session")
def free_report():
    return run_scenario(default_config("free_gaussian"))


@pytest.fixture(scope="session")
def ground_report():
    return run_scenario(default_config("harmonic_ground"))


@pytest.fixture(scope="session")
def perturbed_report():
    return run_scenario(default_config("harmonic_perturbed"))


@pytest.fixture(scope="session")
def diffusion_report():
    # on the similarity branch: sigma0^2 = 2 D start_time
    cfg = replace(
        default_config("diffusion_gaussian"),
        sigma0=float(np.sqrt(0.5)),
        start_time=0.5,
        t_final=3.5,
        dt=1e-3,
        snapshot_stride=10,
    )
    return run_scenario(cfg)


@pytest.fixture()
def unit_gaussian(grid256):
    return gaussian_packet(grid256, 1.0)


def smooth_periodic(grid, seed, n_modes=6, amplitude=1.0):
    """Deterministic band-limited test field: a low-order trig series."""
    rng = np.random.default_rng(seed)
    x = grid.x
    f = np.zeros_like(x)
    for n in range(1, n_modes + 1):
        k = np.pi * n / grid.half_width
        f += rng.normal() * np.cos(k * x) + rng.normal() * np.sin(k * x)
    return amplitude * f
