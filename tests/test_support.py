"""The row diagnostics on the density's column window against full width.

Every pointwise term of a row block after its spectral derivatives is
computed on the columns from the first to the last where any row's floor
mask holds, with the mask still applied there.  Written out here at full
width, as a block of rows would be without a window, each column must come
out bit for bit the same.
"""
from dataclasses import replace

import numpy as np
import pytest

from qhydro import cli
from qhydro.entropy import _quantum_rows
from qhydro.grid import Field, make_grid, spectral_derivatives
from qhydro.madelung import DENSITY_FLOOR_RATIO, QuantumState, _Support
from qhydro.schrodinger import EvolutionConfig, free_potential, gaussian_packet, propagate

HBAR, MASS, K_B = 0.7, 1.3, 1.1


def _full_width(psi, grid):
    """The entropy columns of a (rows, N) block, every term over all N columns."""
    rho = np.abs(psi) ** 2
    mask = rho >= DENSITY_FLOOR_RATIO * rho.max(axis=-1, keepdims=True)
    safe = np.where(mask, psi, 1)
    r1, r2 = (np.where(mask, d / safe, 0) for d in spectral_derivatives(psi, grid, (1, 2)))
    dx = grid.dx

    def integral(integrand):
        return dx * np.sum(np.where(mask, integrand, 0.0), axis=-1)

    grad = 2.0 * rho * r1.real
    fisher = integral(grad * grad / np.where(mask, rho, 1))
    v = -1j * (HBAR / MASS) * r1
    return dict(
        ent_boltzmann=-K_B * integral(rho * np.log(np.where(mask, rho, 1))),
        fisher_information=fisher,
        production_diffusive=K_B * (HBAR / (2 * MASS)) * fisher,
        production_advective=K_B * integral(rho * (HBAR / MASS * (r2 - r1 * r1).imag)),
        production_correlation=(K_B / (HBAR / (2 * MASS))) * integral(rho * v.real * v.imag),
    ), mask


def _window(mask):
    held = np.flatnonzero(mask.any(axis=0))
    return held[0], held[-1] + 1


def _rows_of_different_supports(grid):
    """Packets of three widths at three centres, one a row."""
    return np.array([
        gaussian_packet(grid, sigma, HBAR, MASS, rate, centre).psi.values
        for sigma, centre, rate in ((0.6, -22.0, 0.3), (2.5, 4.0, -0.2), (1.0, 19.0, 0.0))
    ])


def _two_packets(grid):
    """Two packets running into each other, psi(x) = g(x + 6) e^{3ix} -
    g(x - 6) e^{-3ix}, from t = 0 to their collision.  psi is odd, so x = 0
    is a node, masked inside the window, as is the gap before they meet."""
    g = [gaussian_packet(grid, 1.0, HBAR, MASS, center=c).psi.values for c in (-6.0, 6.0)]
    psi = g[0] * np.exp(3j * grid.x) - g[1] * np.exp(-3j * grid.x)
    state = QuantumState(Field(grid, psi / np.sqrt(grid.dx * np.sum(np.abs(psi) ** 2))), HBAR, MASS)
    rows = propagate(state, free_potential(), EvolutionConfig(0.5, 4.0, 1))
    return np.array([s.psi.values for s in rows])


BLOCKS = {"different_supports": _rows_of_different_supports, "two_packets": _two_packets}


@pytest.mark.parametrize("rows", BLOCKS.values(), ids=BLOCKS.keys())
def test_windowed_columns_match_full_width(rows):
    grid = make_grid(40.0, 1024)
    psi = rows(grid)
    columns, _, _ = _quantum_rows(psi, grid, HBAR, MASS, K_B)
    support = _Support(np.abs(psi) ** 2)
    expected, mask = _full_width(psi, grid)
    lo, hi = _window(mask)
    assert (support.cols.start, support.cols.stop) == (lo, hi)
    # the window is narrower than the grid, and some row is masked inside it
    assert hi - lo < grid.num_points and not mask[:, lo:hi].all()
    if rows is _two_packets:
        zero = grid.num_points // 2
        assert grid.x[zero] == 0 and not mask[:, zero].any() and mask[-1, zero - 2]
    for name, column in expected.items():
        assert columns[name].tobytes() == column.tobytes(), name


FIELD_CASES = {
    "u_advective": dict(scenario="custom", width_rate=0.4),
    "u_diffusive": dict(scenario="diffusion_gaussian", start_time=0.3),
}


@pytest.mark.parametrize("name, case", FIELD_CASES.items(), ids=FIELD_CASES.keys())
def test_emitted_velocity_rows_are_zero_outside_the_window(name, case):
    # rows at steps 0, 40, ..., 2000 of dt = 1e-3, read from the report's field tables
    cfg = replace(cli.default_config(case["scenario"]), emit_fields=True, t_final=2.0,
                  snapshot_stride=40, **case)
    tables = list(cli.run_scenario(cfg).field_tables())
    rho, u = (np.array([table[key] for table in tables]) for key in ("rho", name))
    mask = rho >= DENSITY_FLOOR_RATIO * rho.max(axis=-1, keepdims=True)
    lo, hi = _window(mask)
    assert len(tables) == 51 and 0 < lo and hi < cfg.N
    assert not np.any(u[:, :lo]) and not np.any(u[:, hi:]) and not np.any(u[~mask])
    assert not np.signbit(u[~mask]).any()  # +0.0, as a `Field` writes an invalid point
    assert np.any(u[:, lo:hi])
