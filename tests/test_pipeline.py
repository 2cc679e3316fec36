"""The row-block snapshot pipeline against the per-state public functions.

The runners propagate, diffuse and diagnose snapshots in (rows, N) blocks;
every value they report must be bit for bit what `propagate`/`diffuse_step`,
`entropy_report` and `energy` give for each snapshot alone.  The block size
is shrunk to 3 rows so that small runs cover one row, one block and a row
count that is not a multiple of the block.
"""
from dataclasses import replace

import numpy as np
import pytest

from qhydro import cli, grid as grid_module, schrodinger
from qhydro.cli import compare_quantum_diffusion, default_config, main, render_config, run_scenario
from qhydro.diffusion import DiffusionState, diffuse_step, gaussian_density
from qhydro.entropy import boltzmann_entropy, entropy_report
from qhydro.grid import integrate, make_grid
from qhydro.madelung import advective_velocity, density, diffusive_velocity
from qhydro.schrodinger import (
    EvolutionConfig,
    energy,
    free_potential,
    gaussian_packet,
    harmonic_potential,
    propagate,
)

BLOCK_ROWS = 3
N = 64
# t = 0 alone; t = 0 plus one full block; t = 0 plus two blocks and one row
ROW_COUNTS = {"one_row": 1, "one_block": 1 + BLOCK_ROWS, "ragged": 1 + 2 * BLOCK_ROWS + 1}


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    monkeypatch.setattr(grid_module, "_BLOCK_BYTES", BLOCK_ROWS * 16 * N)


def _config(scenario, rows, **overrides):
    base = dict(L=10.0, N=N, dt=0.01, t_final=(rows - 1) * 0.01, snapshot_stride=1,
                emit_fields=True)
    return replace(default_config(scenario), **{**base, **overrides})


QUANTUM_CASES = {
    "free": dict(scenario="free_gaussian", width_rate=0.2, enable_von_neumann=True),
    "trap": dict(scenario="custom", potential="harmonic", omega0=2.0, sigma0=0.6,
                 width_rate=0.1),
}


def _quantum_start(cfg):
    grid = make_grid(cfg.L, cfg.N)
    pot = harmonic_potential(cfg.omega0) if cfg.potential == "harmonic" else free_potential()
    state = gaussian_packet(grid, cfg.sigma0, cfg.hbar, cfg.mass, width_rate=cfg.width_rate)
    return grid, pot, state


def _sigma2(rho):
    return float(rho.grid.dx * np.sum(rho.grid.x**2 * rho.values))


@pytest.mark.parametrize("rows", ROW_COUNTS.values(), ids=ROW_COUNTS.keys())
@pytest.mark.parametrize("case", QUANTUM_CASES.values(), ids=QUANTUM_CASES.keys())
def test_quantum_runner_matches_per_state_path(case, rows):
    cfg = _config(rows=rows, **case)
    report = run_scenario(cfg)
    tab = report.table
    grid, pot, state = _quantum_start(cfg)
    snapshots = propagate(state, pot, cli._evolution(cfg))
    assert len(tab["t"]) == len(snapshots) == rows
    for i, snap in enumerate(snapshots):
        rho = density(snap)
        ent = entropy_report(snap, cfg.k_B, cfg.enable_von_neumann)
        assert tab["t"][i] == snap.time
        assert tab["norm"][i] == integrate(rho)
        assert tab["energy"][i] == energy(snap, pot)
        assert tab["sigma2_measured"][i] == _sigma2(rho)
        assert tab["ent_boltzmann"][i] == ent.ent_boltzmann
        assert tab["fisher"][i] == ent.fisher_information
        assert tab["production_diffusive"][i] == ent.production_diffusive
        assert tab["production_advective"][i] == ent.production_advective
        assert tab["production_correlation"][i] == ent.production_correlation
        vn = tab["ent_von_neumann"]
        assert (None if vn is None else vn[i]) == ent.ent_von_neumann
    u_a = [advective_velocity(s).values for s in snapshots]
    assert tab["ua_max"].tolist() == [float(np.abs(u).max()) for u in u_a]
    rho0 = density(snapshots[0]).values
    assert tab["rho_drift"].tolist() == [float(np.abs(density(s).values - rho0).max()) for s in snapshots]
    for table, snap, u in zip(report.field_tables, snapshots, u_a):
        assert np.array_equal(table["rho"], density(snap).values)
        assert np.array_equal(table["u_advective"], u)
        assert not np.signbit(table["u_advective"][~advective_velocity(snap).mask]).any()


def _diffused(initial, cfg):
    ev = cli._evolution(cfg)
    return [initial] + [diffuse_step(initial, i * ev.dt) for i in ev.snapshot_steps()[1:]]


@pytest.mark.parametrize("rows", ROW_COUNTS.values(), ids=ROW_COUNTS.keys())
def test_diffusion_runner_matches_per_state_path(rows):
    cfg = _config("diffusion_gaussian", rows, start_time=0.3)
    report = run_scenario(cfg)
    tab = report.table
    initial = gaussian_density(make_grid(cfg.L, cfg.N), cfg.sigma0, cfg.D, time=cfg.start_time)
    snapshots = _diffused(initial, cfg)
    assert len(tab["t"]) == len(snapshots) == rows
    assert tab.get("energy") is None
    assert tab.get("production_advective") is None
    for i, (snap, table) in enumerate(zip(snapshots, report.field_tables)):
        ent = entropy_report(snap, cfg.k_B)
        assert tab["t"][i] == snap.time
        assert tab["norm"][i] == integrate(snap.rho)
        assert tab["sigma2_measured"][i] == _sigma2(snap.rho)
        assert tab["ent_boltzmann"][i] == ent.ent_boltzmann
        assert tab["fisher"][i] == ent.fisher_information
        assert tab["production_diffusive"][i] == ent.production_diffusive
        assert np.array_equal(table["rho"], snap.rho.values)
        assert np.array_equal(table["u_diffusive"], diffusive_velocity(snap.rho, cfg.D).values)


@pytest.mark.parametrize("rows", ROW_COUNTS.values(), ids=ROW_COUNTS.keys())
def test_compare_matches_per_state_path(rows):
    cfg = _config("free_gaussian", rows)
    report = compare_quantum_diffusion(cfg)
    grid = make_grid(cfg.L, cfg.N)
    q_state = gaussian_packet(grid, cfg.sigma0, cfg.hbar, cfg.mass)
    q_snaps = propagate(q_state, free_potential(), cli._evolution(cfg))
    d_snaps = _diffused(DiffusionState(density(q_state), cfg.D, time=0.0), cfg)
    tab = report.table
    assert len(tab["t"]) == rows
    for i, (qs, ds) in enumerate(zip(q_snaps, d_snaps)):
        rho_q = density(qs)
        assert tab["t"][i] == qs.time
        assert tab["sigma2_quantum"][i] == _sigma2(rho_q)
        assert tab["sigma2_diffusive"][i] == _sigma2(ds.rho)
        assert tab["ent_boltzmann_quantum"][i] == boltzmann_entropy(rho_q, cfg.k_B)
        assert tab["ent_boltzmann_diffusive"][i] == boltzmann_entropy(ds.rho, cfg.k_B)
        l2 = float(np.sqrt(grid.dx * np.sum((rho_q.values - ds.rho.values) ** 2)))
        assert tab["rho_l2_divergence"][i] == l2


@pytest.mark.parametrize("pot", [free_potential(), harmonic_potential(1.5)], ids=["free", "trap"])
def test_propagate_does_not_depend_on_the_block_size(monkeypatch, pot):
    state = gaussian_packet(make_grid(10.0, N), 0.8, width_rate=0.2)
    cfg = EvolutionConfig(0.01, 0.1, 1)
    blocked = propagate(state, pot, cfg)
    monkeypatch.setattr(grid_module, "_BLOCK_BYTES", 1)  # one row per block
    single = propagate(state, pot, cfg)
    assert blocked[0] is state
    assert len(blocked) == len(single) == 11
    for a, b in zip(blocked, single):
        assert a.time == b.time
        assert np.array_equal(a.psi.values, b.psi.values)


def test_nan_in_a_later_block_aborts_at_its_step(tmp_path, capsys, monkeypatch):
    # steps 0..10 are cut into [0], [1-3], [4-6], [7-9], [10]; poison step 8
    eigenbasis = schrodinger._eigenbasis

    def poisoned(state, pot):
        energies, coeffs, to_x = eigenbasis(state, pot)
        blocks = []

        def to_x_with_nan(table):
            psi = to_x(table)
            blocks.append(len(psi))
            if len(blocks) == 3:
                psi[1, 5] = np.nan
            return psi

        return energies, coeffs, to_x_with_nan

    monkeypatch.setattr(schrodinger, "_eigenbasis", poisoned)
    out = tmp_path / "out"
    path = tmp_path / "cfg.ini"
    path.write_text(render_config(_config("free_gaussian", 11, directory=str(out))))
    assert main(["run", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric abort at step 8: non-finite wavefunction")
    assert not out.exists()

