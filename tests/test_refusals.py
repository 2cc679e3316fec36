"""The library's refusals, each with its exception and message.

Every public constructor and function that checks its input names what it
refused; a refusal that no run reaches is pinned here, one case each.  The
width model's RK4 cap, which `harmonic_perturbed` checks before any block
runs, is pinned here too, as is the order of a command's checks: every key's
range, then the command's own entry's checks, then the read-or-refuse rule,
then the clock, before any start state is built.
"""
import re
from dataclasses import replace

import numpy as np
import pytest

from qhydro import (
    DiffusionState, EvolutionConfig, Field, GaussianParams, NumericsError, QuantumState,
    SigmaTrace, density, diffuse_step, diffusive_acceleration, dominant_mode,
    entropy_equation_residual, evolve, gaussian_packet, harmonic_potential, harmonic_sigma,
    make_grid, production_diffusive, step, superposition,
)
from qhydro import cli
from qhydro.analytic import _rk4_steps
from qhydro.cli import SCENARIOS, ConfigError, default_config, main, validate_config

GRID = make_grid(20.0, 256)
GROUND = GaussianParams(float(np.sqrt(0.5)), omega0=1.0)


def _spike(index: int, D: float = 0.5, time: float = 0.0) -> DiffusionState:
    """A unit mass on one grid point: its valid mask is that point alone."""
    rho = np.zeros(GRID.num_points)
    rho[index] = 1 / GRID.dx
    return DiffusionState(Field(GRID, rho), D, time)


def _packet(time: float = 0.0, grid=GRID) -> QuantumState:
    return replace(gaussian_packet(grid, 1.0), time=time)


def _overflowing_trap(advance):
    """`advance` of a packet in a trap whose (omega0 x)^2 overflows: the kick is NaN."""
    with np.errstate(all="ignore"):
        advance(_packet(), harmonic_potential(1e200))


def _nan_on_a_valid_point():
    values = np.ones(GRID.num_points)
    values[3] = np.nan
    return Field(GRID, values, np.ones(GRID.num_points, bool))


REFUSALS = {
    "gaussian_params_hbar": (
        lambda: GaussianParams(1.0, hbar=0.0), ValueError, "hbar and mass must be positive"),
    "gaussian_params_mass": (
        lambda: GaussianParams(1.0, mass=-1.0), ValueError, "hbar and mass must be positive"),
    "sigma_trace_positive": (
        lambda: SigmaTrace(np.array([1.0, 0.0]), np.zeros(2)),
        ValueError, "sigma must stay positive along the trace"),
    "harmonic_sigma_one_time": (
        lambda: harmonic_sigma(GROUND, [0.0]), ValueError,
        "t_grid must contain at least two times"),
    "harmonic_sigma_decreasing": (
        lambda: harmonic_sigma(GROUND, [0.0, 1.0, 0.5]), ValueError,
        "t_grid must be strictly increasing"),
    "acceleration_disjoint_masks": (
        lambda: diffusive_acceleration(_spike(40), _spike(200, time=0.1)), ValueError,
        "no jointly valid points"),
    "residual_order": (
        lambda: entropy_equation_residual(_packet(0.1), _packet(0.1)), ValueError,
        "after must be later than before"),
    "residual_grids": (
        lambda: entropy_equation_residual(_packet(), _packet(0.1, make_grid(20.0, 128))),
        ValueError, "snapshots live on different grids"),
    "production_diffusive_D": (
        lambda: production_diffusive(density(_packet()), 0.0), ValueError,
        "diffusivity must be positive, got 0.0"),
    "field_mask_shape": (
        lambda: Field(GRID, np.ones(GRID.num_points), np.ones(3, bool)), ValueError,
        "valid mask shape mismatch"),
    "field_nan_on_valid_point": (
        _nan_on_a_valid_point, ValueError, "non-finite values on valid points"),
    # D k^2 overflows at the largest wavenumbers
    "kernel_rates": (
        lambda: diffuse_step(_spike(40, D=1.7e308), 0.1), NumericsError,
        "non-finite rates in the density kernel"),
    "step_non_finite": (
        lambda: _overflowing_trap(lambda state, pot: step(state, pot, 0.01)), NumericsError,
        "non-finite wavefunction after one step"),
    "evolve_non_finite": (
        lambda: _overflowing_trap(
            lambda state, pot: evolve(state, pot, EvolutionConfig(0.01, 0.02))
        ), NumericsError, "non-finite wavefunction at step 1"),
    "packet_width": (
        lambda: gaussian_packet(GRID, 0.0), ValueError, "sigma0 must be positive, got 0.0"),
    "superposition_empty": (
        lambda: superposition(GRID, []), ValueError, "superposition needs at least one component"),
    "mode_seven_samples": (
        lambda: dominant_mode(np.arange(7.0), np.zeros(7)), ValueError,
        "need at least eight samples to estimate a mode"),
    "default_config_unknown": (
        lambda: default_config("quartic"), ConfigError,
        f"unknown scenario 'quartic'; choose from {sorted(SCENARIOS)}"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_names_what_it_refused(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_validate_config_lists_an_unknown_scenario():
    assert validate_config(replace(default_config("custom"), scenario="quartic")) == [
        "unknown scenario 'quartic'"
    ]


def test_a_width_model_past_the_rk4_cap_is_refused(tmp_path, capsys):
    # epsilon0 at 1% of the ground width; harmonic_sigma would take 1.11e10 RK4 steps
    path = tmp_path / "cfg.ini"
    path.write_text(
        "[scenario]\nname = harmonic_perturbed\n[physics]\nomega0 = 1e6\nepsilon0 = 7.07e-6\n"
        f"[output]\ndirectory = {tmp_path / 'out'}\n"
    )
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == (
        "config error: harmonic_perturbed's width model needs 1.11e+10 RK4 steps, "
        "more than the cap of 1e+08\n"
    )
    assert not (tmp_path / "out").exists()


# the default (~11.1k steps), a prime stride with a short last interval, and omega0 = 100
@pytest.mark.parametrize("overrides", [{}, dict(snapshot_stride=331), dict(omega0=100.0)],
                         ids=["default", "prime_stride", "omega0_100"])
def test_the_rk4_cap_counts_the_steps_harmonic_sigma_takes(monkeypatch, overrides):
    cfg = replace(default_config("harmonic_perturbed"), **overrides)
    cfg = replace(cfg, epsilon0=0.01 * np.sqrt(0.5 / cfg.omega0))
    snapshots = np.array(EvolutionConfig(cfg.dt, cfg.t_final, cfg.snapshot_stride).snapshot_steps())
    steps = sum(_rk4_steps(gap, cfg.omega0) for gap in np.diff(snapshots * cfg.dt))
    validate = cli._ENTRIES["harmonic_perturbed"].validate
    assert validate(cfg) == []
    monkeypatch.setattr(cli, "_RK4_CAP", steps)
    assert validate(cfg) == []
    monkeypatch.setattr(cli, "_RK4_CAP", steps - 1)
    assert validate(cfg) == [
        f"harmonic_perturbed's width model needs {steps:.3g} RK4 steps, more than the cap of "
        f"{steps - 1:.0e}"
    ]
    assert validate_config(cfg) == []  # the cap is the run's own check, not a key's range


def _refused(tmp_path, capsys, command, text, output=""):
    """main()'s exit code and stderr lines on the INI `text` and `output` lines, and whether
    it wrote anything."""
    path = tmp_path / "cfg.ini"
    path.write_text(text + f"[output]\n{output}directory = {tmp_path / 'out'}\n")
    code = main([command, str(path)])
    return code, capsys.readouterr().err.splitlines(), (tmp_path / "out").exists()


PERTURBED_FREE = "[scenario]\nname = harmonic_perturbed\n[physics]\npotential = free\n"


def test_compare_does_not_check_what_only_run_computes(tmp_path, capsys):
    # one row: `run harmonic_perturbed` needs a step for its width model; compare models none
    text = PERTURBED_FREE + "[evolution]\nt_final = 0.0\n"
    assert _refused(tmp_path, capsys, "compare", text) == (0, [], True)


def test_compare_refuses_the_width_model_keys_by_the_read_rule(tmp_path, capsys):
    # the RK4 cap of `run harmonic_perturbed` named neither key
    text = PERTURBED_FREE + "omega0 = 1e6\nepsilon0 = 7.07e-6\n"
    assert _refused(tmp_path, capsys, "compare", text) == (2, [
        "config error: compare_quantum_diffusion does not read omega0, "
        "which must stay 1.0, got 1000000.0",
        "config error: compare_quantum_diffusion does not read epsilon0, "
        f"which must stay {0.01 * np.sqrt(0.5)}, got 7.07e-06",
    ], False)


def test_a_key_out_of_range_is_refused_before_the_entry_checks(tmp_path, capsys):
    # epsilon0 = 0.1 is 0.14 of the ground width, past the linearized start
    text = "[scenario]\nname = harmonic_perturbed\n[physics]\nepsilon0 = 0.1\n"
    assert _refused(tmp_path, capsys, "run", text, "formats = xml\n") == (
        2, ["config error: unknown output format 'xml'"], False,
    )
    assert _refused(tmp_path, capsys, "run", text) == (
        2, ["config error: |epsilon0|/sigma_ground must be < 0.05, got 0.141"], False,
    )


def test_the_clock_is_refused_before_the_start_state_is_built(tmp_path, capsys):
    # sigma0**2 underflows, so the initial density has no finite norm: a numeric abort
    text = "[scenario]\nname = diffusion_gaussian\n[physics]\nsigma0 = 1e-300\n"
    assert _refused(tmp_path, capsys, "run", text + "start_time = 1e18\n") == (2, [
        "config error: start_time = 1e+18 and dt = 0.001 give snapshot times "
        "that do not strictly increase in float64"
    ], False)
    assert _refused(tmp_path, capsys, "run", text)[:2] == (3, [
        "numeric abort: the density has no finite positive norm on the grid (nan)"
    ])


def test_a_grid_is_not_equal_to_another_type():
    other = object()
    assert GRID.__eq__(other) is NotImplemented and GRID != other


def test_a_mode_at_the_spectrum_edge_is_not_refined():
    # an alternating trace peaks at the Nyquist bin, which has no right neighbour
    omega, amplitude = dominant_mode(np.arange(8.0), (-1.0) ** np.arange(8))
    assert (omega, amplitude) == (np.pi, 1.0)
