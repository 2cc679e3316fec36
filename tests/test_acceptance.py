"""Acceptance suite: every criterion at its pinned tolerance.

Each test prints one machine-readable line:

    ACCEPTANCE <id> <name>: PASS|FAIL measured=<err> tol=<tol>

Criterion 9 checks the von Neumann entropy -Tr(rho_op ln rho_op) of the
density operator, against an independent eigenvalue oracle: the spectrum of
the grid matrix dx * psi psi^dagger from a dense Hermitian eigensolver.  A
pure state's entropy is 0 and stays 0 under unitary evolution.  (The
pointwise-log kernel functional, which drifts, is checked in
test_entropy.TestVonNeumannEntropy.)
"""
import numpy as np
import pytest

from qhydro import (
    EvolutionConfig,
    diffuse_step,
    diffusive_acceleration,
    diffusive_bohm_force,
    evolve,
    free_potential,
    gaussian_density,
    gaussian_packet,
    harmonic_potential,
    make_grid,
    step,
    von_neumann_entropy,
)
from qhydro.analytic import GaussianParams, entropy_of_width, harmonic_sigma
from qhydro.diffusion import entropy_equation_residual, fokker_planck_residual
from qhydro.traces import dominant_mode

ENT0 = 0.5 * np.log(2 * np.pi * np.e)


def report_line(cid, name, ok, measured, tol):
    line = (
        f"ACCEPTANCE {cid} {name}: {'PASS' if ok else 'FAIL'} "
        f"measured={measured:.6g} tol={tol:.3g}"
    )
    print(line)
    return line


def identity(report, name):
    (check,) = [c for c in report.identities if c.name == name]
    return check


def row_at(report, t):
    """The table row at time t, as {column: value}."""
    (i,) = np.flatnonzero(np.abs(report.table["t"] - t) < 1e-12)
    return {name: column[i] for name, column in report.table.items() if column is not None}


def test_01_free_particle_spreading(free_report):
    check = identity(free_report, "sigma2_matches_reference")
    ok = check.measured < 1e-3
    line = report_line(1, "free_particle_spreading", ok, check.measured, 1e-3)
    assert ok, line


def test_02_free_entropy_trace(free_report):
    check = identity(free_report, "entropy_matches_reference")
    row_t2 = row_at(free_report, 2.0)
    value_err = abs(row_t2["ent_boltzmann"] - (ENT0 + 0.5 * np.log(2.0)))
    measured = max(check.measured, value_err)
    ok = measured < 1e-3
    line = report_line(2, "free_entropy_trace", ok, measured, 1e-3)
    assert ok, line
    assert abs(row_t2["ent_boltzmann"] - 1.7655121234846454) < 1e-3


def test_03_entropy_production_identity(free_report):
    check = identity(free_report, "entropy_rate_matches_production")
    row_t2 = row_at(free_report, 2.0)
    spot = max(
        abs(row_t2["production_advective"] - 0.25) / 0.25,
        abs(row_t2["dEntB_dt_fd"] - 0.25) / 0.25,
    )
    measured = max(check.measured, spot)
    ok = measured < 1e-2
    line = report_line(3, "entropy_production_identity", ok, measured, 1e-2)
    assert ok, line


def test_04_correlation_identity(free_report, ground_report, perturbed_report):
    worst = 0.0
    for report in (free_report, ground_report, perturbed_report):
        for a, c in zip(report.table["production_advective"], report.table["production_correlation"]):
            worst = max(worst, abs(a - c) / max(abs(a), abs(c), 1e-3))
    ok = worst < 1e-6
    line = report_line(4, "correlation_identity", ok, worst, 1e-6)
    assert ok, line


def test_05_harmonic_ground_state(ground_report):
    ent = identity(ground_report, "entropy_constant")
    ua = identity(ground_report, "advective_velocity_zero")
    rho = identity(ground_report, "density_stationary")
    ok = ent.measured < 1e-6 and ua.measured < 1e-6 and rho.measured < 1e-10
    measured = max(ent.measured, ua.measured, rho.measured / 1e-4)
    line = report_line(5, "harmonic_ground_state", ok, measured, 1e-6)
    print(
        f"    entropy_drift={ent.measured:.3g} max_u_a={ua.measured:.3g} "
        f"rho_drift={rho.measured:.3g}"
    )
    assert ok, line


def test_06_perturbed_harmonic_width_model():
    # the width-equation model: RK4 trace over five periods of the
    # linearized oscillation at sqrt(2) omega0
    w0 = 1.0
    s0 = float(np.sqrt(0.5))
    eps = 0.01 * s0
    p = GaussianParams(sigma0=s0, omega0=w0, epsilon0=eps)
    t_final = 5 * 2 * np.pi / (np.sqrt(2) * w0)
    t = np.linspace(0.0, t_final, 4001)
    trace = harmonic_sigma(p, t)

    linear = s0 + eps * np.cos(np.sqrt(2) * w0 * t)
    trace_gap = np.abs(trace.sigma - linear).max() / s0

    ent = np.array([float(entropy_of_width(s)) for s in trace.sigma])
    omega_hat, amp_hat = dominant_mode(t, ent)
    freq_err = abs(omega_hat - np.sqrt(2) * w0) / (np.sqrt(2) * w0)
    amp_err = abs(amp_hat - eps / s0) / (eps / s0)

    ok = freq_err < 0.01 and amp_err < 0.05 and trace_gap < 1e-4
    measured = max(freq_err, amp_err / 5.0, trace_gap / 1e-2)
    line = report_line(6, "perturbed_harmonic_width_model", ok, measured, 0.01)
    print(
        f"    freq_err={freq_err:.3g} amp_err={amp_err:.3g} "
        f"rk4_vs_linearized={trace_gap:.3g} sigma0"
    )
    assert freq_err < 0.01, line
    assert amp_err < 0.05, line
    assert trace_gap < 1e-4, line


def test_07_diffusion_exactness(diffusion_report):
    width = identity(diffusion_report, "sigma2_exact_kernel")
    defn = identity(diffusion_report, "production_is_kB_D_fisher")
    similarity = identity(diffusion_report, "production_matches_half_inverse_time")
    ok = width.measured < 1e-12 and defn.measured < 1e-12 and similarity.measured < 1e-3
    measured = max(width.measured / 1e-9, defn.measured / 1e-9, similarity.measured)
    line = report_line(7, "diffusion_exactness", ok, measured, 1e-3)
    print(
        f"    width_err={width.measured:.3g} definition_err={defn.measured:.3g} "
        f"rate_vs_half_inverse_time={similarity.measured:.3g}"
    )
    assert width.measured < 1e-12, line
    assert defn.measured < 1e-12, line
    assert similarity.measured < 1e-3, line


def test_08_diffusive_bohm_force_balance():
    # pointwise force balance on the full validity mask needs extended
    # precision: in float64 the 1/rho conditioning at the mask edge exceeds
    # the tolerance by two orders no matter how the estimator is tuned
    D = np.longdouble("0.5")
    t0, t_mid, tau = 0.5, 1.0, 0.01
    grid = make_grid(40.0, 1024, dtype=np.longdouble)
    seed = gaussian_density(grid, float(np.sqrt(0.5)), D=0.5, time=t0)
    before = diffuse_step(seed, (t_mid - tau) - t0)
    after = diffuse_step(before, 2 * tau)
    mid = diffuse_step(before, tau)

    accel = diffusive_acceleration(before, after)
    force = diffusive_bohm_force(mid.rho, D=0.5)
    mask = accel.mask & force.mask
    reference = -grid.x / (4.0 * t_mid**2)

    gap = float(np.abs(accel.values - force.values)[mask].max())
    acc_vs_ref = float(np.abs(accel.values - reference)[mask].max())
    force_vs_ref = float(np.abs(force.values - reference)[mask].max())

    ok = gap < 1e-3 and acc_vs_ref < 1e-3 and force_vs_ref < 1e-3
    measured = max(gap, acc_vs_ref, force_vs_ref)
    line = report_line(8, "diffusive_bohm_force_balance", ok, measured, 1e-3)
    print(
        f"    accel_vs_force={gap:.3g} accel_vs_closed_form={acc_vs_ref:.3g} "
        f"force_vs_closed_form={force_vs_ref:.3g}"
    )
    assert ok, line


def von_neumann_eig_oracle(state):
    """-sum(lam ln lam) over the eigenvalues lam > 1e-12 of dx * psi psi^dagger."""
    psi = state.psi.values
    lam = np.linalg.eigvalsh(state.grid.dx * np.outer(psi, psi.conj()))
    lam = lam[lam > 1e-12]
    return float(-np.sum(lam * np.log(lam)))


@pytest.fixture(scope="module")
def vn_run():
    grid = make_grid(20.0, 256)
    state = gaussian_packet(grid, 1.0)
    snaps = evolve(state, free_potential(), EvolutionConfig(1e-3, 2.0, 250))
    return [(s, von_neumann_entropy(s)) for s in snaps]


def test_09a_von_neumann_static_value(vn_run):
    # the unit Gaussian at t = 0 is a normalized pure state: entropy 0
    state, value = vn_run[0]
    oracle_err = abs(value - von_neumann_eig_oracle(state))

    ok = oracle_err <= 1e-12 and abs(value) <= 1e-12
    measured = max(oracle_err, abs(value))
    line = report_line(9, "von_neumann_static_value", ok, measured, 1e-12)
    print(f"    value={value:.3g} oracle_abs_err={oracle_err:.3g}")
    assert oracle_err <= 1e-12, line
    assert abs(value) <= 1e-12, line


def test_09b_von_neumann_time_constancy(vn_run):
    # Drift is normalized by max(|v0|, 1 k_B): the reference value of a pure
    # state is 0, and for |v0| >= 1 this is the plain relative drift.
    v0 = vn_run[0][1]
    drift = max(abs(v - v0) for _, v in vn_run) / max(abs(v0), 1.0)
    oracle_err = max(abs(v - von_neumann_eig_oracle(s)) for s, v in vn_run)
    ok = drift < 1e-3 and oracle_err <= 1e-12
    line = report_line(9, "von_neumann_time_constancy", ok, drift, 1e-3)
    print(f"    oracle_abs_err={oracle_err:.3g} (tol 1e-12, all snapshots)")
    assert drift < 1e-3, line
    assert oracle_err <= 1e-12, line


def test_10_residual_identities():
    grid = make_grid(40.0, 1024)
    state = gaussian_packet(grid, 1.0)
    snaps = evolve(state, free_potential(), EvolutionConfig(1e-3, 1.001, 1))
    fp = float(np.abs(fokker_planck_residual(snaps[-2]).values).max())
    ent = float(np.abs(entropy_equation_residual(snaps[-2], snaps[-1]).values).max())
    ok = fp < 1e-8 and ent < 1e-4
    measured = max(fp / 1e-4, ent)
    line = report_line(10, "residual_identities", ok, measured, 1e-4)
    print(f"    fokker_planck={fp:.3g} entropy_equation={ent:.3g}")
    assert fp < 1e-8, line
    assert ent < 1e-4, line


def test_11_conservation_suite(free_report, ground_report, perturbed_report, diffusion_report):
    worst_norm = 0.0
    worst_energy = 0.0
    for report in (free_report, ground_report, perturbed_report):
        worst_norm = max(worst_norm, identity(report, "norm_conservation").measured)
        worst_energy = max(worst_energy, identity(report, "energy_conservation").measured)
    worst_norm = max(worst_norm, identity(diffusion_report, "mass_conservation").measured)

    # time-reversal round trips (the diffusive kernel is dissipative and has
    # no reverse map; mass conservation stands in for it above)
    reversal = 0.0
    for grid_args, sigma, pot in (
        ((40.0, 1024), 1.0, free_potential()),
        ((12.0, 256), float(np.sqrt(0.5)), harmonic_potential(1.0)),
        ((12.0, 256), float(np.sqrt(0.5)) * 1.01, harmonic_potential(1.0)),
    ):
        grid = make_grid(*grid_args)
        initial = gaussian_packet(grid, sigma)
        forward = initial
        for _ in range(1000):
            forward = step(forward, pot, 1e-3)
        back = forward
        for _ in range(1000):
            back = step(back, pot, -1e-3)
        reversal = max(reversal, float(np.abs(back.psi.values - initial.psi.values).max()))

    ok = worst_norm < 1e-10 and worst_energy < 1e-5 and reversal < 1e-8
    measured = max(worst_norm / 1e-5, worst_energy, reversal / 1e-3)
    line = report_line(11, "conservation_suite", ok, measured, 1e-5)
    print(
        f"    norm_drift={worst_norm:.3g} energy_drift={worst_energy:.3g} "
        f"reversal={reversal:.3g}"
    )
    assert worst_norm < 1e-10, line
    assert worst_energy < 1e-5, line
    assert reversal < 1e-8, line


def test_12_uncertainty_bound(free_report, ground_report, perturbed_report, diffusion_report):
    # With the mean free path l_x = sigma and the Brownian momentum
    # p_x = m rms(u_d) = m D sqrt(I_F), l_x p_x / (m D) = sqrt(sigma^2 I_F) >= 1
    # (Cramer-Rao), with equality for a Gaussian; each of these runs is one.
    # sigma^2 and I_F are the solver's sigma2_measured and fisher columns.
    # The tolerance is the runs' norm tolerance: a norm off by d scales
    # sigma^2 and I_F by 1 + d each, so sqrt(sigma^2 I_F) moves by d.
    worst = 0.0
    for report in (free_report, ground_report, perturbed_report, diffusion_report):
        product = np.sqrt(report.table["sigma2_measured"] * report.table["fisher"])
        worst = max(worst, float(np.abs(product - 1.0).max()))
    # at D = hbar/2m the bound m D reads hbar/2
    rng = np.random.default_rng(2024)
    closed_form = 0.0
    for _ in range(10):
        hbar = float(rng.uniform(0.05, 20.0))
        mass = float(rng.uniform(0.05, 20.0))
        closed_form = max(closed_form, abs(mass * (hbar / (2 * mass)) - hbar / 2) / (hbar / 2))
    ok = worst < 1e-10 and closed_form < 1e-12
    line = report_line(12, "uncertainty_bound", ok, worst, 1e-10)
    print(f"    closed_form_err={closed_form:.3g} (tol 1e-12)")
    assert worst < 1e-10, line
    assert closed_form < 1e-12, line
