import numpy as np
import pytest
from scipy import integrate as scipy_integrate

from qhydro.cli import _floored_rel

from qhydro import (
    Field,
    DiffusionState,
    EvolutionConfig,
    NumericsError,
    QuantumState,
    action_per_mass,
    boltzmann_entropy,
    density,
    entropy_report,
    evolve,
    fisher_information,
    free_potential,
    gaussian_packet,
    harmonic_potential,
    integrate,
    kernel_log_functional,
    make_grid,
    plane_wave,
    production_advective,
    production_correlation,
    production_diffusive,
    propagate,
    superposition,
    valid_mask,
    von_neumann_entropy,
)

# Independently computed with adaptive double quadrature over the analytic
# fields (see the closed form sqrt(2 pi) * (ln(2 pi) + 2) for the first):
#   static unit Gaussian:            9.620131169219542
#   freely spread to t = 1:          8.174166480468410   (sigma0 = hbar = m = 1)
# These are values of the kernel-log functional, not of the von Neumann
# entropy (which is 0 for both states).  The second value documents that the
# kernel-log functional is NOT constant under unitary evolution: the grid
# estimate must reproduce the continuum value, and the drift between the two
# is real, not a discretization artifact.
VN_GAUSSIAN_STATIC = 9.620131169219542
VN_GAUSSIAN_AT_T1 = 8.17416648


def von_neumann_double_sum(state):
    """O(N^2) reference: the kernel-log double integral summed as written."""
    rho = density(state)
    mask = valid_mask(rho)
    amp = np.where(mask, np.sqrt(rho.values), 0.0)
    s_over_hbar = (state.mass / state.hbar) * action_per_mass(state).values
    aa = np.outer(amp, amp)
    ds = np.subtract.outer(s_over_hbar, s_over_hbar)
    with np.errstate(invalid="ignore", divide="ignore"):
        log_aa = np.where(aa > 0, np.log(np.where(aa > 0, aa, 1.0)), 0.0)
    integrand = -aa * (log_aa * np.cos(ds) + ds * np.sin(ds))
    integrand[~mask, :] = 0.0
    integrand[:, ~mask] = 0.0
    return float(state.grid.dx**2 * integrand.sum())


def gaussian_rho(grid, sigma):
    rho = np.exp(-(grid.x**2) / (2 * sigma**2))
    return Field(grid, rho / (grid.dx * rho.sum()))


def spread_gaussian_state(grid, t, sigma0=1.0):
    """Analytic freely spreading packet (hbar = m = 1).

    sigma^2 = sigma0^2 + (t/2 sigma0)^2, and the stretching rate entering
    the quadratic phase is d(ln sigma)/dt = t / (4 sigma0^2 sigma^2).
    """
    s2 = sigma0**2 + (t / (2 * sigma0)) ** 2
    rate = t / (4 * sigma0**2 * s2)
    return gaussian_packet(grid, np.sqrt(s2), width_rate=rate)


class TestBoltzmannEntropy:
    def test_unit_gaussian_vs_quadrature_oracle(self, grid1024):
        rho_fn = lambda x: np.exp(-(x**2) / 2) / np.sqrt(2 * np.pi)
        oracle, err = scipy_integrate.quad(lambda x: -rho_fn(x) * np.log(rho_fn(x)), -30, 30)
        assert err < 1e-10
        measured = boltzmann_entropy(gaussian_rho(grid1024, 1.0))
        assert abs(measured - oracle) < 1e-9
        assert abs(measured - 0.5 * np.log(2 * np.pi * np.e)) < 1e-9

    def test_width_e_adds_one(self, grid1024):
        base = boltzmann_entropy(gaussian_rho(grid1024, 1.0))
        wide = boltzmann_entropy(gaussian_rho(grid1024, np.e))
        assert abs(wide - base - 1.0) < 1e-9

    def test_uniform_box(self):
        grid = make_grid(10.0, 128)
        rho = Field(grid, np.full(128, 1.0 / 20.0))
        assert abs(boltzmann_entropy(rho) - np.log(20.0)) < 1e-12

    def test_k_B_scales(self, grid1024):
        rho = gaussian_rho(grid1024, 1.0)
        assert np.isclose(boltzmann_entropy(rho, k_B=2.0), 2 * boltzmann_entropy(rho))

    def test_depends_only_on_density(self, grid256):
        # two states with identical rho and different phase
        flat = gaussian_packet(grid256, 1.0)
        moving = gaussian_packet(grid256, 1.0, width_rate=0.4)
        assert np.isclose(
            boltzmann_entropy(density(flat)), boltzmann_entropy(density(moving)), atol=1e-12
        )


class TestProductionAdvective:
    def test_plane_wave_incompressible(self, grid256):
        assert abs(production_advective(plane_wave(grid256, 5))) < 1e-13

    def test_spreading_gaussian_known_rate(self, grid1024):
        state = spread_gaussian_state(grid1024, t=2.0)
        assert abs(production_advective(state) - 0.25) < 1e-9

    def test_zero_at_start(self, grid1024):
        state = spread_gaussian_state(grid1024, t=0.0)
        assert abs(production_advective(state)) < 1e-12


class TestFisherInformation:
    def test_gaussian_inverse_width_squared(self, grid1024):
        # oracle: quadrature of rho * (d ln rho / dx)^2
        for sigma in (1.0, np.sqrt(2.0)):
            rho_fn = lambda x: np.exp(-(x**2) / (2 * sigma**2)) / np.sqrt(2 * np.pi * sigma**2)
            oracle, err = scipy_integrate.quad(
                lambda x: rho_fn(x) * (x / sigma**2) ** 2, -40, 40
            )
            assert err < 1e-9
            measured = fisher_information(gaussian_rho(grid1024, sigma))
            assert abs(measured - oracle) < 1e-9
            assert abs(measured - 1.0 / sigma**2) < 1e-9

    def test_uniform_is_zero(self):
        grid = make_grid(10.0, 128)
        assert fisher_information(Field(grid, np.full(128, 1.0 / 20.0))) == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_nonnegative_for_arbitrary_densities(self, grid256, seed):
        rng = np.random.default_rng(seed)
        bumps = np.zeros(grid256.num_points)
        for _ in range(4):
            c = rng.uniform(-8, 8)
            w = rng.uniform(0.5, 2.0)
            bumps += rng.uniform(0.1, 1.0) * np.exp(-((grid256.x - c) ** 2) / (2 * w**2))
        rho = Field(grid256, bumps / (grid256.dx * bumps.sum()))
        assert fisher_information(rho) >= 0.0

    def test_cramer_rao_bound_is_strict_off_a_gaussian(self, grid1024):
        # variance * Fisher >= 1, with equality only for a Gaussian: the measured
        # reading of the bound l_x p_x >= m D (criterion 12).  Two counter-
        # propagating packets (hbar = m = 1) sit far above it before, between
        # and at their collision (t = 2.1), where the density has nodes.
        x = grid1024.x

        def product(state):
            rho = density(state)
            mean = integrate(Field(grid1024, x * rho.values))
            return integrate(Field(grid1024, (x - mean) ** 2 * rho.values)) * fisher_information(rho)

        psi = np.exp(-((x - 6) ** 2) / 4 - 3j * x) + np.exp(-((x + 6) ** 2) / 4 + 3j * x)
        state = QuantumState(Field(grid1024, psi / np.sqrt(integrate(Field(grid1024, np.abs(psi) ** 2)))))
        snapshots = propagate(state, free_potential(), EvolutionConfig(1.05, 2.1, 1))
        products = [product(snapshot) for snapshot in snapshots]
        np.testing.assert_allclose(products, [37.0, 11.476, 62.715], rtol=1e-4)
        assert abs(product(gaussian_packet(grid1024, 1.0)) - 1.0) < 1e-10


class TestProductionDiffusive:
    def test_similarity_profile_rate(self, grid1024):
        # sigma^2 = 2 D t: rate = 1/(2t) = 0.5 at t = 1, D = 0.5
        rho = gaussian_rho(grid1024, 1.0)
        assert abs(production_diffusive(rho, D=0.5) - 0.5) < 1e-9

    def test_uniform_is_zero(self):
        grid = make_grid(10.0, 128)
        rho = Field(grid, np.full(128, 1.0 / 20.0))
        assert production_diffusive(rho, D=0.5) == 0.0

    def test_scales_with_diffusivity(self, grid1024):
        rho = gaussian_rho(grid1024, 1.0)
        assert abs(production_diffusive(rho, D=0.25) - 0.25) < 1e-9

    def test_nonnegative_always(self, grid256):
        rng = np.random.default_rng(7)
        bumps = 0.05 + np.abs(np.sin(3 * grid256.x / grid256.half_width * np.pi))
        rho = Field(grid256, bumps / (grid256.dx * bumps.sum()))
        assert production_diffusive(rho, D=rng.uniform(0.1, 2.0)) >= 0.0


class TestProductionCorrelation:
    def test_real_state_no_flow(self, unit_gaussian):
        assert abs(production_correlation(unit_gaussian)) < 1e-12

    def test_plane_wave_no_drift(self, grid256):
        assert abs(production_correlation(plane_wave(grid256, 4))) < 1e-13

    def test_equals_advective_on_spreading_gaussian(self, grid1024):
        state = spread_gaussian_state(grid1024, t=2.0)
        corr = production_correlation(state)
        adv = production_advective(state)
        assert abs(corr - 0.25) < 1e-9
        assert abs(corr - adv) < 1e-9

    @pytest.mark.parametrize(
        "make_state",
        [
            lambda g: spread_gaussian_state(g, 1.3),
            lambda g: gaussian_packet(g, 1.2, width_rate=-0.2),
            lambda g: superposition(g, [(1, 1.0), (2, 0.7), (4, 0.2j)]),
            lambda g: superposition(g, [(0, 1.0), (3, 0.5)]),
        ],
    )
    def test_integration_by_parts_identity(self, grid1024, make_state):
        # the two production routes agree to rounding in the spectral
        # quadrature; rates below 1e-3 are compared with that floor
        state = make_state(grid1024)
        adv = production_advective(state)
        corr = production_correlation(state)
        assert abs(adv - corr) / max(abs(adv), abs(corr), 1e-3) < 1e-6


class TestVonNeumannEntropy:
    def test_reduction_identity_for_real_state(self, grid256):
        # with constant phase the double integral collapses to
        # -2 (int a)(int a ln a), a = sqrt(rho), over the same valid set
        state = gaussian_packet(grid256, 1.0)
        full = kernel_log_functional(state)
        rho = density(state)
        mask = valid_mask(rho)
        a = np.sqrt(rho.values[mask])
        int_a = grid256.dx * a.sum()
        int_alna = grid256.dx * (a * np.log(a)).sum()
        assert abs(full - (-2.0 * int_a * int_alna)) < 1e-8

    def test_static_gaussian_matches_oracle(self, grid256):
        value = kernel_log_functional(gaussian_packet(grid256, 1.0))
        assert abs(value - VN_GAUSSIAN_STATIC) / VN_GAUSSIAN_STATIC < 1e-4

    def test_separable_form_matches_double_sum_under_evolution(self, grid256):
        # the snapshots of acceptance criterion 9
        state = gaussian_packet(grid256, 1.0)
        snaps = evolve(state, free_potential(), EvolutionConfig(1e-3, 2.0, 250))
        for snap in snaps:
            oracle = von_neumann_double_sum(snap)
            assert abs(kernel_log_functional(snap) - oracle) <= 1e-12 * abs(oracle)

    def test_separable_form_matches_double_sum_with_flow(self):
        state = gaussian_packet(make_grid(20.0, 512), 1.0, width_rate=0.3, center=0.7)
        oracle = von_neumann_double_sum(state)
        assert abs(kernel_log_functional(state) - oracle) <= 1e-12 * abs(oracle)

    def test_global_phase_invariance(self, grid256):
        state = gaussian_packet(grid256, 1.0, width_rate=0.2)
        rotated = QuantumState(Field(grid256, np.exp(0.9j) * state.psi.values))
        a = kernel_log_functional(state)
        b = kernel_log_functional(rotated)
        assert abs(a - b) < 1e-8 * abs(a)

    def test_reflection_invariance(self, grid256):
        state = gaussian_packet(grid256, 1.0, width_rate=0.3, center=1.5)
        values = state.psi.values
        reflected = QuantumState(Field(grid256, np.roll(values[::-1], 1)))
        a = kernel_log_functional(state)
        b = kernel_log_functional(reflected)
        assert abs(a - b) < 1e-8 * abs(a)

    def test_tracks_continuum_value_under_evolution(self, grid256):
        # the functional drifts under free evolution; the grid estimate must
        # follow the independently computed continuum value, which pins the
        # drift on the functional itself rather than on discretization
        state = gaussian_packet(grid256, 1.0)
        snaps = evolve(state, free_potential(), EvolutionConfig(1e-3, 1.0, 1000))
        value = kernel_log_functional(snaps[-1])
        assert abs(value - VN_GAUSSIAN_AT_T1) / VN_GAUSSIAN_AT_T1 < 1e-4

    def test_boost_leaves_von_neumann_entropy_only(self, grid256):
        # a boost psi -> exp(i k0 x) psi is unitary and keeps rho(x): the von
        # Neumann entropy stays 0, the kernel-log functional moves by ~8
        state = gaussian_packet(grid256, 1.0)
        boosted = QuantumState(Field(grid256, np.exp(0.5j * grid256.x) * state.psi.values))
        assert abs(von_neumann_entropy(state)) < 1e-12
        assert abs(von_neumann_entropy(boosted)) < 1e-12
        assert kernel_log_functional(state) - kernel_log_functional(boosted) > 8.0


class TestEntropyReport:
    def test_harmonic_ground_state(self):
        grid = make_grid(12.0, 256)
        s0 = np.sqrt(0.5)
        report = entropy_report(gaussian_packet(grid, s0))
        assert abs(report.production_advective) < 1e-10
        assert abs(report.production_correlation) < 1e-10
        assert abs(report.ent_boltzmann - np.log(s0 * np.sqrt(2 * np.pi * np.e))) < 1e-9
        assert abs(report.ent_von_neumann) < 1e-12  # a pure state

    def test_spreading_gaussian(self, grid1024):
        report = entropy_report(spread_gaussian_state(grid1024, 2.0))
        assert abs(report.production_advective - 0.25) < 1e-9
        assert abs(report.production_correlation - 0.25) < 1e-9

    def test_diffusion_state_fields(self, grid1024):
        state = DiffusionState(gaussian_rho(grid1024, 1.0), D=0.5, time=1.0)
        report = entropy_report(state)
        assert report.production_advective is None
        assert report.production_correlation is None
        assert abs(report.production_diffusive - 0.5) < 1e-9
        assert report.fisher_information >= 0.0

    def test_von_neumann_always_reported(self, grid256):
        state = gaussian_packet(grid256, 1.0)
        assert entropy_report(state).ent_von_neumann == von_neumann_entropy(state)

    def test_diffusion_report_matches_standalone_bitwise(self, grid1024):
        state = DiffusionState(gaussian_rho(grid1024, 1.3), D=0.7, time=0.5)
        report = entropy_report(state, k_B=2.0)
        assert report.ent_boltzmann == boltzmann_entropy(state.rho, 2.0)
        assert report.fisher_information == fisher_information(state.rho)
        assert report.production_diffusive == production_diffusive(state.rho, 0.7, 2.0)

    def test_non_finite_value_is_a_numeric_abort(self, unit_gaussian):
        with pytest.raises(NumericsError, match="non-finite"):
            entropy_report(unit_gaussian, k_B=np.inf)


def _perturbed_trap_snapshot():
    # the harmonic_perturbed default grid and width, one breathing period in
    grid = make_grid(12.0, 256)
    s0 = np.sqrt(0.5)
    state = gaussian_packet(grid, s0 + 0.01 * s0)
    return propagate(state, harmonic_potential(1.0), EvolutionConfig(2e-4, 1.1, 5500))[-1]


@pytest.mark.parametrize(
    "make_state",
    [
        lambda: gaussian_packet(make_grid(20.0, 256), 1.0),
        lambda: gaussian_packet(make_grid(20.0, 512), 1.0, width_rate=0.3),
        _perturbed_trap_snapshot,
    ],
    ids=["unit_gaussian", "width_rate_0.3_N512", "harmonic_perturbed"],
)
def test_quantum_report_matches_standalone_functions(make_state):
    """The psi'/psi row path agrees with the independent per-quantity functions."""
    state = make_state()
    k_B = 1.5
    report = entropy_report(state, k_B)
    rho = density(state)
    half = state.hbar / (2 * state.mass)
    expected = {
        "ent_boltzmann": boltzmann_entropy(rho, k_B),
        "fisher_information": fisher_information(rho),
        "production_diffusive": production_diffusive(rho, half, k_B),
        "production_advective": production_advective(state, k_B),
        "production_correlation": production_correlation(state, k_B),
        "ent_von_neumann": von_neumann_entropy(state),
    }
    for name, value in expected.items():
        assert _floored_rel(getattr(report, name), value) <= 1e-12, name
    assert report.k_B == k_B
