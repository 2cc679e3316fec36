import numpy as np
import pytest

from qhydro import (
    Field,
    DiffusionState,
    NumericsError,
    QuantumState,
    boltzmann_entropy,
    diffuse_step,
    diffusive_acceleration,
    diffusive_bohm_force,
    entropy_equation_residual,
    evolve,
    EvolutionConfig,
    fokker_planck_residual,
    free_potential,
    gaussian_density,
    gaussian_packet,
    integrate,
    make_grid,
    plane_wave,
)


@pytest.fixture()
def spreading(grid1024):
    # similarity profile sigma^2 = 2 D t at t = 0.5 with D = 0.5
    return gaussian_density(grid1024, np.sqrt(0.5), D=0.5, time=0.5)


class TestDiffuseStep:
    def test_uniform_density_unchanged(self):
        grid = make_grid(10.0, 64)
        rho = Field(grid, np.full(64, 1.0 / 20.0))
        state = DiffusionState(rho, D=0.5)
        out = diffuse_step(state, 0.3)
        assert np.abs(out.rho.values - rho.values).max() < 1e-15

    def test_gaussian_stays_gaussian(self, grid1024):
        state = gaussian_density(grid1024, 1.0, D=0.5)
        out = diffuse_step(state, 1.0)
        s2 = 1.0 + 2 * 0.5 * 1.0
        expected = np.exp(-(grid1024.x**2) / (2 * s2)) / np.sqrt(2 * np.pi * s2)
        assert np.abs(out.rho.values - expected).max() < 1e-14
        i0 = grid1024.num_points // 2
        assert abs(out.rho.values[i0] - 1.0 / np.sqrt(4 * np.pi)) < 1e-14

    def test_second_moment_by_quadrature(self, grid1024):
        state = gaussian_density(grid1024, 1.0, D=0.5)
        out = diffuse_step(state, 1.0)
        s2 = integrate(Field(grid1024, grid1024.x**2 * out.rho.values))
        assert abs(s2 - 2.0) < 1e-12

    def test_mass_exactly_conserved(self, grid1024):
        state = gaussian_density(grid1024, 1.0, D=0.5)
        for _ in range(5):
            state = diffuse_step(state, 0.25)
        assert abs(integrate(state.rho) - 1.0) < 1e-14

    def test_semigroup_property(self, grid1024):
        state = gaussian_density(grid1024, 1.0, D=0.5)
        two_steps = diffuse_step(diffuse_step(state, 0.3), 0.7)
        one_step = diffuse_step(state, 1.0)
        assert np.abs(two_steps.rho.values - one_step.rho.values).max() < 1e-12

    def test_entropy_never_decreases(self, grid1024):
        state = gaussian_density(grid1024, 1.0, D=0.5)
        previous = boltzmann_entropy(state.rho)
        for _ in range(20):
            state = diffuse_step(state, 0.05)
            current = boltzmann_entropy(state.rho)
            assert current - previous >= -1e-12
            previous = current

    def test_entropy_rate_matches_production_tightly(self, spreading):
        # with the exact kernel the centered-difference entropy rate agrees
        # with D * Fisher to the quadrature floor once the snapshot spacing
        # is tight enough that the O(dt^2) differencing error is negligible
        tau = 2e-4
        before = diffuse_step(spreading, (1.0 - tau) - spreading.time)
        mid = diffuse_step(before, tau)
        after = diffuse_step(before, 2 * tau)
        rate = (boltzmann_entropy(after.rho) - boltzmann_entropy(before.rho)) / (2 * tau)
        from qhydro import production_diffusive

        production = production_diffusive(mid.rho, D=0.5)
        assert abs(rate - production) / production < 1e-6

    def test_bad_dt_rejected(self, spreading):
        with pytest.raises(ValueError):
            diffuse_step(spreading, 0.0)

    def test_unresolved_spike_aborts(self):
        grid = make_grid(10.0, 128)
        rho = np.zeros(128)
        rho[64] = 1.0 / grid.dx  # delta spike, far narrower than the kernel
        state = DiffusionState(Field(grid, rho), D=0.5)
        with pytest.raises(NumericsError, match="negative"):
            diffuse_step(state, 1e-4)

    def test_state_validation(self, grid1024):
        good = np.exp(-(grid1024.x**2) / 2)
        good /= grid1024.dx * good.sum()
        with pytest.raises(ValueError):
            DiffusionState(Field(grid1024, good), D=-1.0)
        with pytest.raises(ValueError):
            DiffusionState(Field(grid1024, 2 * good), D=0.5)
        with pytest.raises(ValueError):
            DiffusionState(Field(grid1024, -good), D=0.5)

    def test_complex_values_rejected(self, grid1024):
        good = np.exp(-(grid1024.x**2) / 2)
        good /= grid1024.dx * good.sum()
        with pytest.raises(TypeError):
            DiffusionState(Field(grid1024, good.astype(complex)), D=0.5)


class TestDiffusiveAcceleration:
    def test_similarity_profile_value(self, spreading):
        # D_d u_d / Dt = -x / 4 t^2 on the sigma^2 = 2 D t profile,
        # bracketing t = 1 symmetrically
        tau = 0.01
        before = diffuse_step(spreading, (1.0 - tau) - spreading.time)
        after = diffuse_step(before, 2 * tau)
        accel = diffusive_acceleration(before, after)
        grid = spreading.grid
        band = before.rho.values >= 1e-6 * before.rho.values.max()
        target = -grid.x / 4.0
        assert np.abs(accel.values[band] - target[band]).max() < 1e-3

    def test_zero_at_center(self, spreading):
        before = diffuse_step(spreading, 0.49)
        after = diffuse_step(before, 0.02)
        accel = diffusive_acceleration(before, after)
        i0 = spreading.grid.num_points // 2
        assert abs(accel.values[i0]) < 1e-9

    def test_matches_bohm_force_on_conditioned_band(self, spreading):
        tau = 0.01
        before = diffuse_step(spreading, (1.0 - tau) - spreading.time)
        after = diffuse_step(before, 2 * tau)
        mid = diffuse_step(before, tau)
        accel = diffusive_acceleration(before, after)
        force = diffusive_bohm_force(mid.rho, D=0.5)
        band = mid.rho.values >= 1e-8 * mid.rho.values.max()
        assert np.abs(accel.values[band] - force.values[band]).max() < 1e-3

    def test_time_ordering_enforced(self, spreading):
        later = diffuse_step(spreading, 0.1)
        with pytest.raises(ValueError):
            diffusive_acceleration(later, spreading)

    def test_mismatched_snapshots_rejected(self, spreading):
        other_grid = make_grid(10.0, 128)
        other = gaussian_density(other_grid, 1.0, D=0.5, time=1.0)
        with pytest.raises(ValueError, match="grids"):
            diffusive_acceleration(spreading, other)
        different_d = DiffusionState(diffuse_step(spreading, 0.1).rho, D=0.25, time=1.0)
        with pytest.raises(ValueError, match="diffusivities"):
            diffusive_acceleration(spreading, different_d)


class TestFokkerPlanckResidual:
    def test_resolved_gaussian_near_zero(self, grid1024):
        state = gaussian_packet(grid1024, 1.0)
        snaps = evolve(state, free_potential(), EvolutionConfig(1e-3, 1.0, 1000))
        r = fokker_planck_residual(snaps[-1])
        assert np.abs(r.values).max() < 1e-8

    def test_plane_wave_exactly_zero(self, grid256):
        r = fokker_planck_residual(plane_wave(grid256, 3))
        assert np.abs(r.values).max() < 1e-12

    def test_under_resolved_grid_degrades(self):
        # reported, not asserted against a tolerance: the residual on an
        # 8-point grid must exceed the resolved one by orders of magnitude
        coarse = make_grid(10.0, 8)
        r_coarse = fokker_planck_residual(gaussian_packet(coarse, 1.0))
        fine = make_grid(10.0, 256)
        r_fine = fokker_planck_residual(gaussian_packet(fine, 1.0))
        assert np.all(np.isfinite(r_coarse.values))
        assert np.abs(r_coarse.values).max() > 100 * np.abs(r_fine.values).max()


class TestEntropyEquationResidual:
    def test_free_gaussian_small(self, grid1024):
        state = gaussian_packet(grid1024, 1.0)
        snaps = evolve(state, free_potential(), EvolutionConfig(1e-3, 1.001, 1))
        r = entropy_equation_residual(snaps[-2], snaps[-1])
        assert np.abs(r.values).max() < 1e-4

    def test_harmonic_ground_state_residual_tiny(self):
        from qhydro import harmonic_potential

        grid = make_grid(12.0, 256)
        state = gaussian_packet(grid, np.sqrt(0.5))
        snaps = evolve(state, harmonic_potential(1.0), EvolutionConfig(1e-4, 2e-4, 1))
        r = entropy_equation_residual(snaps[0], snaps[-1])
        assert np.abs(r.values).max() < 1e-8

    def test_static_real_state_exactly_balanced(self, grid256):
        # same real positive profile at two times: ds/dt = 0 and u_a = 0,
        # so every term vanishes identically
        psi = gaussian_packet(grid256, 1.0).psi
        before = QuantumState(psi, time=0.0)
        after = QuantumState(Field(grid256, psi.values.copy()), time=1e-3)
        r = entropy_equation_residual(before, after)
        assert np.abs(r.values).max() < 1e-12
