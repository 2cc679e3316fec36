import numpy as np
import pytest
from scipy import integrate as scipy_integrate

from qhydro import (
    EvolutionConfig,
    Potential,
    advective_velocity,
    density,
    energy,
    evolve,
    free_potential,
    gaussian_packet,
    harmonic_potential,
    integrate,
    make_grid,
    plane_wave,
    propagate,
    step,
    superposition,
)
from qhydro.grid import Field
from qhydro.traces import dominant_mode


@pytest.fixture(scope="module")
def trap_grid():
    # harmonic trap scenarios: ground width sqrt(0.5) decays well inside L=12
    return make_grid(12.0, 256)


class TestStep:
    def test_plane_wave_phase_advance(self, grid256):
        state = plane_wave(grid256, 6)
        k = 6 * np.pi / grid256.half_width
        dt = 1e-2
        stepped = step(state, free_potential(), dt)
        expected = state.psi.values * np.exp(-1j * k**2 * dt / 2)
        assert np.abs(stepped.psi.values - expected).max() < 1e-13
        assert np.abs(np.abs(stepped.psi.values) - np.abs(state.psi.values)).max() < 1e-14
        assert stepped.time == dt

    def test_harmonic_ground_state_stationary(self, trap_grid):
        # the split propagator's stationary width differs from the true one
        # by O(dt^2/48), so dt = 1e-4 keeps the density pinned to 1e-10
        state = gaussian_packet(trap_grid, np.sqrt(0.5))
        rho0 = density(state).values
        pot = harmonic_potential(1.0)
        for _ in range(2000):
            state = step(state, pot, 1e-4)
        assert np.abs(density(state).values - rho0).max() < 1e-10

    def test_free_gaussian_spreads_to_known_width(self, grid1024):
        state = gaussian_packet(grid1024, 1.0)
        pot = free_potential()
        for _ in range(2000):
            state = step(state, pot, 1e-3)
        rho = density(state)
        s2 = integrate(Field(grid1024, grid1024.x**2 * rho.values))
        assert abs(s2 - 2.0) / 2.0 < 1e-3

    def test_under_resolved_dt_warns(self, grid256):
        state = plane_wave(grid256, 1)
        with pytest.warns(UserWarning, match="kinetic phase"):
            step(state, free_potential(), 10.0)


class TestEvolve:
    def test_zero_duration_returns_input(self, unit_gaussian):
        snaps = evolve(unit_gaussian, free_potential(), EvolutionConfig(1e-3, 0.0))
        assert len(snaps) == 1
        assert snaps[0] is unit_gaussian

    def test_free_gaussian_width_trace(self, grid1024):
        state = gaussian_packet(grid1024, 1.0)
        snaps = evolve(state, free_potential(), EvolutionConfig(1e-3, 4.0, snapshot_stride=500))
        for snap in snaps:
            rho = density(snap)
            s2 = integrate(Field(grid1024, grid1024.x**2 * rho.values))
            ref = 1.0 + (snap.time / 2.0) ** 2
            assert abs(s2 - ref) / ref < 1e-3

    def test_final_time_lands_on_target(self, unit_gaussian):
        snaps = evolve(unit_gaussian, free_potential(), EvolutionConfig(1e-3, 0.01005, 3))
        assert abs(snaps[-1].time - 0.01005) <= 1e-3 / 2

    def test_perturbed_trap_breathes_at_twice_the_frequency(self, trap_grid):
        # exact oscillator oracle: a Gaussian of width s in a trap has
        # <x^2>(t) = s^2 cos^2(w t) + (s0^4/s^2) sin^2(w t), an oscillation
        # at exactly 2w; the recorded trace must match it and peak there
        w0, s0 = 1.0, np.sqrt(0.5)
        s_init = s0 * 1.01
        state = gaussian_packet(trap_grid, s_init)
        period = 2 * np.pi / w0
        # stride 8 divides round(5 * period / dt) = 31416 steps, keeping the
        # snapshot spacing uniform for the spectral peak estimate
        snaps = evolve(state, harmonic_potential(w0), EvolutionConfig(1e-3, 5 * period, 8))
        times = np.array([s.time for s in snaps])
        s2 = np.array(
            [integrate(Field(trap_grid, trap_grid.x**2 * density(s).values)) for s in snaps]
        )
        oracle = s_init**2 * np.cos(w0 * times) ** 2 + (s0**4 / s_init**2) * np.sin(w0 * times) ** 2
        assert np.abs(s2 - oracle).max() / s2.mean() < 1e-3
        omega, _ = dominant_mode(times, s2)
        assert abs(omega - 2 * w0) / (2 * w0) < 0.01


class TestPropagate:
    def test_free_plane_wave_analytic_phase(self, grid256):
        state = plane_wave(grid256, 6)
        k = 6 * np.pi / grid256.half_width
        snaps = propagate(state, free_potential(), EvolutionConfig(1e-2, 1.0, 25))
        assert [s.time for s in snaps] == [0.0, 0.25, 0.5, 0.75, 1.0]
        for snap in snaps:
            expected = state.psi.values * np.exp(-1j * k**2 * snap.time / 2)
            assert np.abs(snap.psi.values - expected).max() < 1e-13

    def test_split_step_converges_to_exact(self, trap_grid):
        # Strang stepping is an independent reference: its distance to the
        # exact propagator must fall as dt^2
        state = gaussian_packet(trap_grid, np.sqrt(0.5) * 1.05)
        pot = harmonic_potential(1.0)
        t_final = 2.0
        exact = propagate(state, pot, EvolutionConfig(t_final / 2048, t_final, 512))
        errs = []
        for n in (2048, 4096, 8192):
            split = evolve(state, pot, EvolutionConfig(t_final / n, t_final, n // 4))
            assert [s.time for s in split] == [s.time for s in exact]
            errs.append(np.abs(split[-1].psi.values - exact[-1].psi.values).max())
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        assert all(3.0 < r < 5.0 for r in ratios)

    def test_snapshot_steps(self):
        assert EvolutionConfig(1e-3, 0.0).snapshot_steps() == [0]
        assert EvolutionConfig(1e-3, 0.009, 3).snapshot_steps() == [0, 3, 6, 9]
        assert EvolutionConfig(1e-3, 0.01005, 3).snapshot_steps() == [0, 3, 6, 9, 10]


class TestEnergy:
    def test_plane_wave_eigenvalue(self, grid256):
        state = plane_wave(grid256, 4, mass=2.0)
        k = 4 * np.pi / grid256.half_width
        assert abs(energy(state, free_potential()) - k**2 / 4.0) < 1e-12

    def test_harmonic_ground_state_energy(self, trap_grid):
        # oracle: adaptive quadrature of (1/2)(psi')^2 + U psi^2 with the
        # analytic normalized ground-state profile
        s0 = np.sqrt(0.5)
        norm = (2 * np.pi * s0**2) ** (-0.25)
        psi = lambda x: norm * np.exp(-(x**2) / (4 * s0**2))
        dpsi = lambda x: -x / (2 * s0**2) * psi(x)
        oracle, err = scipy_integrate.quad(
            lambda x: 0.5 * dpsi(x) ** 2 + 0.5 * x**2 * psi(x) ** 2, -20, 20
        )
        assert err < 1e-10
        e = energy(gaussian_packet(trap_grid, s0), harmonic_potential(1.0))
        assert abs(e - oracle) < 1e-8
        assert abs(e - 0.5) < 1e-8

    def test_energy_constant_along_run(self, trap_grid):
        state = gaussian_packet(trap_grid, np.sqrt(0.5) * 1.03)
        pot = harmonic_potential(1.0)
        snaps = evolve(state, pot, EvolutionConfig(1e-3, 3.0, 300))
        e = [energy(s, pot) for s in snaps]
        assert max(abs(v - e[0]) for v in e) / abs(e[0]) < 1e-5


class TestConservationAndAccuracy:
    def test_norm_conserved(self, trap_grid):
        state = gaussian_packet(trap_grid, np.sqrt(0.5) * 0.97)
        snaps = evolve(state, harmonic_potential(1.0), EvolutionConfig(1e-3, 5.0, 500))
        for snap in snaps:
            assert abs(integrate(density(snap)) - 1.0) < 1e-10

    def test_time_reversal_roundtrip(self, grid1024):
        state = gaussian_packet(grid1024, 1.0)
        pot = free_potential()
        forward = state
        for _ in range(1000):
            forward = step(forward, pot, 1e-3)
        back = forward
        for _ in range(1000):
            back = step(back, pot, -1e-3)
        assert np.abs(back.psi.values - state.psi.values).max() < 1e-8
        assert abs(back.time) < 1e-12

    def test_second_order_convergence_in_dt(self, trap_grid):
        # the free kinetic factor alone is exact, so convergence is probed
        # in the trap where the kinetic/potential split does not commute
        state = gaussian_packet(trap_grid, np.sqrt(0.5) * 1.05)
        pot = harmonic_potential(1.0)
        t_final = 2.0

        def final_psi(n):
            snaps = evolve(state, pot, EvolutionConfig(t_final / n, t_final, n))
            return snaps[-1].psi.values

        ref = final_psi(65536)
        errs = [np.abs(final_psi(n) - ref).max() for n in (2048, 4096, 8192)]
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        assert all(3.0 < r < 5.0 for r in ratios)


class TestBuildersAndValidation:
    def test_plane_wave_normalized(self, grid256):
        assert abs(integrate(density(plane_wave(grid256, 2))) - 1.0) < 1e-12

    def test_plane_wave_mode_out_of_range(self, grid256):
        with pytest.raises(ValueError):
            plane_wave(grid256, grid256.num_points)

    def test_plane_wave_negative_mode(self, grid256):
        state = plane_wave(grid256, -3)
        k = -3 * np.pi / grid256.half_width
        v = step(state, free_potential(), 1e-3)
        expected = state.psi.values * np.exp(-1j * k**2 * 1e-3 / 2)
        assert np.abs(v.psi.values - expected).max() < 1e-13

    def test_superposition_interferes(self, grid256):
        state = superposition(grid256, [(1, 1.0), (3, 0.5j)])
        rho = density(state)
        assert abs(integrate(rho) - 1.0) < 1e-12
        assert rho.values.std() > 1e-3  # not a uniform density

    def test_gaussian_width_rate_sets_velocity(self, grid256):
        rate = 0.3
        state = gaussian_packet(grid256, 1.0, width_rate=rate)
        u = advective_velocity(state)
        band = density(state).values >= 1e-6 * density(state).values.max()
        assert np.abs(u.values[band] - rate * grid256.x[band]).max() < 1e-7

    def test_evolution_config_validation(self):
        with pytest.raises(ValueError):
            EvolutionConfig(-1e-3, 1.0)
        with pytest.raises(ValueError):
            EvolutionConfig(1e-3, -1.0)
        with pytest.raises(ValueError):
            EvolutionConfig(1e-3, 1.0, 0)

    def test_potential_validation(self):
        with pytest.raises(ValueError):
            harmonic_potential(-1.0)
        with pytest.raises(ValueError, match="unknown potential kind"):
            Potential("tabulated")
