from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate as scipy_integrate

from qhydro import (
    EvolutionConfig,
    GaussianParams,
    action_per_mass,
    advective_velocity,
    bohm_potential,
    density,
    diffuse_step,
    diffusive_acceleration,
    diffusive_velocity,
    free_divergence,
    free_entropy,
    free_potential,
    free_sigma,
    gaussian_density,
    gaussian_packet,
    harmonic_ground_width,
    harmonic_potential,
    harmonic_sigma,
    make_grid,
    production_diffusive,
    propagate,
)
from qhydro.analytic import diffusive_sigma2

ENT0 = 0.5 * np.log(2 * np.pi * np.e)  # 1.4189385332046727 for sigma = 1


@pytest.fixture()
def free_params():
    return GaussianParams(sigma0=1.0)


@pytest.fixture(scope="module")
def packet_grid():
    # x = 0, 0.75, 1.75, 2 and 2.5 are grid points
    return make_grid(16.0, 256)


@pytest.fixture(scope="module")
def heat_grid():
    # x = 0 and 1 are grid points
    return make_grid(16.0, 512)


def at_x(grid, x):
    (j,) = np.flatnonzero(grid.x == x)
    return int(j)


def propagate_to(state, potential, t):
    """The exact snapshot at time t: one step of dt = t."""
    return propagate(state, potential, EvolutionConfig(t, t))[-1]


@pytest.fixture()
def trap_params():
    s0 = harmonic_ground_width(GaussianParams(sigma0=1.0, omega0=1.0))
    return GaussianParams(sigma0=s0, omega0=1.0, epsilon0=0.01 * s0)


class TestFreeFamily:
    def test_sigma_initial(self, free_params):
        assert free_sigma(free_params, 0.0) == 1.0

    def test_sigma_at_two(self, free_params):
        assert abs(free_sigma(free_params, 2.0) - np.sqrt(2.0)) < 1e-14

    def test_sigma_asymptote(self, free_params):
        # the relative gap to the ballistic asymptote t/(2 sigma0) closes
        # as 2 sigma0^4 (2m/hbar)^2 / t^2; at t = 1e3 that is 2e-6
        t = 1e3
        gap = abs(free_sigma(free_params, t) - t / 2.0) / (t / 2.0)
        assert abs(gap - 2.0 / t**2) < 1e-9
        t = 3e3
        assert abs(free_sigma(free_params, t) - t / 2.0) / (t / 2.0) < 1e-6

    def test_entropy_initial_vs_quadrature(self, free_params):
        rho = lambda x: np.exp(-(x**2) / 2) / np.sqrt(2 * np.pi)
        oracle, _ = scipy_integrate.quad(lambda x: -rho(x) * np.log(rho(x)), -30, 30)
        assert abs(free_entropy(free_params, 0.0) - oracle) < 1e-10
        assert abs(free_entropy(free_params, 0.0) - ENT0) < 1e-12

    def test_entropy_at_two(self, free_params):
        # direct evaluation: Ent0 + (1/2) ln(1 + (t/2)^2) at t = 2
        assert abs(free_entropy(free_params, 2.0) - (ENT0 + 0.5 * np.log(2.0))) < 1e-12
        assert abs(free_entropy(free_params, 2.0) - 1.7655121234846454) < 1e-12

    def test_entropy_monotone_in_abs_time(self, free_params):
        ts = [0.0, 0.3, 1.0, 2.5, 7.0]
        vals = [free_entropy(free_params, t) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert free_entropy(free_params, -2.0) == free_entropy(free_params, 2.0)

    def test_divergence_values(self, free_params):
        assert free_divergence(free_params, 0.0) == 0.0
        assert abs(free_divergence(free_params, 2.0) - 0.25) < 1e-14
        # late-time decay 1/t, approached as 1 - (2m sigma0^2/hbar)^2/t^2
        t = 1e3
        gap = abs(free_divergence(free_params, t) - 1.0 / t) * t
        assert abs(gap - 4.0 / t**2) < 1e-9
        t = 3e3
        assert abs(free_divergence(free_params, t) - 1.0 / t) / (1.0 / t) < 1e-6

    def test_entropy_sigma_consistency(self, free_params):
        for t in (0.5, 1.0, 3.0):
            lhs = free_entropy(free_params, t) - free_entropy(free_params, 0.0)
            rhs = np.log(free_sigma(free_params, t) / free_params.sigma0)
            assert abs(lhs - rhs) < 1e-13

    def test_entropy_rate_is_divergence(self, free_params):
        h = 1e-5
        for t in (0.3, 1.0, 2.0, 5.0):
            rate = (free_entropy(free_params, t + h) - free_entropy(free_params, t - h)) / (2 * h)
            assert abs(rate - free_divergence(free_params, t)) < 1e-8


class TestHarmonicWidthEquation:
    def test_ground_width(self):
        p = GaussianParams(sigma0=1.0, omega0=2.0, hbar=1.0, mass=1.0)
        assert abs(harmonic_ground_width(p) - 0.5) < 1e-15

    def test_stationary_at_ground_width(self, trap_params):
        t = np.linspace(0.0, 5 * 2 * np.pi, 2001)
        trace = harmonic_sigma(replace(trap_params, epsilon0=None), t)
        s0 = harmonic_ground_width(trap_params)
        assert np.abs(trace.sigma - s0).max() < 1e-10

    def test_linearized_cosine(self, trap_params):
        s0 = harmonic_ground_width(trap_params)
        eps = trap_params.epsilon0
        t_final = 5 * 2 * np.pi / (np.sqrt(2) * trap_params.omega0)
        t = np.linspace(0.0, t_final, 4001)
        trace = harmonic_sigma(trap_params, t)
        linearized = s0 + eps * np.cos(np.sqrt(2) * trap_params.omega0 * t)
        assert np.abs(trace.sigma - linearized).max() < 1e-4 * s0

    def test_step_halving_converged(self, trap_params):
        # grid spacings of 1e-3 and 5e-4, below the 2e-3/omega0 cap, are the RK4 steps
        t = np.linspace(0.0, 10.0, 10001)
        coarse = harmonic_sigma(trap_params, t)
        t_fine = np.linspace(0.0, 10.0, 20001)
        fine = harmonic_sigma(trap_params, t_fine)
        assert np.abs(fine.sigma[::2] - coarse.sigma).max() < 1e-8

    def test_short_last_interval_matches_the_fine_trace(self, trap_params):
        # snapshot clocks are arange-built strides and a shorter last interval: 37
        # intervals of 0.0662 (34 steps each), then one of 0.0144 (8 steps), against
        # the trace stepped at 2e-4 through every time of the clock
        dt, stride, n = 2e-4, 331, 12319
        fine_t = np.arange(n + 1) * dt
        fine = harmonic_sigma(trap_params, fine_t)
        rows = [*range(0, n, stride), n]
        trace = harmonic_sigma(trap_params, fine_t[rows])
        assert np.abs(trace.sigma - fine.sigma[rows]).max() <= 1e-12
        assert np.abs(trace.dlnsigma_dt - fine.dlnsigma_dt[rows]).max() <= 1e-12

    def test_first_integral_conserved(self, trap_params):
        # v^2 + w0^2 s^2 - 2 w0^2 s0^2 ln s is exactly conserved by the
        # integrated equation; RK4 must hold it far below 1e-8
        t = np.linspace(0.0, 5 * 2 * np.pi, 2001)
        trace = harmonic_sigma(trap_params, t)
        s0 = harmonic_ground_width(trap_params)
        w0 = trap_params.omega0
        v = trace.dlnsigma_dt * trace.sigma
        invariant = v**2 + w0**2 * trace.sigma**2 - 2 * w0**2 * s0**2 * np.log(trace.sigma)
        drift = (invariant.max() - invariant.min()) / abs(invariant[0])
        assert drift < 1e-8

    def test_needs_omega0(self):
        p = GaussianParams(sigma0=1.0)
        with pytest.raises(ValueError):
            harmonic_sigma(p, np.linspace(0, 1, 11))

    def test_inconsistent_sigma0_rejected(self):
        p = GaussianParams(sigma0=1.0, omega0=1.0)  # ground width is sqrt(0.5)
        with pytest.raises(ValueError, match="inconsistent"):
            harmonic_sigma(p, np.linspace(0, 1, 11))


class TestGaussianAction:
    """S/m = (x^2/2) d(ln sigma)/dt + f(t) of the Gaussian family, against the
    solver's velocity potential (`action_per_mass`, up to a constant)."""

    def test_spatial_gradient_is_velocity(self, free_params, packet_grid):
        # S/m is quadratic in x, so its centered difference on the grid is exact
        t = 1.5
        state = propagate_to(gaussian_packet(packet_grid, 1.0), free_potential(), t)
        s = action_per_mass(state).values
        j = at_x(packet_grid, 2.0)
        grad = (s[j + 1] - s[j - 1]) / (2 * packet_grid.dx)
        assert abs(grad - 2.0 * free_divergence(free_params, t)) < 1e-13
        assert abs(grad - advective_velocity(state).values[j]) < 1e-13

    def test_static_width_has_flat_spatial_part(self):
        # the trap ground state keeps its width and only turns its global phase
        grid = make_grid(9.0, 128)
        width = harmonic_ground_width(GaussianParams(sigma0=1.0, omega0=1.0))
        state = propagate_to(gaussian_packet(grid, width), harmonic_potential(1.0), 1.0)
        s = action_per_mass(state)
        assert np.ptp(s.values[s.mask]) < 1e-8

    def test_hamilton_jacobi_residual(self, packet_grid):
        # dS/dt + (1/2)(dS/dx)^2 + Q/m = 0 for the spreading packet, taken relative
        # to x = 0 so the unwrap constant cancels (u_a vanishes there)
        packet, ht, zero = gaussian_packet(packet_grid, 1.0), 1e-4, at_x(packet_grid, 0.0)
        for t in (0.5, 1.0, 2.0):
            before, mid, after = (
                propagate_to(packet, free_potential(), tt) for tt in (t - ht, t, t + ht)
            )
            s_b, s_a = action_per_mass(before).values, action_per_mass(after).values
            u = advective_velocity(mid).values
            q = bohm_potential(density(mid)).values
            for x in (0.75, 1.75, 2.5):
                j = at_x(packet_grid, x)
                dsdt = ((s_a[j] - s_a[zero]) - (s_b[j] - s_b[zero])) / (2 * ht)
                residual = dsdt + 0.5 * (u[j] ** 2 - u[zero] ** 2) + q[j] - q[zero]
                assert abs(residual) < 1e-8


class TestDiffusionReference:
    """The diffusing Gaussian of the solver (`gaussian_density`, `diffuse_step`)
    against the similarity branch sigma^2 = 2 D t (u_d = x/2t, production 1/2t,
    acceleration -x/4t^2) and the offset branch sigma^2 = sigma0^2 + 2 D t."""

    @staticmethod
    def similarity(grid, t, D=0.5):
        return gaussian_density(grid, np.sqrt(2 * D * t), D=D, time=t)

    @staticmethod
    def acceleration(grid, t, D=0.5, tau=1e-3):
        before = TestDiffusionReference.similarity(grid, t - tau, D)
        return diffusive_acceleration(before, diffuse_step(before, 2 * tau)).values

    def test_similarity_values(self, heat_grid):
        state, one = self.similarity(heat_grid, 1.0), at_x(heat_grid, 1.0)
        assert abs(heat_grid.dx * np.sum(heat_grid.x**2 * state.rho.values) - 1.0) < 1e-13
        assert abs(diffusive_velocity(state.rho, 0.5).values[one] - 0.5) < 1e-13
        assert abs(production_diffusive(state.rho, 0.5) - 0.5) < 1e-10
        assert abs(self.acceleration(heat_grid, 1.0)[one] - (-0.25)) < 1e-9

    def test_center_is_still(self, heat_grid):
        zero = at_x(heat_grid, 0.0)
        state = self.similarity(heat_grid, 1.0)
        assert abs(diffusive_velocity(state.rho, 0.5).values[zero]) < 1e-13
        assert abs(self.acceleration(heat_grid, 1.0)[zero]) < 1e-11

    def test_offset_branch(self, heat_grid):
        p = GaussianParams(sigma0=1.0, D=0.5)
        state = diffuse_step(gaussian_density(heat_grid, 1.0, D=0.5), 1.0)
        sigma2 = heat_grid.dx * np.sum(heat_grid.x**2 * state.rho.values)
        assert diffusive_sigma2(p, 1.0) == 2.0
        assert abs(sigma2 - 2.0) < 1e-13
        assert abs(production_diffusive(state.rho, 0.5) - 0.25) < 1e-10

    def test_similarity_singular_at_origin(self, heat_grid):
        # the similarity width sqrt(2 D t) vanishes at t = 0: no density has it
        with pytest.raises(ValueError, match="sigma must be positive"):
            self.similarity(heat_grid, 0.0)

    def test_drift_matches_rk4_parcel_oracle(self, heat_grid):
        # a parcel obeying dx/dt = u_d, read off the diffused density (u_d = x/(2t) is
        # linear in x, so np.interp is exact), reaches x0 sqrt(t/t0)
        seed, fields = self.similarity(heat_grid, 0.5), {}

        def u(x, t):
            if t not in fields:
                state = seed if t == 0.5 else diffuse_step(seed, t - 0.5)
                fields[t] = diffusive_velocity(state.rho, 0.5).values
            return np.interp(x, heat_grid.x, fields[t])

        x, h = 1.2, 0.05
        for i in range(30):
            t = 0.5 + i * h
            k1 = u(x, t)
            k2 = u(x + h / 2 * k1, t + h / 2)
            k3 = u(x + h / 2 * k2, t + h / 2)
            k4 = u(x + h * k3, t + h)
            x += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert abs(x - 1.2 * np.sqrt(2.0 / 0.5)) < 1e-6

    def test_production_is_diffusivity_times_fisher(self, heat_grid):
        # for the Gaussian, Fisher information is 1/sigma^2
        p = GaussianParams(sigma0=1.0, D=0.7)
        for t in (0.5, 1.0, 2.0):
            state = diffuse_step(gaussian_density(heat_grid, 1.0, D=0.7), t)
            assert abs(production_diffusive(state.rho, 0.7) - p.D / diffusive_sigma2(p, t)) < 1e-10


class TestGaussianParamsValidation:
    def test_epsilon_bound(self):
        with pytest.raises(ValueError, match="linearized"):
            GaussianParams(sigma0=1.0, epsilon0=0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(sigma0=-1.0), dict(sigma0=1.0, omega0=0.0), dict(sigma0=1.0, D=-0.1)],
    )
    def test_positivity(self, kwargs):
        with pytest.raises(ValueError):
            GaussianParams(**kwargs)
