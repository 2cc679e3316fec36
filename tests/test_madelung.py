import numpy as np
import pytest

from qhydro import (
    Field,
    QuantumState,
    UnwrapError,
    action_per_mass,
    advective_velocity,
    bohm_potential,
    complex_velocity,
    density,
    diffusive_bohm_force,
    diffusive_bohm_potential,
    diffusive_velocity,
    gaussian_packet,
    make_grid,
    plane_wave,
    valid_mask,
)


def gaussian_density_field(grid, sigma):
    rho = np.exp(-(grid.x**2) / (2 * sigma**2))
    return Field(grid, rho / (grid.dx * rho.sum()))


class TestQuantumState:
    def test_norm_enforced(self, grid256):
        psi = Field(grid256, np.full(grid256.num_points, 0.5 + 0j))
        with pytest.raises(ValueError, match="norm"):
            QuantumState(psi)

    @pytest.mark.parametrize("kwargs", [dict(hbar=0.0), dict(mass=-1.0)])
    def test_positive_constants(self, grid256, kwargs):
        psi = gaussian_packet(grid256, 1.0).psi
        with pytest.raises(ValueError):
            QuantumState(psi, **kwargs)

    def test_real_samples_rejected(self, grid256):
        psi = Field(grid256, np.full(grid256.num_points, 1 / np.sqrt(2 * grid256.half_width)))
        with pytest.raises(TypeError):
            QuantumState(psi)


class TestDensity:
    def test_plane_wave_uniform(self, grid256):
        rho = density(plane_wave(grid256, 3))
        assert np.abs(rho.values - 1.0 / (2 * grid256.half_width)).max() < 1e-14

    def test_gaussian_peak(self, grid256):
        rho = density(gaussian_packet(grid256, 1.0))
        i0 = grid256.num_points // 2
        assert abs(rho.values[i0] - 1.0 / np.sqrt(2 * np.pi)) < 1e-12

    def test_global_phase_invariant(self, unit_gaussian):
        shifted = QuantumState(
            Field(unit_gaussian.grid, np.exp(1.3j) * unit_gaussian.psi.values)
        )
        assert np.abs(density(shifted).values - density(unit_gaussian).values).max() < 1e-10


class TestComplexVelocity:
    def test_plane_wave(self, grid256):
        state = plane_wave(grid256, 5, hbar=1.0, mass=2.0)
        k = 5 * np.pi / grid256.half_width
        v = complex_velocity(state)
        assert np.abs(v.values - k / 2.0).max() < 1e-10

    def test_real_gaussian_is_purely_diffusive(self, unit_gaussian):
        # v = i hbar x / (2 m sigma^2) for a real Gaussian, from the
        # derivative of ln rho = -x^2/sigma^2 + const
        v = complex_velocity(unit_gaussian)
        x = unit_gaussian.grid.x
        on = v.mask
        assert np.abs(v.values.real[on]).max() < 1e-8
        assert np.abs(v.values.imag[on] - 0.5 * x[on]).max() < 1e-7

    def test_zero_at_center_by_symmetry(self, unit_gaussian):
        v = complex_velocity(unit_gaussian)
        i0 = unit_gaussian.grid.num_points // 2
        assert abs(v.values[i0]) < 1e-12

    def test_gauge_invariance(self, unit_gaussian):
        rotated = QuantumState(
            Field(unit_gaussian.grid, np.exp(-0.7j) * unit_gaussian.psi.values)
        )
        v1, v2 = complex_velocity(unit_gaussian), complex_velocity(rotated)
        scale = max(1.0, np.abs(v1.values).max())
        assert np.abs(v1.values - v2.values).max() < 1e-10 * scale


class TestDiffusiveVelocity:
    def test_uniform_density_is_still(self, grid256):
        rho = Field(grid256, np.full(grid256.num_points, 1.0 / (2 * grid256.half_width)))
        u = diffusive_velocity(rho, 0.5)
        assert np.abs(u.values).max() < 1e-12

    def test_spreading_gaussian_drift(self, grid256):
        # sigma^2 = 2 D t with D = 0.5, t = 1: u_d = x / (2 t); compared on
        # the band where the 1/rho division is well conditioned
        rho = gaussian_density_field(grid256, 1.0)
        u = diffusive_velocity(rho, 0.5)
        band = rho.values >= 1e-6 * rho.values.max()
        assert np.abs(u.values[band] - grid256.x[band] / 2.0).max() < 1e-8

    def test_symbolic_oracle_value(self):
        # d(ln rho)/dx = -x/sigma^2, so u_d = D x / sigma^2 = -1 at x = -2
        grid = make_grid(16.0, 256)  # dx = 1/8 puts x = -2 on the grid
        u = diffusive_velocity(gaussian_density_field(grid, 1.0), 0.5)
        i = grid.num_points // 2 - int(round(2.0 / grid.dx))
        assert grid.x[i] == -2.0
        assert abs(u.values[i] - (-1.0)) < 1e-8

    def test_zero_density_rejected(self, grid256):
        rho = Field(grid256, np.zeros(grid256.num_points))
        with pytest.raises(ValueError):
            diffusive_velocity(rho, 0.5)

    def test_bad_diffusivity(self, grid256):
        with pytest.raises(ValueError):
            diffusive_velocity(gaussian_density_field(grid256, 1.0), -0.5)


DENSITY_FUNCTIONS = {
    "diffusive_velocity": lambda rho: diffusive_velocity(rho, 0.5),
    "bohm_potential": bohm_potential,
    "diffusive_bohm_potential": lambda rho: diffusive_bohm_potential(rho, 0.5),
    "diffusive_bohm_force": lambda rho: diffusive_bohm_force(rho, 0.5),
}


@pytest.mark.parametrize("function", DENSITY_FUNCTIONS.values(), ids=DENSITY_FUNCTIONS.keys())
@pytest.mark.parametrize("case, message", [
    ("negative", "density must be nonnegative"),
    ("masked_everywhere", "density below the floor everywhere; no valid points"),
], ids=["negative", "masked_everywhere"])
def test_every_density_function_guards_alike(grid256, function, case, message):
    rho = gaussian_density_field(grid256, 1.0)
    if case == "negative":
        values = rho.values.copy()
        values[0] = -1e-30
        rho = Field(grid256, values)
    else:
        rho = Field(grid256, rho.values, np.zeros(grid256.num_points, dtype=bool))
    with pytest.raises(ValueError, match=f"^{message}$"):
        function(rho)


class TestBohmPotential:
    def test_uniform_density_flat(self, grid256):
        rho = Field(grid256, np.full(grid256.num_points, 1.0 / (2 * grid256.half_width)))
        assert np.abs(bohm_potential(rho).values).max() < 1e-12

    def test_gaussian_closed_form(self, grid256):
        # Q/m = (hbar^2/2m^2) (1/2sigma^2 - x^2/4sigma^4): +0.25 at x=0,
        # -0.25 at x=2 sigma (hbar = m = sigma = 1)
        q = bohm_potential(gaussian_density_field(grid256, 1.0))
        x = grid256.x
        expected = 0.5 * (0.5 - x**2 / 4.0)
        on = q.mask
        assert np.abs(q.values[on] - expected[on]).max() < 1e-7
        i0 = grid256.num_points // 2
        assert abs(q.values[i0] - 0.25) < 1e-10

    def test_center_against_fd_oracle(self, grid256):
        # oracle: central differences of sqrt(rho) = c*exp(-x^2/4)
        a = lambda x: np.exp(-(x**2) / 4)
        h = 1e-4
        curv0 = (a(h) - 2 * a(0.0) + a(-h)) / h**2 / a(0.0)
        q0 = bohm_potential(gaussian_density_field(grid256, 1.0)).values[grid256.num_points // 2]
        assert abs(q0 - (-0.5 * curv0)) < 1e-8

    def test_hbar_mass_scaling(self, grid256):
        rho = gaussian_density_field(grid256, 1.0)
        q1 = bohm_potential(rho, hbar=1.0, mass=1.0)
        q2 = bohm_potential(rho, hbar=2.0, mass=1.0)
        on = q1.mask
        assert np.allclose(q2.values[on], 4.0 * q1.values[on], rtol=1e-12)


class TestDiffusiveBohmPotential:
    @pytest.mark.parametrize("hbar, mass", [(1.0, 1.0), (2.0, 1.0), (1.0, 3.0)])
    def test_matches_quantum_at_identified_diffusivity(self, grid256, hbar, mass):
        rho = gaussian_density_field(grid256, 1.3)
        q = bohm_potential(rho, hbar=hbar, mass=mass)
        qd = diffusive_bohm_potential(rho, D=hbar / (2 * mass))
        assert np.abs(q.values - qd.values).max() < 1e-12

    def test_uniform_flat(self, grid256):
        rho = Field(grid256, np.full(grid256.num_points, 1.0 / (2 * grid256.half_width)))
        assert np.abs(diffusive_bohm_potential(rho, 0.5).values).max() < 1e-12

    def test_gaussian_center(self, grid256):
        qd = diffusive_bohm_potential(gaussian_density_field(grid256, 1.0), D=0.5)
        assert abs(qd.values[grid256.num_points // 2] - 0.25) < 1e-10


class TestDiffusiveBohmForce:
    def test_gaussian_closed_form_on_conditioned_band(self, grid256):
        # grad of -2 D^2 (x^2/4s^4 - 1/2s^2) is -D^2 x / s^4
        rho = gaussian_density_field(grid256, 1.0)
        force = diffusive_bohm_force(rho, D=0.5)
        x = grid256.x
        band = rho.values >= 1e-6 * rho.values.max()
        assert np.abs(force.values[band] + 0.25 * x[band]).max() < 1e-5

    def test_matches_gradient_of_potential_when_unmasked(self):
        # exactly periodic density with every point valid, so the spectral
        # gradient of the potential field composes without mask-fill jumps
        from qhydro import derivative

        grid = make_grid(10.0, 256)
        rho = np.exp(2.0 * np.cos(np.pi * grid.x / grid.half_width))
        rho_f = Field(grid, rho / (grid.dx * rho.sum()))
        force = diffusive_bohm_force(rho_f, D=0.4)
        assert force.mask.all()
        grad = derivative(diffusive_bohm_potential(rho_f, D=0.4))
        assert np.abs(force.values - grad.values).max() < 1e-8


class TestActionPerMass:
    def test_plane_wave_linear(self, grid256):
        state = plane_wave(grid256, 4)
        k = 4 * np.pi / grid256.half_width
        s = action_per_mass(state)
        slope = np.diff(s.values) / grid256.dx
        assert np.abs(slope - k).max() < 1e-8

    def test_real_gaussian_constant(self, unit_gaussian):
        s = action_per_mass(unit_gaussian)
        on = s.mask
        assert np.abs(s.values[on] - s.values[on][0]).max() < 1e-10

    def test_spreading_packet_quadratic(self, grid256):
        rate = 0.2
        state = gaussian_packet(grid256, 1.0, width_rate=rate)
        s = action_per_mass(state)
        on = s.mask
        x = grid256.x[on]
        fitted = s.values[on] - s.values[on][x == 0.0]
        assert np.abs(fitted - 0.5 * rate * x**2).max() < 1e-8

    def test_gradient_reproduces_advective_velocity(self, grid256):
        state = gaussian_packet(grid256, 1.0, width_rate=0.25)
        s = action_per_mass(state)
        u = advective_velocity(state)
        on = s.mask
        idx = np.flatnonzero(on)
        grad = np.gradient(s.values[idx], grid256.x[idx], edge_order=2)
        assert np.abs(grad - u.values[idx]).max() < 1e-6

    def test_under_resolved_phase_flagged(self):
        grid = make_grid(10.0, 64)
        with pytest.raises(UnwrapError):
            action_per_mass(gaussian_packet(grid, 2.0, width_rate=20.0))


class TestCrossIdentities:
    def test_imaginary_velocity_is_fickian_drift_full_mask(self):
        # exactly periodic state whose density stays well above the floor
        # everywhere, so the whole grid is valid and both derivative routes
        # are well conditioned
        grid = make_grid(10.0, 256)
        rho = np.exp(1.5 * np.cos(np.pi * grid.x / grid.half_width))
        rho /= grid.dx * rho.sum()
        state = QuantumState(Field(grid, np.sqrt(rho).astype(complex)))
        v = complex_velocity(state)
        u_d = diffusive_velocity(density(state), D=0.5)
        assert u_d.mask.all()
        assert np.abs(v.values.imag - u_d.values).max() < 1e-8

    def test_imaginary_velocity_matches_on_conditioned_band(self, unit_gaussian):
        v = complex_velocity(unit_gaussian)
        rho = density(unit_gaussian)
        u_d = diffusive_velocity(rho, D=0.5)
        band = rho.values >= 1e-4 * rho.values.max()
        assert np.abs(v.values.imag[band] - u_d.values[band]).max() < 1e-8

    def test_valid_mask_floor(self, grid256):
        rho = gaussian_density_field(grid256, 1.0)
        mask = valid_mask(rho)
        floor = 1e-12 * rho.values.max()
        assert np.array_equal(mask, rho.values >= floor)
