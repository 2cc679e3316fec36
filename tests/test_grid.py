import numpy as np
import pytest
from scipy import integrate as scipy_integrate

from qhydro import Field, derivative, integrate, make_grid
from qhydro.grid import spectral_derivative, spectral_derivatives
from conftest import smooth_periodic


class TestMakeGrid:
    def test_basic_layout(self):
        g = make_grid(10.0, 8)
        assert g.dx == 2.5
        assert np.allclose(g.x, [-10.0, -7.5, -5.0, -2.5, 0.0, 2.5, 5.0, 7.5])

    def test_endpoints(self):
        g = make_grid(40.0, 1024)
        assert g.dx == 0.078125
        assert g.x[0] == -40.0
        assert g.x[-1] == 40.0 - g.dx

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            make_grid(10.0, 7)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            make_grid(10.0, 6)

    @pytest.mark.parametrize("L", [0.0, -1.0])
    def test_bad_length_rejected(self, L):
        with pytest.raises(ValueError):
            make_grid(L, 64)

    def test_wavenumbers_symmetric_except_nyquist(self):
        g = make_grid(5.0, 16)
        k = g.k
        nyquist = k[g.nyquist_index]
        others = np.delete(k, g.nyquist_index)
        nonzero = others[others != 0]
        for kj in nonzero:
            assert np.any(np.isclose(others, -kj))
        assert np.isclose(abs(nyquist), np.pi / g.dx)


class TestDerivative:
    def test_single_mode_exact(self, grid256):
        k1 = np.pi / grid256.half_width
        f = Field(grid256, np.sin(k1 * grid256.x))
        df = derivative(f)
        assert np.abs(df.values - k1 * np.cos(k1 * grid256.x)).max() < 1e-10

    def test_constant_is_flat(self, grid256):
        df = derivative(Field(grid256, np.full(grid256.num_points, 3.7)))
        assert np.abs(df.values).max() < 1e-12

    def test_gaussian_second_derivative_vs_fd_oracle(self, grid1024):
        # oracle: central finite differences of exp(-x^2/2) at x=0, h -> 0
        f = lambda x: np.exp(-(x**2) / 2)
        fd = [(f(h) - 2 * f(0.0) + f(-h)) / h**2 for h in (1e-3, 1e-4)]
        assert abs(fd[-1] - (-1.0)) < 1e-6
        field = Field(grid1024, f(grid1024.x))
        d2 = derivative(field, order=2)
        i0 = grid1024.num_points // 2
        assert grid1024.x[i0] == 0.0
        assert abs(d2.values[i0] - fd[-1]) < 1e-7
        assert abs(d2.values[i0] - (-1.0)) < 1e-10

    def test_complex_field_derivative(self, grid256):
        k1 = 2 * np.pi / grid256.half_width
        f = Field(grid256, np.exp(1j * k1 * grid256.x))
        df = derivative(f)
        assert np.abs(df.values - 1j * k1 * f.values).max() < 1e-10

    def test_bad_order_rejected(self, grid256):
        with pytest.raises(ValueError):
            derivative(Field(grid256, np.zeros(grid256.num_points)), order=0)

    def test_linearity(self, grid256):
        f = smooth_periodic(grid256, seed=1)
        g = smooth_periodic(grid256, seed=2)
        a, b = 1.7, -0.3
        lhs = derivative(Field(grid256, a * f + b * g)).values
        rhs = a * derivative(Field(grid256, f)).values + b * derivative(
            Field(grid256, g)
        ).values
        assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(rhs).max())

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_integral_of_derivative_vanishes(self, grid256, seed):
        f = smooth_periodic(grid256, seed=seed)
        total = integrate(derivative(Field(grid256, f)))
        assert abs(total) < 1e-10 * max(1.0, np.abs(f).max())

    @pytest.mark.parametrize("seed", [6, 7])
    def test_second_derivative_composes(self, grid256, seed):
        f = Field(grid256, smooth_periodic(grid256, seed=seed))
        once_twice = derivative(derivative(f)).values
        direct = derivative(f, order=2).values
        scale = np.abs(direct).max()
        assert np.abs(once_twice - direct).max() < 1e-10 * scale


class TestSpectralDerivatives:
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_bit_identical_to_single_order(self, grid256, kind):
        f = smooth_periodic(grid256, seed=11)
        if kind == "complex":
            f = f + 1j * smooth_periodic(grid256, seed=12)
        # a random field has a nonzero Nyquist mode, so a zeroed odd-order
        # multiplier leaking into the next order would show
        f = f + 1e-3 * np.random.default_rng(13).normal(size=grid256.num_points)
        batch = spectral_derivatives(f, grid256, (1, 2, 3))
        for order, d in zip((1, 2, 3), batch):
            single = spectral_derivative(f, grid256, order)
            assert d.dtype == single.dtype == f.dtype
            assert np.array_equal(d, single)

    def test_one_forward_transform(self, grid256, monkeypatch):
        calls = {"fft": 0, "ifft": 0}
        fft, ifft = np.fft.fft, np.fft.ifft

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.fft, "fft", counted("fft", fft))
        monkeypatch.setattr(np.fft, "ifft", counted("ifft", ifft))
        spectral_derivatives(smooth_periodic(grid256, seed=14), grid256, (1, 2, 3))
        assert calls == {"fft": 1, "ifft": 3}

    def test_bad_order_rejected(self, grid256):
        with pytest.raises(ValueError):
            spectral_derivatives(np.zeros(grid256.num_points), grid256, (1, 0))


class TestIntegrate:
    def test_normalized_gaussian(self, grid1024):
        rho = np.exp(-(grid1024.x**2) / 2) / np.sqrt(2 * np.pi)
        assert abs(integrate(Field(grid1024, rho)) - 1.0) < 1e-12

    def test_constant(self):
        g = make_grid(10.0, 64)
        assert np.isclose(integrate(Field(g, np.full(64, 2.5))), 2 * 10.0 * 2.5)

    def test_second_moment_vs_quadrature_oracle(self, grid1024):
        rho = lambda x: np.exp(-(x**2) / 2) / np.sqrt(2 * np.pi)
        oracle, err = scipy_integrate.quad(lambda x: x**2 * rho(x), -30, 30)
        assert err < 1e-10
        measured = integrate(Field(grid1024, grid1024.x**2 * rho(grid1024.x)))
        assert abs(measured - oracle) < 1e-12
        assert abs(measured - 1.0) < 1e-12

    def test_complex_returns_python_complex(self):
        g = make_grid(10.0, 64)
        total = integrate(Field(g, np.full(64, 2.5 - 1.5j)))
        assert type(total) is complex
        assert np.isclose(total, 2 * 10.0 * (2.5 - 1.5j))


class TestFieldValidation:
    dtype = np.float64

    def test_length_checked(self, grid256):
        with pytest.raises(ValueError):
            Field(grid256, np.zeros(7, self.dtype))

    def test_nan_rejected(self, grid256):
        values = np.zeros(grid256.num_points, self.dtype)
        values[3] = np.nan
        with pytest.raises(ValueError):
            Field(grid256, values)

    def test_nan_allowed_only_off_mask(self, grid256):
        values = np.zeros(grid256.num_points, self.dtype)
        values[3] = np.inf
        mask = np.ones(grid256.num_points, dtype=bool)
        mask[3] = False
        f = Field(grid256, values, mask)
        assert f.values[3] == 0.0  # invalid entries are stored as zero
        assert f.values.dtype == self.dtype

    def test_frozen(self, grid256):
        f = Field(grid256, np.zeros(grid256.num_points, self.dtype))
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestComplexFieldValidation(TestFieldValidation):
    """The same checks on complex samples."""

    dtype = np.complex128


@pytest.mark.parametrize(
    "given, kept",
    [
        (np.float32, np.float32),
        (np.float64, np.float64),
        (np.longdouble, np.longdouble),
        (np.complex128, np.complex128),
        (np.clongdouble, np.clongdouble),
        (np.int64, np.float64),
        (bool, np.float64),
    ],
)
def test_field_keeps_real_and_complex_samples(grid256, given, kept):
    assert Field(grid256, np.ones(grid256.num_points, given)).values.dtype == kept
