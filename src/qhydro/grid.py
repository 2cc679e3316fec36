"""Uniform periodic 1D grid with spectral differentiation and quadrature.

The domain is [-L, L) sampled at N evenly spaced points, so every field is
implicitly 2L-periodic.  Localized fields must decay below roundoff at the
boundary for the spectral operations to be meaningful; all solvers in this
package are set up that way.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "make_grid",
    "derivative",
    "spectral_derivative",
    "spectral_derivatives",
    "integrate",
]


# Snapshots are computed and diagnosed in (rows, N) blocks; all the blocks in
# flight at once, one per worker, share this many bytes of complex samples (64
# rows at N = 1024 on one worker, 32 on each of two): enough rows to amortise
# the per-call cost of each transform and reduction and the fixed cost of a
# block (~0.5 ms, what a 1-row free block takes).  A block allocates its arrays
# afresh; `cli.console_main` keeps freed ones in the malloc heap for the next
# block.  Peak memory grows with this budget where the blocks, not the output,
# set it: 1 MiB more adds ~5.4 MB to the N = 512 run of 801 rows on two workers.
_BLOCK_BYTES = 1 << 20

# The runners compute row blocks on one worker per usable core.
if hasattr(os, "sched_getaffinity"):
    _WORKERS = len(os.sched_getaffinity(0))
else:
    _WORKERS = os.cpu_count() or 1


def _row_blocks(steps: list[int], num_points: int) -> list[list[int]]:
    """`steps` cut into consecutive runs of complex rows, _BLOCK_BYTES split among the workers."""
    rows = max(1, _BLOCK_BYTES // (16 * num_points * _WORKERS))
    return [steps[i:i + rows] for i in range(0, len(steps), rows)]


def _exponentials(rates: np.ndarray):
    """times -> the (len(times), N) table exp(rates * t), one row per time t.

    Each distinct rate is exponentiated once: a free spectrum is even in k bit
    for bit, so about half the exponentials are saved.  np.take keeps the table
    C-contiguous; a strided table would change the order of every later row
    reduction.
    """
    distinct, where = np.unique(rates, return_inverse=True)

    def table(times):
        times = np.asarray(times)
        powers = np.empty((len(times), len(distinct)), np.result_type(distinct, times))
        # t * rate, each product rounded once, from the times cast once
        np.copyto(powers, times[:, None])
        powers *= distinct
        return np.take(np.exp(powers), where, axis=1)

    return table


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Grid:
    """Sample points x_j = -L + j*dx and their conjugate wavenumbers.

    Wavenumbers follow FFT ordering; the mode set is symmetric except for
    the unpaired Nyquist mode at index N//2.
    """

    half_width: float
    num_points: int
    dx: float
    x: np.ndarray
    k: np.ndarray

    @property
    def nyquist_index(self) -> int:
        return self.num_points // 2

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return (
            self.num_points == other.num_points
            and self.half_width == other.half_width
            and self.x.dtype == other.x.dtype
        )


def make_grid(L: float, N: int, dtype=np.float64) -> Grid:
    """Build the periodic grid on [-L, L) with N points.

    N must be even and at least 8.  `dtype` selects the working precision
    (np.longdouble is supported for ill-conditioned diagnostics).
    """
    if N % 2 != 0 or N < 8:
        raise ValueError(f"N must be an even integer >= 8, got {N}")
    if not L > 0:
        raise ValueError(f"L must be positive, got {L}")
    L = dtype(L)
    dx = 2 * L / N
    x = -L + dx * np.arange(N, dtype=dtype)
    # integer mode numbers in FFT order: 0..N/2-1, -N/2..-1
    modes = ((np.arange(N) + N // 2) % N) - N // 2
    k = (np.pi / L) * modes.astype(dtype)
    # half_width/dx keep the working dtype so extended-precision grids stay exact
    return Grid(L, N, dx, _frozen(x), _frozen(k))


@dataclass(frozen=True)
class Field:
    """Real or complex samples on a grid, with an optional validity mask.

    Real samples (densities, velocities) stay real and complex samples
    (wavefunctions, complex velocities) stay complex; samples of any other
    dtype are stored as float64.  `valid` is None when every point carries a
    meaningful value.  Operations that divide by the density attach a mask;
    entries at invalid points are stored as 0 and must be ignored via the
    mask, not read as values.
    """

    grid: Grid
    values: np.ndarray
    valid: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.values)
        if not np.issubdtype(v.dtype, np.inexact):
            v = v.astype(np.float64)
        if v.shape != (self.grid.num_points,):
            raise ValueError(f"expected {self.grid.num_points} samples, got shape {v.shape}")
        if self.valid is not None:
            m = np.asarray(self.valid, dtype=bool)
            if m.shape != v.shape:
                raise ValueError("valid mask shape mismatch")
            v = np.where(m, v, v.dtype.type(0))
            object.__setattr__(self, "valid", _frozen(m))
            if not np.all(np.isfinite(v[m])):
                raise ValueError("non-finite values on valid points")
        else:
            if not np.all(np.isfinite(v)):
                raise ValueError("non-finite values in field")
        object.__setattr__(self, "values", _frozen(v))

    @property
    def mask(self) -> np.ndarray:
        if self.valid is None:
            return np.ones(self.grid.num_points, dtype=bool)
        return self.valid


def spectral_derivatives(
    values: np.ndarray, grid: Grid, orders: tuple[int, ...]
) -> list[np.ndarray]:
    """Spectral derivatives of several orders from one forward transform.

    `values` is (..., N): a block of rows is transformed along its last
    axis, each row exactly as it would be alone.  The samples are transformed
    once; each order then costs one multiply by (ik)^order and one inverse
    transform.  Real input yields the real part of the round trip (its
    sub-1e-12 imaginary residue is dropped), complex input complex output.
    The Nyquist mode is zeroed for odd orders so that odd derivatives of real
    fields stay real and symmetric.
    """
    if any(order < 1 for order in orders):
        raise ValueError("derivative order must be a positive integer")
    ik = 1j * grid.k.astype(np.result_type(grid.k.dtype, np.complex128))
    spectrum = np.fft.fft(values)
    out = []
    for order in orders:
        mult = ik**order
        if order % 2 == 1:
            mult[grid.nyquist_index] = 0.0
        d = mult * spectrum
        np.fft.ifft(d, out=d)  # in place: one array per order is alive, not two
        out.append(d if np.iscomplexobj(values) else d.real)
    return out


def spectral_derivative(values: np.ndarray, grid: Grid, order: int = 1) -> np.ndarray:
    """Spectral d^order/dx^order of a sample array; see `spectral_derivatives`."""
    (out,) = spectral_derivatives(values, grid, (order,))
    return out


def derivative(f: Field, order: int = 1) -> Field:
    """Spectral d^order/dx^order of a field; real fields stay real, complex stay complex."""
    return Field(f.grid, spectral_derivative(f.values, f.grid, order), f.valid)


def integrate(f: Field) -> float | complex:
    """Rectangle-rule integral dx * sum(values).

    Exact for trigonometric polynomials on the periodic grid and spectrally
    accurate for fields that decay below roundoff at the boundary.  Complex
    samples give a Python complex, float64 samples a Python float, and
    extended-precision real samples keep their dtype.
    """
    total = f.grid.dx * np.sum(f.values)
    if f.values.dtype.kind == "c":
        return complex(total)
    return float(total) if f.values.dtype == np.float64 else total
