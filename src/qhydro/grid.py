"""Uniform periodic 1D grid with spectral differentiation and quadrature.

The domain is [-L, L) sampled at N evenly spaced points, so every field is
implicitly 2L-periodic.  Localized fields must decay below roundoff at the
boundary for the spectral operations to be meaningful; all solvers in this
package are set up that way.
"""
from __future__ import annotations

import math
import os
import threading
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
# block (~0.5 ms, what a 1-row free block takes).  Each worker computes its
# blocks in arrays it keeps (`_Buffer`), allocated once per worker instead of
# once per block: 8 for a quantum `run`, 2.8 MiB at 32 rows of N = 1024.  Peak
# memory grows with this budget where the blocks, not the output, set it:
# 1 MiB more adds ~5.4 MB to the N = 512 run of 801 rows on two workers.
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


class _Buffer(threading.local):
    """Arrays that one function computes its row blocks into, one set per thread.

    Each `_Buffer` is private to the one function that writes it: a call
    returns an uninitialised C-contiguous array of `shape`, allocated once per
    thread and reused by the later calls, so a run does not fault its pages
    in again block after block.  A call takes the C-contiguous front of a flat
    array, replaced when its dtype changes or a call needs more elements, so
    fewer rows are the leading rows.  `key` tells apart arrays of one function
    that are alive at once.  The next call overwrites what the last one
    returned, so whatever leaves a computation is copied out first.
    """

    def __init__(self):
        self.arrays = {}

    def __call__(self, shape: tuple[int, ...], dtype, key=None) -> np.ndarray:
        size = math.prod(shape)
        buf = self.arrays.get(key)
        if buf is None or buf.dtype != dtype or len(buf) < size:
            buf = self.arrays[key] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


_WORK = _Buffer()


def _work(shape: tuple[int, ...], dtype) -> np.ndarray:
    """This thread's scratch array of a complex or of a real dtype, for a temporary.

    The one `_Buffer` that any function may use: a function that takes a
    `_work` array neither returns it nor, while it holds it, calls a function
    that takes `_work` itself (numpy and `_masked_integral` are fine).
    """
    return _WORK(shape, dtype, np.dtype(dtype).kind == "c")


def _exponentials(rates: np.ndarray):
    """times -> the (len(times), N) table exp(rates * t), one row per time t,
    in a `_Buffer` of the returned function; the exponents are a `_work`
    temporary.

    Each distinct rate is exponentiated once: a free spectrum is even in k bit
    for bit, so about half the exponentials are saved.  np.take keeps the table
    C-contiguous; a strided table would change the order of every later row
    reduction.  With mode="clip" (the indices are in range) np.take writes the
    buffer directly; mode="raise" would fill a copy first.
    """
    distinct, where = np.unique(rates, return_inverse=True)
    buffer = _Buffer()

    def table(times):
        times = np.asarray(times)
        dtype = np.result_type(distinct, times)
        powers = _work((len(times), len(distinct)), dtype)
        # t * rate, each product rounded once; a ufunc broadcasting both
        # operands would fill a buffer of the iterator for each
        np.copyto(powers, times[:, None])
        np.multiply(powers, distinct, out=powers)
        out = buffer((len(times), len(rates)), dtype)
        return np.take(np.exp(powers, out=powers), where, axis=1, mode="clip", out=out)

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
    transform.  Real input yields real output; the sub-1e-12 imaginary
    residue of the round trip is truncated.  The Nyquist mode is zeroed for
    odd orders so that odd derivatives of real fields stay real and
    symmetric.
    """
    return [d.copy() for d in _spectral_derivatives(values, grid, orders)]


_DERIVATIVES = _Buffer()


def _spectral_derivatives(values: np.ndarray, grid: Grid, orders: tuple[int, ...]) -> list[np.ndarray]:
    """`spectral_derivatives` in a `_Buffer` of this function (the real part for
    real values); the spectrum is a `_work` temporary."""
    if any(order < 1 for order in orders):
        raise ValueError("derivative order must be a positive integer")
    ik = 1j * grid.k.astype(np.result_type(grid.k.dtype, np.complex128))
    spectrum = _work(values.shape, np.result_type(values.dtype, 1j))
    real = not np.iscomplexobj(values)
    if real:
        # cast here: the transform would cast real samples into a buffer of its own
        np.copyto(spectrum, values)
    np.fft.fft(spectrum if real else values, out=spectrum)
    out = []
    for n, order in enumerate(orders):
        mult = ik**order
        if order % 2 == 1:
            mult[grid.nyquist_index] = 0.0
        d = _DERIVATIVES(values.shape, np.result_type(mult, spectrum), n)
        np.fft.ifft(np.multiply(mult, spectrum, out=d), out=d)
        out.append(d.real if real else d)
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
