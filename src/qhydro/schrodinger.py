"""Unitary time evolution: exact spectral propagation and Strang stepping.

`propagate` reaches every snapshot with one application of exp(-iHt/hbar)
from the initial state, through `_exact_kernel`: the one way every runner,
quantum or diffusive, reaches a snapshot (initial coefficients times
exp(rate t), mapped back to x and checked).  `step`/`evolve` are the
Strang-split integrator (half kinetic phase, potential phase, half kinetic
phase); each factor is unitary, so stepping with -dt inverts a step, and as
dt -> 0 it converges to `propagate`.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, _exponentials, _row_blocks, spectral_derivatives
from .madelung import NORM_TOLERANCE, QuantumState

__all__ = [
    "Potential",
    "EvolutionConfig",
    "NumericsError",
    "free_potential",
    "harmonic_potential",
    "step",
    "evolve",
    "propagate",
    "energy",
    "gaussian_packet",
    "plane_wave",
    "superposition",
]


class NumericsError(RuntimeError):
    """Evolution produced non-finite values; carries the offending step index."""

    def __init__(self, message: str, step_index: int | None = None):
        super().__init__(message)
        self.step_index = step_index


def _check_rows(ok: np.ndarray, steps, describe):
    """NumericsError at the first row of a block where `ok` is False.

    `steps` holds the step index of each row (None when unknown) and
    `describe(row)` words the failure.
    """
    if not ok.all():
        row = int(np.argmin(ok))
        raise NumericsError(describe(row), None if steps is None else steps[row])


def _exact_kernel(initial: Field, rates, dt: float, unit: float = 1.0, vecs=None, clip=None):
    """steps -> the (rows, N) samples, densities and norms of the snapshots at
    those steps, each reached once from t0, so a block depends on its steps alone.

    A row is exp(rates * step * dt / unit) times the initial coefficients in
    the basis, mapped back to x: the Fourier basis, or the columns of
    `vecs`.  Real rates stay real until the table is cast once, before the
    product.  Step 0, a block of its own, is `initial` itself.  A
    wavefunction's densities are |psi|^2; a density's samples and densities
    are both clip(rows, steps).  NumericsError for a non-finite rate, at the
    first non-finite row, or at the first whose norm misses 1 by more than
    NORM_TOLERANCE.
    """
    name = "wavefunction" if clip is None else "density"
    if not np.all(np.isfinite(rates)):
        raise NumericsError(f"non-finite rates in the {name} kernel")
    coeffs = np.fft.fft(initial.values) if vecs is None else vecs.T @ initial.values
    table = _exponentials(rates)

    def to_x(product):
        if vecs is None:
            return np.fft.ifft(product, out=product)
        # one matrix-vector product per row: a single matrix product over the
        # block would change the last bits of each row
        values = np.empty_like(product)
        for row, out in zip(product, values):
            np.dot(vecs, row, out=out)
        return values

    # a rate times t that overflows makes its row non-finite, which the checks report
    @np.errstate(all="ignore")
    def rows(steps):
        if steps == [0]:
            values = initial.values[None]
        else:
            product = table(np.array(steps) * dt / unit).astype(coeffs.dtype, copy=False)
            values = to_x(np.multiply(product, coeffs, out=product))
        if clip is None:
            rho = np.abs(values)
            np.square(rho, out=rho)  # |psi|**2 in place, bit for bit
        else:
            values = rho = clip(values, steps)
        norm = initial.grid.dx * np.sum(rho, axis=-1)
        # |psi|^2 and the clip carry a non-finite sample into the row's norm
        _check_rows(np.isfinite(norm), steps, lambda r: f"non-finite {name} at step {steps[r]}")
        _check_rows(
            ~(np.abs(norm - 1.0) > NORM_TOLERANCE), steps,
            lambda r: f"{name} norm {float(norm[r])!r} deviates from 1 by more than {NORM_TOLERANCE}",
        )
        return values, rho, norm

    return rows


@dataclass(frozen=True)
class Potential:
    """External potential, evaluated per unit mass: U/m as a function of x.

    kind is "free" or "harmonic" (U/m = (omega0 x)^2 / 2).
    """

    kind: str
    omega0: float | None = None

    def __post_init__(self):
        if self.kind not in ("free", "harmonic"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "harmonic" and not (self.omega0 is not None and self.omega0 > 0):
            raise ValueError("harmonic potential requires omega0 > 0")

    def per_mass(self, grid: Grid) -> np.ndarray:
        if self.kind == "free":
            return np.zeros_like(grid.x)
        return 0.5 * (self.omega0 * grid.x) ** 2


def free_potential() -> Potential:
    return Potential("free")


def harmonic_potential(omega0: float) -> Potential:
    return Potential("harmonic", omega0=omega0)


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float
    t_final: float
    snapshot_stride: int = 1

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_final < 0:
            raise ValueError(f"t_final must be nonnegative, got {self.t_final}")
        if self.snapshot_stride < 1:
            raise ValueError(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")

    def snapshot_steps(self) -> list[int]:
        """Step indices of the snapshots: 0, every snapshot_stride-th step, and the last.

        The number of steps is round(t_final/dt), so the final time is within
        dt/2 of t_final.
        """
        n_steps = int(round(self.t_final / self.dt))
        return [*range(0, n_steps, self.snapshot_stride), n_steps]


def _phase_factors(state: QuantumState, pot: Potential, dt: float):
    grid = state.grid
    k_half = np.exp(-1j * state.hbar * grid.k**2 * dt / (4 * state.mass))
    u = state.mass * pot.per_mass(grid)
    v_full = np.exp(-1j * u * dt / state.hbar)
    return k_half, v_full


def _check_resolution(state: QuantumState, dt: float):
    k_max = np.abs(state.grid.k).max()
    phase = abs(dt) * state.hbar * k_max**2 / (2 * state.mass)
    if phase >= np.pi:
        warnings.warn(
            f"kinetic phase per step is {phase:.3g} rad at the largest wavenumber; "
            "shrink dt below pi*2m/(hbar*k_max^2) to resolve all retained modes",
            stacklevel=3,
        )


def step(state: QuantumState, pot: Potential, dt: float) -> QuantumState:
    """Advance one Strang-split step; dt may be negative for time reversal."""
    _check_resolution(state, dt)
    k_half, v_full = _phase_factors(state, pot, dt)
    psi = np.fft.ifft(k_half * np.fft.fft(state.psi.values))
    psi = v_full * psi
    psi = np.fft.ifft(k_half * np.fft.fft(psi))
    if not np.all(np.isfinite(psi)):
        raise NumericsError("non-finite wavefunction after one step")
    return QuantumState(
        Field(state.grid, psi), state.hbar, state.mass, state.time + dt
    )


def evolve(state: QuantumState, pot: Potential, cfg: EvolutionConfig) -> list[QuantumState]:
    """Repeated Strang stepping with snapshots at `cfg.snapshot_steps()`.

    Consecutive half kicks are fused (K/2 V K/2 composed n times equals
    K/2 V (K V)^{n-1} K/2), so the hot loop costs one transform pair per
    step; snapshots close the palindrome with the trailing half kick.  The
    snapshot list always contains the initial and the final state.
    """
    steps = cfg.snapshot_steps()
    recorded = set(steps[1:])
    _check_resolution(state, cfg.dt)
    k_half, v_full = _phase_factors(state, pot, cfg.dt)
    k_full = k_half * k_half
    snapshots = [state]
    stream = state.psi.values
    for i in range(1, steps[-1] + 1):
        # the first step enters mid-stream with the leading half kick
        stream = v_full * np.fft.ifft((k_half if i == 1 else k_full) * np.fft.fft(stream))
        if not np.isfinite(stream.sum()):
            raise NumericsError(f"non-finite wavefunction at step {i}", step_index=i)
        if i in recorded:
            psi = np.fft.ifft(k_half * np.fft.fft(stream))
            snapshots.append(QuantumState(
                Field(state.grid, psi), state.hbar, state.mass, state.time + i * cfg.dt
            ))
    return snapshots


def _snapshot_blocks(state: QuantumState, pot: Potential, dt: float):
    """`_exact_kernel` for exp(-iHt/hbar): steps -> the rows psi, their
    densities |psi|^2 and norms.  The rates are -iE per unit t/hbar, in the
    Fourier basis for a free potential and in an `eigh` basis otherwise."""
    grid, hbar, mass = state.grid, state.hbar, state.mass
    # a k**2 that overflows makes the rates and the Hamiltonian non-finite, and a
    # trap whose (omega0 x)**2 overflows is inf on the diagonal: the checks report both
    with np.errstate(all="ignore"):
        kinetic = hbar**2 * grid.k**2 / (2 * mass)
        if pot.kind == "free":
            return _exact_kernel(state.psi, -1j * kinetic, dt, hbar)
        # the kinetic symbol is even in k, so its circulant is real and
        # symmetric (the unpaired Nyquist mode contributes (-1)^(j-l))
        idx = np.arange(grid.num_points)
        h = np.fft.ifft(kinetic).real[(idx[:, None] - idx[None, :]) % grid.num_points]
        h[idx, idx] += mass * pot.per_mass(grid)
    if not np.all(np.isfinite(h)):
        raise NumericsError("non-finite Hamiltonian")
    energies, vecs = np.linalg.eigh(h)
    return _exact_kernel(state.psi, -1j * energies, dt, hbar, vecs.astype(complex))


def propagate(state: QuantumState, pot: Potential, cfg: EvolutionConfig) -> list[QuantumState]:
    """Exact snapshots at the times of `evolve`, each one application from t0.

    psi(t) = exp(-iHt/hbar) psi(t0), applied in an eigenbasis of H.  A free
    Hamiltonian is diagonal in k, so the basis is the Fourier transform; any
    other potential diagonalizes the spectral Hamiltonian H = V diag(E) V^T
    once, and psi(t) = V exp(-iEt/hbar) V^T psi(t0).
    """
    grid, hbar, mass = state.grid, state.hbar, state.mass
    rows = _snapshot_blocks(state, pot, cfg.dt)
    snapshots = [state]
    for steps in _row_blocks(cfg.snapshot_steps(), grid.num_points):
        psi = rows(steps)[0]
        snapshots += [
            QuantumState(Field(grid, row), hbar, mass, state.time + i * cfg.dt)
            for i, row in zip(steps, psi)
        ]
    return snapshots


def _energy_rows(psi, laplacian, grid: Grid, pot: Potential, hbar: float, mass: float, steps=None):
    """Energy of each row of a (rows, N) block of wavefunctions, given their psi''.

    The integrand is built over `laplacian` in place.  Raises NumericsError at
    the first row whose integral keeps an imaginary part above 1e-10 of
    max(1, |E|).  A free potential adds no u*psi term.
    """
    integrand = np.multiply(-(hbar**2) / (2 * mass), laplacian, out=laplacian)
    if pot.kind != "free":
        # u*psi a part at a time: a real u scales each part as the complex product would
        u = mass * pot.per_mass(grid)
        integrand.real += u * psi.real
        integrand.imag += u * psi.imag
    # psi * conj(integrand) is conj(conj(psi) * integrand) bit for bit, with no copy of conj(psi)
    np.multiply(psi, np.conjugate(integrand, out=integrand), out=integrand)
    total = np.conjugate(grid.dx * integrand.sum(axis=-1))
    _check_rows(
        ~(np.abs(total.imag) > 1e-10 * np.fmax(1.0, np.abs(total.real))), steps,
        lambda r: f"energy has imaginary residue {total.imag[r]:.3g}",
    )
    return total.real


def energy(state: QuantumState, pot: Potential) -> float:
    """Total energy integral psi* (-(hbar^2/2m) d2/dx2 + U) psi dx."""
    psi = state.psi.values[None]
    (lap,) = spectral_derivatives(psi, state.grid, (2,))
    return float(_energy_rows(psi, lap, state.grid, pot, state.hbar, state.mass)[0])


def _unit_norm(grid: Grid, samples: np.ndarray) -> np.ndarray:
    """Samples over their grid norm n = dx * sum(density): a real density over n, a
    wavefunction psi (density |psi|^2) over sqrt(n).  NumericsError unless 0 < n < inf."""
    quantum = np.iscomplexobj(samples)
    norm = grid.dx * np.sum(np.abs(samples) ** 2 if quantum else samples)
    if not 0 < norm < np.inf:
        name = "wavefunction" if quantum else "density"
        raise NumericsError(f"the {name} has no finite positive norm on the grid ({norm})")
    return samples / (np.sqrt(norm) if quantum else norm)


def gaussian_packet(
    grid: Grid,
    sigma0: float,
    hbar: float = 1.0,
    mass: float = 1.0,
    width_rate: float = 0.0,
    center: float = 0.0,
) -> QuantumState:
    """Gaussian density of width sigma0, normalized on the grid, at time 0.

    width_rate is the initial d(ln sigma)/dt; it enters as the quadratic
    phase exp(i m x^2 width_rate / 2 hbar), the velocity potential of a
    radially stretching Gaussian.
    """
    if not sigma0 > 0:
        raise ValueError(f"sigma0 must be positive, got {sigma0}")
    xc = grid.x - center
    # sigma0**2 underflowing to 0 is 0/0 at x = 0, and an overflowing phase is
    # inf/inf, which the norm check reports
    with np.errstate(all="ignore"):
        psi = np.exp(-(xc**2) / (4 * sigma0**2)).astype(np.result_type(grid.x.dtype, np.complex128))
        if width_rate != 0.0:
            psi = psi * np.exp(1j * mass * xc**2 * width_rate / (2 * hbar))
    return QuantumState(Field(grid, _unit_norm(grid, psi)), hbar, mass)


def plane_wave(grid: Grid, mode: int, hbar: float = 1.0, mass: float = 1.0) -> QuantumState:
    """exp(i k x) / sqrt(2L) with the grid-commensurate k = pi * mode / L: the
    one-component `superposition`."""
    return superposition(grid, [(mode, 1)], hbar, mass)


def superposition(
    grid: Grid,
    components: list[tuple[int, complex]],
    hbar: float = 1.0,
    mass: float = 1.0,
) -> QuantumState:
    """Normalized sum of plane waves given as (mode, amplitude) pairs, at time 0."""
    if not components:
        raise ValueError("superposition needs at least one component")
    psi = np.zeros(grid.num_points, dtype=complex)
    for mode, amp in components:
        if not -grid.num_points // 2 < mode < grid.num_points // 2:
            raise ValueError(f"mode {mode} is not resolvable on {grid.num_points} points")
        psi = psi + amp * np.exp(1j * (np.pi * mode / grid.half_width) * grid.x)
    return QuantumState(Field(grid, _unit_norm(grid, psi)), hbar, mass)
