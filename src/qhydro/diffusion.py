"""Classical Fickian evolution and the force/consistency diagnostics.

The heat equation is integrated with the exact spectral kernel, through the
same `_exact_kernel` that propagates wavefunctions: the basis is the Fourier
transform, the rates -D k^2 are real, and every mode of the initial density
is multiplied by exp(-D k^2 t) once per snapshot.  This is unconditionally
stable, conserves mass to rounding (the zero mode is untouched), and keeps a
Gaussian exactly Gaussian with sigma^2(t) = sigma0^2 + 2 D t, so all residual
error shows up in the diagnostics rather than in the evolution itself.

Residual operations return whole fields, not norms, so a caller can
localize where an identity degrades.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, spectral_derivative
from .madelung import (
    QuantumState,
    advective_velocity,
    density,
    diffusive_velocity,
    valid_mask,
    _check_norm,
    _masked_ratios,
)
from .schrodinger import _check_rows, _exact_kernel, _unit_norm

__all__ = [
    "DiffusionState",
    "gaussian_density",
    "diffuse_step",
    "diffusive_acceleration",
    "fokker_planck_residual",
    "entropy_equation_residual",
]

NEGATIVITY_TOLERANCE = 1e-14


@dataclass(frozen=True)
class DiffusionState:
    """A normalized density undergoing diffusion with constant D."""

    rho: Field
    D: float
    time: float = 0.0

    def __post_init__(self):
        if not self.D > 0:
            raise ValueError(f"D must be positive, got {self.D}")
        if np.iscomplexobj(self.rho.values):
            raise TypeError("DiffusionState requires real samples")
        if self.rho.values.min() < 0:
            raise ValueError("density must be nonnegative")
        _check_norm(self.rho, "density")

    @property
    def grid(self) -> Grid:
        return self.rho.grid


def gaussian_density(grid: Grid, sigma: float, D: float, time: float = 0.0) -> DiffusionState:
    """Normalized Gaussian density of width sigma, centred at x = 0."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    # sigma**2 underflowing to 0 is 0/0 at x = 0, which the norm check reports
    with np.errstate(all="ignore"):
        rho = np.exp(-(grid.x**2) / (2 * sigma**2))
    return DiffusionState(Field(grid, _unit_norm(grid, rho)), D, time)


def _clipped(values: np.ndarray, steps) -> np.ndarray:
    """The real part of a block of heat-kernel rows, rounding-level negatives
    clipped to 0.  NumericsError at the first row that goes negative beyond
    rounding."""
    rho = values.real.copy()  # contiguous: every reduction and the clip run on it
    floor = -NEGATIVITY_TOLERANCE * np.fmax(1.0, rho.max(axis=-1))
    worst = rho.min(axis=-1)
    _check_rows(
        worst >= floor, steps,
        lambda r: f"density went negative ({worst[r]:.3g}); the initial condition is unresolved",
    )
    np.copyto(rho, 0.0, where=rho < 0)
    return rho


def _kernel_blocks(initial: DiffusionState, dt: float):
    """`_exact_kernel` for the heat equation: steps -> the densities at those
    steps (twice) and their norms.  The basis is the Fourier transform, and
    the rates -D k^2 stay real; a k**2 that overflows is a non-finite rate,
    which the kernel reports."""
    with np.errstate(all="ignore"):
        rates = -initial.D * initial.grid.k**2
    return _exact_kernel(initial.rho, rates, dt, clip=_clipped)


def diffuse_step(state: DiffusionState, dt: float) -> DiffusionState:
    """Exact heat-kernel step: rho_k -> rho_k * exp(-D k^2 dt)."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    rho = _kernel_blocks(state, dt)([1])[0][0]
    return DiffusionState(Field(state.grid, rho), state.D, state.time + dt)


def _velocity_and_slope(state: DiffusionState):
    """u_d and du_d/dx = -D rho''/rho + u_d^2/D, on the state's valid mask."""
    rho, u = state.rho.values, diffusive_velocity(state.rho, state.D)
    (curvature,) = _masked_ratios([-state.D * spectral_derivative(rho, state.grid, 2)], rho, u.mask)
    return u.mask, u.values, curvature + u.values * u.values / state.D


def diffusive_acceleration(before: DiffusionState, after: DiffusionState) -> Field:
    """Material acceleration du_d/dt + u_d du_d/dx at the midpoint time.

    The time derivative is the centered difference of the two snapshots'
    velocity fields; the advective term averages the two snapshots, which is
    the midpoint field to second order in the gap.
    """
    if after.time <= before.time:
        raise ValueError("after must be later than before")
    if before.grid != after.grid:
        raise ValueError("snapshots live on different grids")
    if before.D != after.D:
        raise ValueError("snapshots carry different diffusivities")
    mask_b, u_b, s_b = _velocity_and_slope(before)
    mask_a, u_a, s_a = _velocity_and_slope(after)
    mask = mask_b & mask_a
    if not mask.any():
        raise ValueError("no jointly valid points")
    gap = after.time - before.time
    du_dt = (u_a - u_b) / gap
    u_mid = 0.5 * (u_a + u_b)
    s_mid = 0.5 * (s_a + s_b)
    accel = np.where(mask, du_dt + u_mid * s_mid, 0.0)
    return Field(before.grid, accel, mask)


def fokker_planck_residual(state: QuantumState) -> Field:
    """Discretization error of the advective-diffusive continuity rewrite.

    r = d(rho)/dt + div[rho (u_a - u_d)] - (hbar/2m) lap(rho), with the time
    derivative supplied by the continuity equation -div(rho u_a).  The
    expression is algebraically zero, so the returned field measures pure
    discretization error.
    """
    grid = state.grid
    rho = density(state)
    u_a = advective_velocity(state)
    u_d = diffusive_velocity(rho, state.hbar / (2 * state.mass))
    mask = u_a.mask & u_d.mask
    flux_a = np.where(mask, rho.values * u_a.values, 0.0)
    flux = np.where(mask, rho.values * (u_a.values - u_d.values), 0.0)
    drho_dt = -spectral_derivative(flux_a, grid)
    r = (
        drho_dt
        + spectral_derivative(flux, grid)
        - (state.hbar / (2 * state.mass)) * spectral_derivative(rho.values, grid, 2)
    )
    return Field(grid, r)


def entropy_equation_residual(before: QuantumState, after: QuantumState) -> Field:
    """Residual of the entropy-density balance between two close snapshots.

    r = ds/dt + div[(s - rho) u_a] - (1/D) rho u_a u_d, with s = -rho ln rho,
    ds/dt the centered difference of the snapshots, and the spatial terms
    evaluated on the averaged midpoint fields, and D = hbar/2m.
    """
    if after.time <= before.time:
        raise ValueError("after must be later than before")
    if before.grid != after.grid:
        raise ValueError("snapshots live on different grids")
    grid, D = before.grid, before.hbar / (2 * before.mass)

    def entropy_density(rho):
        mask = valid_mask(rho)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(mask, -rho.values * np.log(np.where(mask, rho.values, 1.0)), 0.0), mask

    rho_b, rho_a = density(before), density(after)
    s_b, mask_b = entropy_density(rho_b)
    s_a, mask_a = entropy_density(rho_a)
    gap = after.time - before.time
    ds_dt = (s_a - s_b) / gap

    psi_mid = 0.5 * (before.psi.values + after.psi.values)
    t_mid = 0.5 * (before.time + after.time)
    mid = QuantumState(Field(grid, _unit_norm(grid, psi_mid)), before.hbar, before.mass, t_mid)
    rho_m = 0.5 * (rho_b.values + rho_a.values)
    s_m = 0.5 * (s_b + s_a)
    u_a = advective_velocity(mid)
    u_d = diffusive_velocity(Field(grid, rho_m), D)
    mask = mask_b & mask_a & u_a.mask & u_d.mask
    flux = np.where(mask, (s_m - rho_m) * u_a.values, 0.0)
    source = np.where(mask, rho_m * u_a.values * u_d.values, 0.0) / D
    r = ds_dt + spectral_derivative(flux, grid) - source
    return Field(grid, r)
