"""Hydrodynamic decomposition of a wavefunction.

Writing psi = sqrt(rho) * exp(i*S/hbar) turns the wavefunction into fluid
fields: the density rho, the velocity potential per unit mass S/m, the
advective velocity u_a = grad(S/m), and the curvature term known as the
Bohm potential.  The same machinery serves classical densities, where the
drift -D*grad(ln rho) plays the role of a diffusive velocity.

Velocities are always computed from grad(psi)/psi or grad(rho)/rho, never
from the unwrapped phase; unwrapping exists only to report the potential
itself.  Points where rho falls below DENSITY_FLOOR_RATIO * max(rho) are
excluded from every pointwise quantity (logarithms and the Bohm potential
are singular in near-vacuum); each ratio, like the Bohm curvature
laplacian(sqrt(rho))/sqrt(rho), is one masked division (`_masked_ratios`).
Each divided density is checked once (`_density_mask`); u_d has one body
(`_drift`), and the Bohm potential is the diffusive one at D = hbar/2m.  The
states, quantum or diffusive, come from one kernel (`schrodinger._exact_kernel`).
Fields are `grid.Field`s: complex for psi and u_a + i u_d, real otherwise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, integrate, spectral_derivative, spectral_derivatives

__all__ = [
    "DENSITY_FLOOR_RATIO",
    "NORM_TOLERANCE",
    "QuantumState",
    "UnwrapError",
    "valid_mask",
    "density",
    "complex_velocity",
    "advective_velocity",
    "diffusive_velocity",
    "bohm_potential",
    "diffusive_bohm_potential",
    "diffusive_bohm_force",
    "action_per_mass",
]

DENSITY_FLOOR_RATIO = 1e-12
NORM_TOLERANCE = 1e-8


class UnwrapError(ValueError):
    """Phase changes faster than the grid resolves; unwrapping is ambiguous."""


@dataclass(frozen=True)
class QuantumState:
    """A normalized wavefunction with its physical constants and clock."""

    psi: Field
    hbar: float = 1.0
    mass: float = 1.0
    time: float = 0.0

    def __post_init__(self):
        if not self.hbar > 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        if not self.mass > 0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if not np.iscomplexobj(self.psi.values):
            raise TypeError("QuantumState requires complex samples")
        norm = integrate(Field(self.psi.grid, np.abs(self.psi.values) ** 2))
        if abs(norm - 1.0) > NORM_TOLERANCE:
            raise ValueError(f"state norm {norm!r} deviates from 1 by more than {NORM_TOLERANCE}")

    @property
    def grid(self) -> Grid:
        return self.psi.grid


def _floor_mask(rho: np.ndarray, floor_ratio: float = DENSITY_FLOOR_RATIO) -> np.ndarray:
    """Row by row over the last axis: points at or above floor_ratio times the row's peak."""
    peak = rho.max(axis=-1, keepdims=True)
    if not np.all(peak > 0):
        raise ValueError("density is identically zero")
    return rho >= floor_ratio * peak


def valid_mask(rho: Field, floor_ratio: float = DENSITY_FLOOR_RATIO) -> np.ndarray:
    """Points where the density is large enough for pointwise diagnostics."""
    return _floor_mask(rho.values, floor_ratio) & rho.mask


def _density_mask(rho: Field, D: float = 1.0) -> np.ndarray:
    """`valid_mask` of a density that a pointwise quantity at diffusivity D
    divides by; ValueError for D <= 0, a negative density, or a field whose own
    mask excludes every point.  The mask holds at least the peak."""
    if not D > 0:
        raise ValueError(f"diffusivity must be positive, got {D}")
    if rho.values.min() < 0:
        raise ValueError("density must be nonnegative")
    if not rho.mask.any():
        raise ValueError("density below the floor everywhere; no valid points")
    return valid_mask(rho)


def density(state: QuantumState) -> Field:
    """rho = |psi|^2; defined and nonnegative everywhere."""
    return Field(state.grid, np.abs(state.psi.values) ** 2)


def _masked_ratios(numerators, denominator: np.ndarray, mask: np.ndarray) -> list[np.ndarray]:
    """Each numerator divided by the denominator in place, zeroed off the mask.

    The one masked division behind every grad(f)/f: the divisor is the
    denominator on the mask and 1 off it, so no invalid point is divided by a
    vanishing sample.  Arrays of (..., N) rows divide alike.
    """
    safe = np.where(mask, denominator, 1)
    off = ~mask
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for n in numerators:
            n /= safe
            np.copyto(n, 0, where=off)
    return list(numerators)


def _psi_ratios(psi: np.ndarray, derivatives, rho: np.ndarray | None = None):
    """rho = |psi|^2 (unless given), its valid mask, and each derivative of psi divided by psi.

    psi is (..., N) and every row is masked against its own peak; the
    derivatives come from one `spectral_derivatives` call and are divided by
    psi in place, the ratios zeroed off the valid mask.
    """
    if rho is None:
        rho = np.abs(psi) ** 2
    mask = _floor_mask(rho)
    return rho, mask, _masked_ratios(derivatives, psi, mask)


def _velocity_from_ratio(ratio: np.ndarray, hbar: float, mass: float) -> np.ndarray:
    """-i (hbar/m) grad(psi)/psi, over `ratio` in place: u_a in the real part, u_d
    (D = hbar/2m) in the imaginary."""
    return np.multiply(-1j * (hbar / mass), ratio, out=ratio)


def complex_velocity(state: QuantumState) -> Field:
    """v = -i (hbar/m) grad(psi)/psi.

    The real part is the advective velocity u_a, the imaginary part is the
    diffusive velocity -(hbar/2m) grad(ln rho).  Masked points are marked
    invalid and excluded from diagnostics.
    """
    psi = state.psi.values
    _, mask, (ratio,) = _psi_ratios(psi, spectral_derivatives(psi, state.grid, (1,)))
    return Field(state.grid, _velocity_from_ratio(ratio, state.hbar, state.mass), mask)


def advective_velocity(state: QuantumState) -> Field:
    """u_a = grad(S/m), taken as the real part of the complex velocity."""
    v = complex_velocity(state)
    return Field(state.grid, v.values.real, v.valid)


def diffusive_velocity(rho: Field, D: float) -> Field:
    """Fick's-law drift u_d = -D grad(ln rho), via grad(rho)/rho."""
    mask = _density_mask(rho, D)
    grad = spectral_derivative(rho.values, rho.grid)
    return Field(rho.grid, _drift(rho.values, grad, mask, D), mask)


def _drift(rho: np.ndarray, grad: np.ndarray, mask: np.ndarray, D: float) -> np.ndarray:
    """-D grad/rho on the mask, 0 elsewhere, rows of (..., N) blocks alike; with
    grad = rho' the one u_d of every path."""
    (drift,) = _masked_ratios([-D * grad], rho, mask)
    return drift


def bohm_potential(rho: Field, hbar: float = 1.0, mass: float = 1.0) -> Field:
    """Q/m = -(hbar^2 / 2 m^2) laplacian(sqrt(rho)) / sqrt(rho): the diffusive
    Bohm potential at D = hbar/2m."""
    return diffusive_bohm_potential(rho, hbar / (2 * mass))


def diffusive_bohm_potential(rho: Field, D: float) -> Field:
    """-2 D^2 laplacian(sqrt(rho)) / sqrt(rho), with sqrt taken pointwise.

    Coincides pointwise with the quantum Bohm potential when D = hbar/2m.
    """
    mask = _density_mask(rho, D)
    a = np.sqrt(rho.values)
    (curv,) = _masked_ratios([spectral_derivative(a, rho.grid, 2)], a, mask)
    return Field(rho.grid, -2.0 * D * D * curv, mask)


def diffusive_bohm_force(rho: Field, D: float) -> Field:
    """Gradient of the diffusive Bohm potential, formed from density ratios.

    With r_n = grad^n(rho)/rho the curvature is h = r2/2 - r1^2/4 and
    grad(-2 D^2 h) = -2 D^2 [ (r3 - r2 r1)/2 - r1 (r2 - r1^2)/2 ].

    Combining the ratios pointwise keeps deep-tail points usable: spectral
    derivatives of sqrt(rho) are poisoned globally once the density tail
    reaches the additive roundoff floor (the square root turns that floor
    into kinks), while rho itself stays smooth.
    """
    mask = _density_mask(rho, D)
    derivatives = spectral_derivatives(rho.values, rho.grid, (1, 2, 3))
    r1, r2, r3 = _masked_ratios(derivatives, rho.values, mask)
    h_prime = 0.5 * (r3 - r2 * r1) - 0.5 * r1 * (r2 - r1 * r1)
    return Field(rho.grid, -2.0 * D * D * h_prime, mask)


def action_per_mass(state: QuantumState) -> Field:
    """S/m, phase-unwrapped along the grid from x = -L, up to a constant.

    Raises UnwrapError when the finite-difference gradient of the result
    disagrees grossly with u_a, which signals a phase jump beyond pi between
    adjacent points (under-resolution).
    """
    rho = density(state)
    mask = valid_mask(rho)
    phase = np.angle(state.psi.values[mask])
    unwrapped = np.unwrap(phase)
    scale = state.hbar / state.mass
    s_tilde = np.zeros_like(rho.values)
    s_tilde[mask] = scale * unwrapped

    u_a = advective_velocity(state)
    idx = np.flatnonzero(mask)
    if idx.size >= 3:
        grad = np.gradient(s_tilde[idx], state.grid.x[idx], edge_order=2)
        slip = np.pi * scale / state.grid.dx
        mismatch = np.abs(grad - u_a.values[idx]).max()
        if mismatch > 0.5 * slip:
            raise UnwrapError(
                f"gradient of unwrapped phase misses u_a by {mismatch:.3g} "
                f"(branch-slip scale {slip:.3g}); refine the grid"
            )
    return Field(state.grid, s_tilde, mask)

