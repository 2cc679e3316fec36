"""Scalar entropy functionals and their production rates.

Boltzmann entropy -k_B * integral(rho ln rho) plays the role of a fluid
entropy for both the quantum hydrodynamic flow and classical diffusion.
Its growth rate takes three interchangeable forms that the test suite pins
against each other:

  * advective:    k_B <div u_a>            (expansion of the flow)
  * diffusive:    k_B * D * Fisher(rho)    (always nonnegative)
  * correlation:  (2m/hbar) k_B <u_a u_d>  (equals the advective form by
                                            integration by parts, which the
                                            spectral quadrature satisfies to
                                            rounding)

The von Neumann functional implemented here is the double-integral real
form over sqrt(rho) and the unwrapped velocity potential.  It needs the
global phase branch.  Its kernel separates into products of single
integrals, so it costs O(N).  Masked points are excluded; the sqrt(rho rho')
weight suppresses them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion import DiffusionState
from .grid import RealField, spectral_derivative
from .madelung import (
    QuantumState,
    action_per_mass,
    advective_velocity,
    density,
    diffusive_velocity,
    valid_mask,
    _psi_ratios,
)

__all__ = [
    "EntropyReport",
    "boltzmann_entropy",
    "production_advective",
    "fisher_information",
    "production_diffusive",
    "production_correlation",
    "von_neumann_entropy",
    "entropy_report",
]


@dataclass(frozen=True)
class EntropyReport:
    """One state's scalar entropy diagnostics.

    Fields that do not apply (advective terms for a diffusion state, the
    von Neumann entropy unless requested) are None.
    """

    ent_boltzmann: float
    fisher_information: float
    production_diffusive: float
    production_advective: float | None = None
    production_correlation: float | None = None
    ent_von_neumann: float | None = None
    k_B: float = 1.0


def _masked_integral(grid_dx, integrand: np.ndarray, mask: np.ndarray) -> float:
    return float(grid_dx * np.sum(np.where(mask, integrand, 0.0)))


def boltzmann_entropy(rho: RealField, k_B: float = 1.0) -> float:
    """-k_B * integral(rho ln rho) dx, with 0*ln(0) = 0 at masked points."""
    mask = valid_mask(rho)
    with np.errstate(invalid="ignore", divide="ignore"):
        integrand = rho.values * np.log(np.where(mask, rho.values, 1.0))
    return -k_B * _masked_integral(rho.grid.dx, integrand, mask)


def production_advective(state: QuantumState, k_B: float = 1.0) -> float:
    """k_B <div u_a>: the density-weighted expansion rate of the flow."""
    rho = density(state)
    mask, (r1, r2) = _psi_ratios(state, orders=(1, 2))
    div_ua = (state.hbar / state.mass) * np.imag(r2 - r1 * r1)
    return k_B * _masked_integral(state.grid.dx, rho.values * div_ua, mask)


def fisher_information(rho: RealField) -> float:
    """integral (grad rho)^2 / rho dx over the valid mask; nonnegative."""
    mask = valid_mask(rho)
    grad = spectral_derivative(rho.values, rho.grid)
    with np.errstate(invalid="ignore", divide="ignore"):
        integrand = grad * grad / np.where(mask, rho.values, 1.0)
    return _masked_integral(rho.grid.dx, integrand, mask)


def production_diffusive(rho: RealField, D: float, k_B: float = 1.0) -> float:
    """k_B * D * Fisher information; the diffusive entropy growth rate."""
    if not D > 0:
        raise ValueError(f"diffusivity must be positive, got {D}")
    return k_B * D * fisher_information(rho)


def production_correlation(state: QuantumState, k_B: float = 1.0) -> float:
    """(2m/hbar) k_B <u_a u_d>, with u_d taken at D = hbar/2m."""
    rho = density(state)
    u_a = advective_velocity(state)
    half = state.hbar / (2 * state.mass)
    u_d = diffusive_velocity(rho, half)
    mask = u_a.mask & u_d.mask
    integrand = rho.values * u_a.values * u_d.values
    return (k_B / half) * _masked_integral(state.grid.dx, integrand, mask)


def von_neumann_entropy(state: QuantumState) -> float:
    """Double-integral entropy functional of sqrt(rho) and the phase.

    -int int sqrt(rho rho') [ ln sqrt(rho rho') cos(dS/hbar)
                              + (dS/hbar) sin(dS/hbar) ] dx dx'

    dS is the difference of the unwrapped velocity potential S = m * (S/m);
    the branch is fixed by unwrapping from x = -L.  With a = sqrt(rho),
    theta = S/hbar and psi = a exp(i theta), the kernel is
    Re[(ln a + ln a' + i theta - i theta') exp(-i theta) exp(i theta')], so
    the double integral equals -2 Re[conj(int psi) * int psi (ln a - i theta)].
    """
    rho = density(state)
    mask = valid_mask(rho)
    s_per_mass = action_per_mass(state)  # propagates unwrap failures
    amp = np.sqrt(rho.values[mask])
    theta = (state.mass / state.hbar) * s_per_mass.values[mask]
    psi = amp * np.exp(1j * theta)
    dx = state.grid.dx
    total = dx * psi.sum()
    weighted = dx * np.sum(psi * (np.log(amp) - 1j * theta))
    return float(-2.0 * (np.conj(total) * weighted).real)


def entropy_report(
    state: QuantumState | DiffusionState,
    k_B: float = 1.0,
    include_von_neumann: bool = False,
) -> EntropyReport:
    """Aggregate the entropy diagnostics that apply to the given state.

    Quantum states report all production forms with D = hbar/2m; diffusion
    states report only the Boltzmann entropy and the diffusive production at
    their own D.
    """
    if isinstance(state, DiffusionState):
        return EntropyReport(
            ent_boltzmann=boltzmann_entropy(state.rho, k_B),
            fisher_information=fisher_information(state.rho),
            production_diffusive=production_diffusive(state.rho, state.D, k_B),
            k_B=k_B,
        )
    rho = density(state)
    vn = None
    if include_von_neumann:
        vn = von_neumann_entropy(state)
    return EntropyReport(
        ent_boltzmann=boltzmann_entropy(rho, k_B),
        fisher_information=fisher_information(rho),
        production_diffusive=production_diffusive(rho, state.hbar / (2 * state.mass), k_B),
        production_advective=production_advective(state, k_B),
        production_correlation=production_correlation(state, k_B),
        ent_von_neumann=vn,
        k_B=k_B,
    )
