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

The von Neumann entropy -Tr(rho_op ln rho_op) of a state is taken of its
density operator |psi><psi|, with ln an operator function.  It is a
function of the spectrum alone, so no unitary evolution changes it.

The kernel-log functional is a different quantity: the double integral of
the pointwise logarithm of the kernel rho(x, x') = psi(x) conj(psi(x')),
written over sqrt(rho) and the unwrapped velocity potential.  It needs the
global phase branch and is not unitarily invariant.  Its kernel separates
into products of single integrals, so it costs O(N).  Masked points are
excluded; the sqrt(rho rho') weight suppresses them.
"""
from __future__ import annotations

import math
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
    _velocity_from_ratio,
)
from .schrodinger import NumericsError

__all__ = [
    "EntropyReport",
    "boltzmann_entropy",
    "production_advective",
    "fisher_information",
    "production_diffusive",
    "production_correlation",
    "von_neumann_entropy",
    "kernel_log_functional",
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


def _boltzmann(rho: RealField, mask: np.ndarray, k_B: float) -> float:
    with np.errstate(invalid="ignore", divide="ignore"):
        integrand = rho.values * np.log(np.where(mask, rho.values, 1.0))
    return -k_B * _masked_integral(rho.grid.dx, integrand, mask)


def boltzmann_entropy(rho: RealField, k_B: float = 1.0) -> float:
    """-k_B * integral(rho ln rho) dx, with 0*ln(0) = 0 at masked points."""
    return _boltzmann(rho, valid_mask(rho), k_B)


def _advective_rate(state: QuantumState, rho: RealField, mask, r1, r2, k_B: float) -> float:
    # div u_a = (hbar/m) Im(grad^2 psi/psi - (grad psi/psi)^2)
    div_ua = (state.hbar / state.mass) * np.imag(r2 - r1 * r1)
    return k_B * _masked_integral(state.grid.dx, rho.values * div_ua, mask)


def production_advective(state: QuantumState, k_B: float = 1.0) -> float:
    """k_B <div u_a>: the density-weighted expansion rate of the flow."""
    rho, mask, (r1, r2) = _psi_ratios(state, orders=(1, 2))
    return _advective_rate(state, rho, mask, r1, r2, k_B)


def _fisher(rho: RealField, grad: np.ndarray, mask: np.ndarray) -> float:
    with np.errstate(invalid="ignore", divide="ignore"):
        integrand = grad * grad / np.where(mask, rho.values, 1.0)
    return _masked_integral(rho.grid.dx, integrand, mask)


def fisher_information(rho: RealField) -> float:
    """integral (grad rho)^2 / rho dx over the valid mask; nonnegative."""
    return _fisher(rho, spectral_derivative(rho.values, rho.grid), valid_mask(rho))


def production_diffusive(rho: RealField, D: float, k_B: float = 1.0) -> float:
    """k_B * D * Fisher information; the diffusive entropy growth rate."""
    if not D > 0:
        raise ValueError(f"diffusivity must be positive, got {D}")
    return k_B * D * fisher_information(rho)


def _correlation_rate(state: QuantumState, rho: RealField, u_a, u_d, mask, k_B: float) -> float:
    half = state.hbar / (2 * state.mass)
    integrand = rho.values * u_a * u_d
    return (k_B / half) * _masked_integral(state.grid.dx, integrand, mask)


def production_correlation(state: QuantumState, k_B: float = 1.0) -> float:
    """(2m/hbar) k_B <u_a u_d>, with u_d taken at D = hbar/2m.

    u_d comes from the transform of rho, independently of psi'/psi.
    """
    rho = density(state)
    u_a = advective_velocity(state)
    u_d = diffusive_velocity(rho, state.hbar / (2 * state.mass))
    return _correlation_rate(state, rho, u_a.values, u_d.values, u_a.mask & u_d.mask, k_B)


def von_neumann_entropy(state: QuantumState) -> float:
    """-Tr(rho_op ln rho_op) of the density operator rho_op = |psi><psi|.

    On the grid rho_op is the matrix dx * psi psi^dagger.  Its only nonzero
    eigenvalue is the grid norm n = int |psi|^2 dx, so the entropy is
    -n ln n: zero for a normalized pure state, and unchanged by any unitary
    evolution.  Costs O(N) and needs no phase unwrap.
    """
    psi = state.psi.values
    n = state.grid.dx * np.vdot(psi, psi).real
    return float(-n * np.log(n))


def kernel_log_functional(state: QuantumState) -> float:
    """Double integral of the pointwise log of the kernel psi(x) conj(psi(x')).

    -int int Re[conj(rho(x,x')) ln rho(x,x')] dx dx', with rho(x,x') =
    psi(x) conj(psi(x')) and ln taken pointwise on the unwrapped phase branch,
    not as an operator function.  This is not the von Neumann entropy and is
    not unitarily invariant: a boost psi -> exp(i k0 x) psi leaves rho(x)
    unchanged but changes the value, and it drifts under free evolution.
    Written out,

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

    Quantum states report all production forms with D = hbar/2m, derived
    from r1 = psi'/psi and r2 = psi''/psi of one forward transform:
    div u_a = (hbar/m) Im(r2 - r1^2), rho'/rho = 2 Re r1, and
    u_a + i u_d = -i (hbar/m) r1.  Diffusion states report the Boltzmann
    entropy and the diffusive production at their own D.  The Fisher
    information is computed once and scaled into the diffusive production.
    Raises NumericsError if any reported value is not finite.
    """
    quantum = {}
    if isinstance(state, DiffusionState):
        rho, D = state.rho, state.D
        mask = valid_mask(rho)
        fisher = fisher_information(rho)
    else:
        rho, mask, (r1, r2) = _psi_ratios(state, orders=(1, 2))
        D = state.hbar / (2 * state.mass)
        v = _velocity_from_ratio(state, r1)
        fisher = _fisher(rho, 2.0 * rho.values * r1.real, mask)
        quantum = dict(
            production_advective=_advective_rate(state, rho, mask, r1, r2, k_B),
            production_correlation=_correlation_rate(state, rho, v.real, v.imag, mask, k_B),
            ent_von_neumann=von_neumann_entropy(state) if include_von_neumann else None,
        )
    report = EntropyReport(
        ent_boltzmann=_boltzmann(rho, mask, k_B),
        fisher_information=fisher,
        production_diffusive=k_B * D * fisher,
        k_B=k_B,
        **quantum,
    )
    if not all(math.isfinite(x) for x in vars(report).values() if x is not None):
        raise NumericsError(f"non-finite entropy diagnostics at t = {state.time}: {report}")
    return report
