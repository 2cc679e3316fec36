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

from dataclasses import dataclass

import numpy as np

from .diffusion import DiffusionState
from .grid import Field, spectral_derivatives
from .madelung import (
    QuantumState,
    action_per_mass,
    advective_velocity,
    density,
    diffusive_velocity,
    valid_mask,
    _floor_mask,
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

    Fields that do not apply to a diffusion state (the advective terms and the
    von Neumann entropy) are None.
    """

    ent_boltzmann: float
    fisher_information: float
    production_diffusive: float
    production_advective: float | None = None
    production_correlation: float | None = None
    ent_von_neumann: float | None = None
    k_B: float = 1.0


def _masked_integral(dx, integrand: np.ndarray, mask: np.ndarray):
    """dx * sum of the integrand over the valid points of each row (last axis).

    The integrand, a temporary of the caller, is zeroed off the mask in place.
    """
    np.copyto(integrand, 0.0, where=~mask)
    return dx * np.sum(integrand, axis=-1)


def _boltzmann(rho: np.ndarray, mask: np.ndarray, dx, k_B: float):
    """-k_B integral rho ln rho over the mask of each row; the log argument is 1 off it."""
    return -k_B * _masked_integral(dx, rho * np.log(np.where(mask, rho, 1)), mask)


# each row function computes under one errstate: extreme constants overflow its
# columns, which `_require_finite` (or an identity) reports, without numpy warnings
@np.errstate(all="ignore")
def _boltzmann_rows(rho: np.ndarray, dx, k_B: float) -> np.ndarray:
    """Boltzmann entropy of each row of a (rows, N) block of densities."""
    return _boltzmann(rho, _floor_mask(rho), dx, k_B)


def boltzmann_entropy(rho: Field, k_B: float = 1.0) -> float:
    """-k_B * integral(rho ln rho) dx, with 0*ln(0) = 0 at masked points: the
    one-row case of `_boltzmann_rows`."""
    return float(_boltzmann_rows(rho.values[None], rho.grid.dx, k_B)[0])


def production_advective(state: QuantumState, k_B: float = 1.0) -> float:
    """k_B <div u_a>: the density-weighted expansion rate of the flow, as
    `entropy_report` gives it."""
    return entropy_report(state, k_B).production_advective


def _density_terms(rho, grad, mask, dx, D: float, k_B: float) -> dict:
    """The Boltzmann entropy, the Fisher information (integral grad^2/rho over
    the mask) and k_B D Fisher of each row of a block of densities: the columns
    that quantum and diffusive rows share; `grad` is rho'."""
    fisher = _masked_integral(dx, grad * grad / np.where(mask, rho, 1), mask)
    return dict(
        ent_boltzmann=_boltzmann(rho, mask, dx, k_B),
        fisher_information=fisher,
        production_diffusive=k_B * D * fisher,
    )


def fisher_information(rho: Field) -> float:
    """integral (grad rho)^2 / rho dx over the valid mask; nonnegative.  The
    one-row case of `_diffusion_rows`."""
    columns, _, _ = _diffusion_rows(rho.values[None], rho.grid, 1.0, 1.0, [None])
    return float(columns["fisher_information"][0])


def production_diffusive(rho: Field, D: float, k_B: float = 1.0) -> float:
    """k_B * D * Fisher information; the diffusive entropy growth rate."""
    if not D > 0:
        raise ValueError(f"diffusivity must be positive, got {D}")
    return k_B * D * fisher_information(rho)


def _correlation_rate(rho, u_a, u_d, mask, dx, hbar: float, mass: float, k_B: float):
    half = hbar / (2 * mass)
    return (k_B / half) * _masked_integral(dx, rho * u_a * u_d, mask)


def production_correlation(state: QuantumState, k_B: float = 1.0) -> float:
    """(2m/hbar) k_B <u_a u_d>, with u_d taken at D = hbar/2m.

    u_d comes from the transform of rho, independently of psi'/psi.
    """
    rho = density(state)
    u_a = advective_velocity(state)
    u_d = diffusive_velocity(rho, state.hbar / (2 * state.mass))
    return float(_correlation_rate(
        rho.values, u_a.values, u_d.values, u_a.mask & u_d.mask,
        state.grid.dx, state.hbar, state.mass, k_B,
    ))


def _von_neumann(rho: np.ndarray, dx) -> np.ndarray:
    """-n ln n of each row's grid norm n = dx * sum(rho), the kernel's `norm` column."""
    n = dx * np.sum(rho, axis=-1)
    return -n * np.log(n)


def von_neumann_entropy(state: QuantumState) -> float:
    """-Tr(rho_op ln rho_op) of the density operator rho_op = |psi><psi|.

    On the grid rho_op is the matrix dx * psi psi^dagger.  Its only nonzero
    eigenvalue is the grid norm n = int |psi|^2 dx, so the entropy is
    -n ln n: zero for a normalized pure state, and unchanged by any unitary
    evolution.  Costs O(N) and needs no phase unwrap.
    """
    return float(_von_neumann(np.abs(state.psi.values[None]) ** 2, state.grid.dx)[0])


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


def _require_finite(columns: dict, times, kind: str = "entropy"):
    """NumericsError at the first row of the block with a non-finite value;
    `kind` names the columns."""
    present = {name: col for name, col in columns.items() if col is not None}
    finite = np.logical_and.reduce([np.isfinite(col) for col in present.values()])
    if not finite.all():
        row = int(np.argmin(finite))
        values = ", ".join(f"{name}={float(col[row])!r}" for name, col in present.items())
        raise NumericsError(f"non-finite {kind} diagnostics at t = {times[row]}: {values}")


@np.errstate(all="ignore")
def _quantum_rows(psi, grid, hbar, mass, k_B, times, rho=None, energy=None):
    """Entropy columns of a (rows, N) block of wavefunctions, one value per row.

    psi' and psi'' come from one forward transform and become the ratios
    r1 = psi'/psi and r2 = psi''/psi in place; `rho` is the block's |psi|^2
    when already computed.  div u_a = (hbar/m) Im(r2 - r1^2), rho'/rho =
    2 Re r1, and u_a + i u_d = -i (hbar/m) r1.  Returns the columns (keyed
    like EntropyReport) with rho, its valid mask and u_a + i u_d, which the
    runners reuse.  Raises NumericsError at the first row with a non-finite
    value; `times` names it.  `energy`, if given, maps psi'' to an "energy"
    column, which is added to the columns.
    """
    derivatives = spectral_derivatives(psi, grid, (1, 2))
    # the only look at psi'' before _psi_ratios divides it by psi
    energy_column = None if energy is None else energy(derivatives[1])
    rho, mask, (r1, r2) = _psi_ratios(psi, derivatives, rho)
    dx = grid.dx
    r2 -= r1 * r1  # div u_a = (hbar/m) Im(r2 - r1^2)
    advective = k_B * _masked_integral(dx, rho * (hbar / mass * r2.imag), mask)
    # rho' = 2 rho Re r1
    columns = _density_terms(rho, 2.0 * rho * r1.real, mask, dx, hbar / (2 * mass), k_B)
    v = _velocity_from_ratio(r1, hbar, mass)
    columns.update(
        production_advective=advective,
        production_correlation=_correlation_rate(rho, v.real, v.imag, mask, dx, hbar, mass, k_B),
    )
    _require_finite(columns, times)
    # left out of the check and its message: -n ln n is finite, since every row's
    # grid norm n passed the norm check of its state or of its kernel
    columns["ent_von_neumann"] = _von_neumann(rho, dx)
    if energy is not None:
        columns["energy"] = energy_column
    return columns, rho, mask, v


@np.errstate(all="ignore")
def _diffusion_rows(rho, grid, D, k_B, times):
    """Entropy columns of a (rows, N) block of densities diffusing at D.

    The Fisher information is computed once and scaled into the diffusive
    production.  Returns the columns with the valid mask and grad(rho); raises
    NumericsError at the first row with a non-finite value.
    """
    mask = _floor_mask(rho)
    (grad,) = spectral_derivatives(rho, grid, (1,))
    columns = _density_terms(rho, grad, mask, grid.dx, D, k_B)
    _require_finite(columns, times)
    return columns, mask, grad


def entropy_report(state: QuantumState | DiffusionState, k_B: float = 1.0) -> EntropyReport:
    """Aggregate the entropy diagnostics that apply to the given state.

    Quantum states report the von Neumann entropy and all production forms
    with D = hbar/2m, derived from r1 = psi'/psi and r2 = psi''/psi of one
    forward transform:
    div u_a = (hbar/m) Im(r2 - r1^2), rho'/rho = 2 Re r1, and
    u_a + i u_d = -i (hbar/m) r1.  Diffusion states report the Boltzmann
    entropy and the diffusive production at their own D.  The Fisher
    information is computed once and scaled into the diffusive production.
    The report is the one-row case of the block computation the runners use.
    Raises NumericsError if any reported value is not finite.
    """
    if isinstance(state, DiffusionState):
        columns, _, _ = _diffusion_rows(
            state.rho.values[None], state.grid, state.D, k_B, [state.time]
        )
    else:
        columns, *_ = _quantum_rows(
            state.psi.values[None], state.grid, state.hbar, state.mass, k_B, [state.time]
        )
    first = {name: None if col is None else float(col[0]) for name, col in columns.items()}
    return EntropyReport(k_B=k_B, **first)
