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
from .grid import Field, integrate, spectral_derivatives
from .madelung import (
    QuantumState,
    action_per_mass,
    advective_velocity,
    density,
    diffusive_velocity,
    valid_mask,
    _Support,
    _masked_ratios,
    _velocity_from_ratio,
)
from .schrodinger import _check_rows

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


def _boltzmann(rho: np.ndarray, support: _Support, dx, k_B: float):
    """-k_B integral rho ln rho over the mask of each row, from rho on the
    window; the log argument is 1 off the mask."""
    return -k_B * support.integral(dx, np.multiply, rho, np.log(np.where(support.mask, rho, 1)))


# each row function computes under one errstate: extreme constants overflow its
# columns, which `_require_finite` (or an identity) reports, without numpy warnings
@np.errstate(all="ignore")
def _boltzmann_rows(rho: np.ndarray, dx, k_B: float) -> np.ndarray:
    """Boltzmann entropy of each row of a (rows, N) block of densities."""
    support = _Support(rho)
    return _boltzmann(rho[:, support.cols], support, dx, k_B)


def boltzmann_entropy(rho: Field, k_B: float = 1.0) -> float:
    """-k_B * integral(rho ln rho) dx, with 0*ln(0) = 0 at masked points: the
    one-row case of `_boltzmann_rows`."""
    return float(_boltzmann_rows(rho.values[None], rho.grid.dx, k_B)[0])


def production_advective(state: QuantumState, k_B: float = 1.0) -> float:
    """k_B <div u_a>: the density-weighted expansion rate of the flow, as
    `entropy_report` gives it."""
    return entropy_report(state, k_B).production_advective


def _density_terms(rho, grad, support: _Support, dx, D: float, k_B: float) -> dict:
    """The Boltzmann entropy, the Fisher information (integral grad^2/rho over
    the mask) and k_B D Fisher of each row of a block of densities: the columns
    that quantum and diffusive rows share; `rho` and `grad` = rho' are given on
    the window."""
    fisher = support.integral(dx, np.divide, grad * grad, np.where(support.mask, rho, 1))
    return dict(
        ent_boltzmann=_boltzmann(rho, support, dx, k_B),
        fisher_information=fisher,
        production_diffusive=k_B * D * fisher,
    )


def fisher_information(rho: Field) -> float:
    """integral (grad rho)^2 / rho dx over the valid mask; nonnegative.  The
    one-row case of `_diffusion_rows`."""
    columns = _diffusion_rows(rho.values[None], rho.grid, 1.0, 1.0)[0]
    return float(_require_finite(columns, [None])["fisher_information"][0])


def production_diffusive(rho: Field, D: float, k_B: float = 1.0) -> float:
    """k_B * D * Fisher information; the diffusive entropy growth rate."""
    if not D > 0:
        raise ValueError(f"diffusivity must be positive, got {D}")
    return k_B * D * fisher_information(rho)


def _correlation_rate(rho, u_a, u_d, support: _Support, dx, hbar: float, mass: float, k_B: float):
    half = hbar / (2 * mass)
    return (k_B / half) * support.integral(dx, np.multiply, rho * u_a, u_d)


def production_correlation(state: QuantumState, k_B: float = 1.0) -> float:
    """(2m/hbar) k_B <u_a u_d>, with u_d taken at D = hbar/2m.

    u_d comes from the transform of rho, independently of psi'/psi.
    """
    rho = density(state)
    u_a = advective_velocity(state)
    u_d = diffusive_velocity(rho, state.hbar / (2 * state.mass))
    support = _Support(rho.values)  # the mask of u_a and of u_d
    return float(_correlation_rate(
        *(f.values[support.cols] for f in (rho, u_a, u_d)), support,
        state.grid.dx, state.hbar, state.mass, k_B,
    ))


def von_neumann_entropy(state: QuantumState) -> float:
    """-Tr(rho_op ln rho_op) of the density operator rho_op = |psi><psi|.

    On the grid rho_op is the matrix dx * psi psi^dagger.  Its only nonzero
    eigenvalue is the grid norm n = int |psi|^2 dx, so the entropy is
    -n ln n: zero for a normalized pure state, and unchanged by any unitary
    evolution.  Costs O(N) and needs no phase unwrap.
    """
    n = integrate(density(state))
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


def _require_finite(columns: dict, times) -> dict:
    """`columns`, or NumericsError at the first row of a block where any present (not
    None) column is not finite; the message gives the row's time `times[row]` and
    every present column's value in it."""
    present = {name: col for name, col in columns.items() if col is not None}
    _check_rows(
        np.logical_and.reduce([np.isfinite(col) for col in present.values()]), None,
        lambda row: f"non-finite diagnostics at t = {times[row]}: "
        + ", ".join(f"{name}={float(col[row])!r}" for name, col in present.items()),
    )
    return columns


@np.errstate(all="ignore")
def _quantum_rows(psi, grid, hbar, mass, k_B, rho=None, energy=None):
    """Entropy columns of a (rows, N) block of wavefunctions, one value per row.

    psi' and psi'' come from one forward transform; `rho` is the block's
    |psi|^2 when already computed.  Every term after the transforms is
    computed on the block's valid column window (`madelung._Support`): the
    ratios r1 = psi'/psi and r2 = psi''/psi, div u_a = (hbar/m) Im(r2 - r1^2),
    rho'/rho = 2 Re r1 and u_a + i u_d = -i (hbar/m) r1.  Returns the columns
    (keyed like EntropyReport), u_a + i u_d on the window and the support; the
    runner dumps u_a and checks the columns.  `energy`, if given, maps psi'' to
    an "energy" column, which is added to the columns; it may overwrite psi''.
    """
    if rho is None:
        rho = np.abs(psi) ** 2
    support = _Support(rho)
    # psi' is made over the spectrum in place; the ratios need only the window
    # of each derivative, and the energy integrand is built over psi'' in place
    laplacian, gradient = spectral_derivatives(psi, grid, (2, 1))
    r1 = gradient[:, support.cols].copy()
    del gradient
    r2 = laplacian[:, support.cols].copy()
    energy_column = None if energy is None else energy(laplacian)
    del laplacian
    rho_w = rho[:, support.cols]
    _masked_ratios([r1, r2], psi[:, support.cols], support.mask)
    dx = grid.dx
    r2 -= r1 * r1  # div u_a = (hbar/m) Im(r2 - r1^2)
    advective = k_B * support.integral(dx, np.multiply, rho_w, hbar / mass * r2.imag)
    del r2
    # rho' = 2 rho Re r1
    columns = _density_terms(rho_w, 2.0 * rho_w * r1.real, support, dx, hbar / (2 * mass), k_B)
    v = _velocity_from_ratio(r1, hbar, mass)
    columns.update(
        production_advective=advective,
        production_correlation=_correlation_rate(
            rho_w, v.real, v.imag, support, dx, hbar, mass, k_B
        ),
    )
    if energy is not None:
        columns["energy"] = energy_column
    return columns, v, support


@np.errstate(all="ignore")
def _diffusion_rows(rho, grid, D, k_B):
    """Entropy columns of a (rows, N) block of densities diffusing at D.

    The Fisher information is computed once and scaled into the diffusive production,
    on the block's valid column window.  Returns the columns, rho' on the window and
    the support; a non-finite value is returned as it is, for the caller to check.
    """
    support = _Support(rho)
    (grad,) = spectral_derivatives(rho, grid, (1,))
    grad = grad[:, support.cols].copy()  # the spectrum it is the real part of is freed
    columns = _density_terms(rho[:, support.cols], grad, support, grid.dx, D, k_B)
    return columns, grad, support


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
        columns = _diffusion_rows(state.rho.values[None], state.grid, state.D, k_B)[0]
    else:
        columns = _quantum_rows(state.psi.values[None], state.grid, state.hbar, state.mass, k_B)[0]
        columns["ent_von_neumann"] = [von_neumann_entropy(state)]
    _require_finite(columns, [state.time])
    return EntropyReport(k_B=k_B, **{name: float(col[0]) for name, col in columns.items()})
