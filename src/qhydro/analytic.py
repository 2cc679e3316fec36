"""Closed-form and ODE reference solutions for Gaussian scenarios.

Everything here is independent of the spectral solvers and serves as the
oracle side of the comparisons: free-particle spreading, the harmonic width
equation and the spreading of a diffusing Gaussian.  Every time argument is
the time elapsed since the Gaussian had width sigma0.

The harmonic width equation is integrated in the form

    sigma * sigma'' = omega0^2 (sigma0^2 - sigma^2),  sigma0^2 = hbar/(2 m omega0)

whose linearization about sigma0 oscillates at sqrt(2)*omega0, by RK4 in the
fewest equal steps of at most 2e-3/omega0 per interval of the requested times.
Note that this model is not the width dynamics of the Schrodinger evolution
itself (a Gaussian breathing in a harmonic trap oscillates at 2*omega0); the
CLI emits both so the difference is visible in the reports.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaussianParams",
    "SigmaTrace",
    "free_sigma",
    "free_entropy",
    "free_divergence",
    "harmonic_ground_width",
    "harmonic_sigma",
]


@dataclass(frozen=True)
class GaussianParams:
    """Parameters of the Gaussian reference family."""

    sigma0: float
    hbar: float = 1.0
    mass: float = 1.0
    omega0: float | None = None
    D: float | None = None
    epsilon0: float | None = None

    def __post_init__(self):
        if not self.sigma0 > 0:
            raise ValueError(f"sigma0 must be positive, got {self.sigma0}")
        if not (self.hbar > 0 and self.mass > 0):
            raise ValueError("hbar and mass must be positive")
        if self.omega0 is not None and not self.omega0 > 0:
            raise ValueError(f"omega0 must be positive, got {self.omega0}")
        if self.D is not None and not self.D > 0:
            raise ValueError(f"D must be positive, got {self.D}")
        if self.epsilon0 is not None and abs(self.epsilon0) / self.sigma0 >= 0.05:
            raise ValueError("linearized branch needs |epsilon0|/sigma0 < 0.05")


@dataclass(frozen=True)
class SigmaTrace:
    """Width history sigma(t) with its logarithmic rate, one value per time of the grid
    that `harmonic_sigma` integrated through."""

    sigma: np.ndarray
    dlnsigma_dt: np.ndarray

    def __post_init__(self):
        if not np.all(self.sigma > 0):
            raise ValueError("sigma must stay positive along the trace")


def entropy_of_width(sigma: float, k_B: float = 1.0):
    """Boltzmann entropy of a normalized Gaussian: k_B ln(sigma sqrt(2 pi e))."""
    return k_B * np.log(sigma * np.sqrt(2 * np.pi * np.e))


def free_sigma(p: GaussianParams, t):
    """Free-particle width: sigma^2 = sigma0^2 + (hbar t / 2 m sigma0)^2, at a time or
    an array of times."""
    return np.sqrt(p.sigma0**2 + (p.hbar * t / (2 * p.mass * p.sigma0)) ** 2)


def free_entropy(p: GaussianParams, t, k_B: float = 1.0):
    """Entropy of the spreading packet, referenced to its t=0 value; t may be an array."""
    ratio = p.hbar * t / (2 * p.mass * p.sigma0**2)
    return entropy_of_width(p.sigma0, k_B) + 0.5 * k_B * np.log1p(ratio**2)


def free_divergence(p: GaussianParams, t):
    """Expansion rate <div u_a> = t / ((2 m sigma0^2 / hbar)^2 + t^2); t may be an array."""
    tau = 2 * p.mass * p.sigma0**2 / p.hbar
    return t / (tau**2 + t**2)


def harmonic_ground_width(p: GaussianParams) -> float:
    """Stationary width sigma0 with sigma0^2 = hbar / (2 m omega0); inf when the
    quotient overflows or its denominator underflows to 0."""
    if p.omega0 is None:
        raise ValueError("omega0 is required for the harmonic branch")
    denominator = 2 * p.mass * p.omega0
    return math.sqrt(p.hbar / denominator) if denominator else math.inf


def harmonic_sigma(p: GaussianParams, t_grid: np.ndarray) -> SigmaTrace:
    """Integrate the harmonic width equation with fixed-step RK4 through `t_grid`.

    The width starts at rest at sigma(0) = sigma0 + epsilon0 (epsilon0 taken
    as 0 when absent).  From there the equation's first integral keeps sigma
    away from 0, since |epsilon0| < 0.05 sigma0, and SigmaTrace refuses a
    width that is not positive.  `t_grid` may be any strictly increasing
    grid: each of its intervals is cut into the fewest equal steps of at most
    2e-3/omega0 (the model is scale-free in omega0*t), so every requested
    time is a step end and the steps depend only on the grid.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2:
        raise ValueError("t_grid must contain at least two times")
    gaps = np.diff(t_grid)
    if np.any(gaps <= 0):
        raise ValueError("t_grid must be strictly increasing")
    s0 = harmonic_ground_width(p)  # ValueError without omega0
    w0 = p.omega0
    if abs(p.sigma0 - s0) > 1e-9 * s0:
        raise ValueError(
            f"sigma0={p.sigma0} is inconsistent with the ground width {s0} set by omega0"
        )

    def rhs(s, v):
        return v, w0**2 * (s0**2 - s**2) / s

    sig, vel = float(s0 + (p.epsilon0 or 0.0)), 0.0
    sigmas = [sig]
    rates = [vel / sig]
    for gap in gaps.tolist():
        substeps = int(_rk4_steps(gap, w0))
        h = gap / substeps
        for _ in range(substeps):
            k1 = rhs(sig, vel)
            k2 = rhs(sig + 0.5 * h * k1[0], vel + 0.5 * h * k1[1])
            k3 = rhs(sig + 0.5 * h * k2[0], vel + 0.5 * h * k2[1])
            k4 = rhs(sig + h * k3[0], vel + h * k3[1])
            sig += h / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            vel += h / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        sigmas.append(sig)
        rates.append(vel / sig)
    return SigmaTrace(np.array(sigmas), np.array(rates))


def _rk4_steps(gap: float, omega0: float) -> float:
    """The fewest equal RK4 steps of at most 2e-3/omega0 that cover `gap`, inf
    past float range; 1e-9 absorbs the ulp-level jitter of an arange-built
    clock's intervals."""
    return max(1.0, float(np.ceil(gap * omega0 / 2e-3 * (1 - 1e-9))))


def diffusive_sigma2(p: GaussianParams, t):
    """sigma^2 = sigma0^2 + 2 D t of a Gaussian of width sigma0 diffusing at D for
    a time t; t may be an array."""
    return p.sigma0**2 + 2 * p.D * t
