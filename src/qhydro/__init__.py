"""qhydro: quantum hydrodynamics and classical diffusion on a 1D spectral grid.

Evolves wavefunctions (exact spectral propagator) and diffusing densities
(exact heat kernel), decomposes states into Madelung fluid fields, and
measures the entropy functionals and production identities that connect
the two flows.  Every sampled quantity, real or complex, is a `Field`.
"""
from .grid import Field, Grid, derivative, integrate, make_grid
from .madelung import (
    QuantumState,
    UnwrapError,
    action_per_mass,
    advective_velocity,
    bohm_potential,
    complex_velocity,
    density,
    diffusive_bohm_force,
    diffusive_bohm_potential,
    diffusive_velocity,
    valid_mask,
)
from .schrodinger import (
    EvolutionConfig,
    NumericsError,
    Potential,
    energy,
    evolve,
    free_potential,
    gaussian_packet,
    harmonic_potential,
    plane_wave,
    propagate,
    step,
    superposition,
)
from .diffusion import (
    DiffusionState,
    diffuse_step,
    diffusive_acceleration,
    entropy_equation_residual,
    fokker_planck_residual,
    gaussian_density,
)
from .entropy import (
    EntropyReport,
    boltzmann_entropy,
    entropy_report,
    fisher_information,
    kernel_log_functional,
    production_advective,
    production_correlation,
    production_diffusive,
    von_neumann_entropy,
)
from .analytic import (
    GaussianParams,
    SigmaTrace,
    free_divergence,
    free_entropy,
    free_sigma,
    harmonic_ground_width,
    harmonic_sigma,
)
from .traces import centered_difference, dominant_mode

__version__ = "0.1.0"
