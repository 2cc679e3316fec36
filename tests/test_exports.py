"""Every module of the package lists in `__all__` only names it defines, and the
package publishes every one of them but the runner's."""
import importlib
import pkgutil

import pytest

import qhydro

MODULES = sorted(info.name for info in pkgutil.iter_modules(qhydro.__path__))

# the package's public names at 0.1.0, before it re-published each module's `__all__`
PUBLISHED = """
    DiffusionState EntropyReport EvolutionConfig Field GaussianParams Grid NumericsError
    Potential QuantumState SigmaTrace UnwrapError action_per_mass advective_velocity
    bohm_potential boltzmann_entropy centered_difference complex_velocity density derivative
    diffuse_step diffusive_acceleration diffusive_bohm_force diffusive_bohm_potential
    diffusive_velocity dominant_mode energy entropy_equation_residual entropy_report evolve
    fisher_information fokker_planck_residual free_divergence free_entropy free_potential
    free_sigma gaussian_density gaussian_packet harmonic_ground_width harmonic_potential
    harmonic_sigma integrate kernel_log_functional make_grid plane_wave production_advective
    production_correlation production_diffusive propagate step superposition valid_mask
    von_neumann_entropy __version__
""".split()


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"qhydro.{name}")
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []


@pytest.mark.parametrize("name", [name for name in MODULES if name != "cli"])
def test_the_package_publishes_every_exported_name(name):
    module = importlib.import_module(f"qhydro.{name}")
    assert [export for export in module.__all__
            if getattr(qhydro, export, None) is not getattr(module, export)] == []


def test_the_package_keeps_its_published_names():
    assert [name for name in PUBLISHED if not hasattr(qhydro, name)] == []
