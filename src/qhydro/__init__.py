"""qhydro: quantum hydrodynamics and classical diffusion on a 1D spectral grid.

Evolves wavefunctions (exact spectral propagator) and diffusing densities
(exact heat kernel), decomposes states into Madelung fluid fields, and
measures the entropy functionals and production identities that connect
the two flows.  Every sampled quantity, real or complex, is a `Field`.
The package publishes each module's `__all__`; the runner is `qhydro.cli`.
"""
from .grid import *
from .madelung import *
from .schrodinger import *
from .diffusion import *
from .entropy import *
from .analytic import *
from .traces import *

__version__ = "0.1.0"
