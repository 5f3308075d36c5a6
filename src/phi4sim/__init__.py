"""Spectral toolkit and simulator for a weakly nonlinear stochastic
reaction-diffusion equation on the 3-torus: Fourier/Besov calculus,
renormalization constants, enhanced-noise construction, and a paracontrolled
remainder solver with a brute-force reference integrator."""

__version__ = "0.1.0"

from . import besov, config, diagrams, errors, fourier, gaussian, renorm, solver
from .errors import (BlowUpSignal, ConfigError, FeasibilityError, GridError,
                     GrowthViolationError, Phi4Error, SymbolError)
from .fourier import DispersionQ, FrequencyLattice, product, validate_symbol
from .renorm import Potential, build_renorm, coupling_lambda, sigma2_eps, sigma2_limit
