"""Multilevel Monte Carlo for interacting-particle approximations of
mean-field SDEs with small noise.

The library simulates systems of M particles whose drift and diffusion see
the empirical measure of the whole system, couples fine and coarse
time discretizations through shared Gaussian increments, and builds the
telescoped multilevel estimator with exact generator-call cost accounting.
"""

__version__ = "0.1.0"

from .errors import (CapabilityError, ConfigurationError, DegeneracyError, DivergenceError,
                     DomainError, NumericError, ShapeError)
from .measure import ParticleCloud, moment_w2, w2_to_dirac, wasserstein2
from .model import ModelSpec, TestFunction, builtin_model, builtin_test_function, coefficients
from .em_engine import (PathRecord, em_step, ode_limit, simulate_path, small_noise_curve,
                        strong_error_curve)
from .mlmc_engine import (LevelConfig, LevelStatistics, MlmcReport, chaos_study, cost_compare,
                          coupled_variance_study, mlmc_estimate, second_moment_study,
                          simulate_level_pair)
from .stats import RateFit, loglog_fit

__all__ = [
    "CapabilityError",
    "ConfigurationError",
    "DegeneracyError",
    "DivergenceError",
    "DomainError",
    "NumericError",
    "ShapeError",
    "ParticleCloud",
    "moment_w2",
    "w2_to_dirac",
    "wasserstein2",
    "ModelSpec",
    "TestFunction",
    "builtin_model",
    "builtin_test_function",
    "coefficients",
    "PathRecord",
    "em_step",
    "simulate_path",
    "ode_limit",
    "strong_error_curve",
    "small_noise_curve",
    "LevelConfig",
    "LevelStatistics",
    "MlmcReport",
    "simulate_level_pair",
    "coupled_variance_study",
    "second_moment_study",
    "mlmc_estimate",
    "cost_compare",
    "chaos_study",
    "RateFit",
    "loglog_fit",
]
