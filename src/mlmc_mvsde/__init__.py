"""Multilevel Monte Carlo for interacting-particle approximations of
mean-field SDEs with small noise.

The library simulates systems of M particles whose drift and diffusion see
the empirical measure of the whole system, couples fine and coarse
time discretizations through shared Gaussian increments, and builds the
telescoped multilevel estimator with exact generator-call cost accounting.
"""

__version__ = "0.1.0"

from .errors import (
    CapabilityError,
    ConfigurationError,
    DegeneracyError,
    DivergenceError,
    DomainError,
    NumericError,
    ShapeError,
)
from .measure import ParticleCloud, moment_w2, w2_to_dirac, wasserstein2
from .model import (
    ModelSpec,
    TestFunction,
    builtin_model,
    builtin_test_function,
    diffusion_eval,
    drift_eval,
)
from .em_engine import (
    PathRecord,
    SimulationGrid,
    em_step,
    ode_limit,
    simulate_path,
    small_noise_curve,
    strong_error_curve,
)
from .mlmc_engine import (
    CoupledLevelState,
    LevelConfig,
    LevelStatistics,
    MlmcReport,
    chaos_study,
    cost_compare,
    coupled_coarse_interval,
    coupled_variance_study,
    level0_sample,
    mlmc_estimate,
    second_moment_study,
    simulate_level_pair,
)
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
    "drift_eval",
    "diffusion_eval",
    "SimulationGrid",
    "PathRecord",
    "em_step",
    "simulate_path",
    "ode_limit",
    "strong_error_curve",
    "small_noise_curve",
    "LevelConfig",
    "CoupledLevelState",
    "LevelStatistics",
    "MlmcReport",
    "coupled_coarse_interval",
    "simulate_level_pair",
    "level0_sample",
    "coupled_variance_study",
    "second_moment_study",
    "mlmc_estimate",
    "cost_compare",
    "chaos_study",
    "RateFit",
    "loglog_fit",
]
