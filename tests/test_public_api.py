"""The package's public names: the exported set is the one listed here, every
export resolves, once; and no module imports a name it does not use."""

import ast
from pathlib import Path

import mlmc_mvsde

#: the public API; adding or removing a name is a change to this set
EXPORTS = {
    "CapabilityError", "ConfigurationError", "DegeneracyError", "DivergenceError", "DomainError",
    "NumericError", "ShapeError",
    "ParticleCloud", "moment_w2", "w2_to_dirac", "wasserstein2",
    "ModelSpec", "TestFunction", "builtin_model", "builtin_test_function", "coefficients",
    "PathRecord", "em_step", "simulate_path", "ode_limit", "strong_error_curve",
    "small_noise_curve",
    "LevelConfig", "LevelStatistics", "MlmcReport", "simulate_level_pair",
    "coupled_variance_study", "second_moment_study", "mlmc_estimate", "cost_compare",
    "chaos_study",
    "RateFit", "loglog_fit",
}


def test_the_exported_names_are_the_listed_set():
    assert set(mlmc_mvsde.__all__) == EXPORTS


def test_every_exported_name_resolves():
    missing = [name for name in mlmc_mvsde.__all__ if not hasattr(mlmc_mvsde, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(set(mlmc_mvsde.__all__)) == len(mlmc_mvsde.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from mlmc_mvsde import *", namespace)
    assert set(mlmc_mvsde.__all__) <= set(namespace)


#: imports a module keeps without using them, with the reason
UNUSED_IMPORTS_ALLOWED = {
    # the benchmark's absent-layer check deletes em_step from this module
    ("mlmc_engine", "em_step"),
}


def test_no_module_imports_a_name_it_never_uses():
    src = Path(mlmc_mvsde.__file__).parent
    unused = set()
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {(path.stem, name) for name in imported - used}
    assert unused == UNUSED_IMPORTS_ALLOWED
