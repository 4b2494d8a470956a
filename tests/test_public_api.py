"""The package's public names: every export resolves, once."""

import mlmc_mvsde


def test_every_exported_name_resolves():
    missing = [name for name in mlmc_mvsde.__all__ if not hasattr(mlmc_mvsde, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(set(mlmc_mvsde.__all__)) == len(mlmc_mvsde.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from mlmc_mvsde import *", namespace)
    assert set(mlmc_mvsde.__all__) <= set(namespace)
