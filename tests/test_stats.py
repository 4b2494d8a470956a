import math

import numpy as np
import pytest

from mlmc_mvsde import DegeneracyError, DomainError, level0_sample, loglog_fit
from mlmc_mvsde.mlmc_engine import LevelConfig
from mlmc_mvsde.model import builtin_model, builtin_test_function


def test_loglog_fit_examples():
    fit = loglog_fit([(1.0, 1.0), (10.0, 10.0)])
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    xs = [1.0, 2.0, 4.0, 8.0]
    fit = loglog_fit([(x, 3 * x**2) for x in xs])
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_loglog_fit_noisy_slope():
    rng = np.random.default_rng(37)
    xs = np.geomspace(1, 64, 12)
    ys = xs**1.5 * (1 + rng.uniform(-0.05, 0.05, size=len(xs)))
    fit = loglog_fit(list(zip(xs, ys)))
    assert 1.35 <= fit.slope <= 1.65


def test_loglog_fit_scaling_invariance():
    xs = [1.0, 3.0, 9.0, 27.0]
    ys = [2.0, 5.0, 11.0, 31.0]
    a = loglog_fit(list(zip(xs, ys)))
    b = loglog_fit([(x, 7.3 * y) for x, y in zip(xs, ys)])
    assert a.slope == pytest.approx(b.slope, rel=1e-12)


def test_loglog_fit_skip_coarsest():
    # outlier at the largest x is excluded by the pre-asymptotic flag
    pts = [(8.0, 1000.0), (4.0, 16.0), (2.0, 4.0), (1.0, 1.0)]
    full = loglog_fit(pts)
    trimmed = loglog_fit(pts, skip_coarsest=True)
    assert trimmed.slope == pytest.approx(2.0, abs=1e-12)
    assert full.slope > trimmed.slope


def test_loglog_fit_errors():
    with pytest.raises(DomainError):
        loglog_fit([(1.0, 1.0), (2.0, -1.0)])
    with pytest.raises(DegeneracyError):
        loglog_fit([(2.0, 1.0), (2.0, 3.0)])


def test_normal_ci_coverage():
    # base-level runs of the constant-drift model have known mean x0 + c T
    model = builtin_model("constant_drift", {"c": 2.0, "x0": 0.0, "T": 1.0, "epsilon": 0.5})
    psi = builtin_test_function("identity")
    cfg = LevelConfig(refinement_n=2, level=0, horizon=1.0)
    truth = 2.0
    covered = 0
    n_sims, n_samples = 1000, 30
    for sim in range(n_sims):
        xs = np.array([level0_sample(model, cfg, 16, psi, seed=sim, sample_index=k)[0]
                       for k in range(n_samples)])
        half = 1.959963984540054 * math.sqrt(xs.var(ddof=1) / n_samples)
        covered += abs(xs.mean() - truth) <= half
    assert 0.92 <= covered / n_sims <= 0.98
