import math

import numpy as np
import pytest

from mlmc_mvsde import (
    ConfigurationError,
    NumericError,
    ParticleCloud,
    ShapeError,
    builtin_model,
    builtin_test_function,
    diffusion_eval,
    drift_eval,
    moment_w2,
    origin_growth_constant,
    wasserstein2,
)

BASE = {"x0": 1.0, "T": 1.0, "epsilon": 0.1}


def all_builtins():
    return [
        builtin_model("zero", BASE),
        builtin_model("constant_drift", {**BASE, "c": 2.0}),
        builtin_model("meanfield_ou", {**BASE, "a": 1.0, "b": 0.5, "sigma": 1.0}),
        builtin_model("kuramoto", BASE),
        builtin_model("measure_diffusion", {**BASE, "sigma": 1.0}),
    ]


def test_drift_eval_examples():
    zero = builtin_model("zero", BASE)
    mu = ParticleCloud([0.3, -0.7])
    assert np.array_equal(drift_eval(zero, np.array([2.0]), mu), [0.0])

    ou = builtin_model("meanfield_ou", {**BASE, "a": 1.0, "b": 0.5, "sigma": 1.0})
    at_two = ParticleCloud.at([2.0], 8)
    assert drift_eval(ou, np.array([2.0]), at_two) == pytest.approx([-2.0], abs=1e-15)

    kura = builtin_model("kuramoto", BASE)
    mu = ParticleCloud([0.0, math.pi / 2])
    assert drift_eval(kura, np.array([0.0]), mu) == pytest.approx([0.5], abs=1e-15)


def kuramoto_pairwise(kappa, x, pos):
    """The O(M^2) form kappa mean_j sin(x_j - x) over a stack of states x."""
    return kappa * np.mean(np.sin(pos[:, None, :] - x[None, :, :]), axis=0)


def test_kuramoto_drift_matches_pairwise_sum():
    rng = np.random.default_rng(8)
    for d in (1, 2):
        kura = builtin_model("kuramoto", {**BASE, "x0": [0.0] * d, "kappa": 1.7})
        for m in (1, 2, 7, 64, 512):
            mu = ParticleCloud(rng.uniform(-4.0, 4.0, size=(m, d)))
            x = rng.uniform(-4.0, 4.0, size=(33, d))
            want = kuramoto_pairwise(1.7, x, mu.positions)
            assert np.allclose(kura.drift(x, mu), want, rtol=0.0, atol=1e-12)
            assert np.allclose(drift_eval(kura, x[0], mu), want[0], rtol=0.0, atol=1e-12)


def test_kuramoto_drift_is_permutation_invariant():
    rng = np.random.default_rng(9)
    kura = builtin_model("kuramoto", {**BASE, "x0": [0.0, 0.0]})
    pos = rng.normal(size=(50, 2))
    x = rng.normal(size=(10, 2))
    shuffled = pos[rng.permutation(50)]
    assert np.array_equal(kura.drift(x, ParticleCloud(pos)),
                          kura.drift(x, ParticleCloud(shuffled)))


def test_diffusion_eval_examples():
    const = builtin_model("constant_drift", {**BASE, "c": 1.0, "sigma": 0.7})
    mu = ParticleCloud([0.0, 1.0])
    assert np.allclose(diffusion_eval(const, np.array([5.0]), mu), [[0.7]])

    md = builtin_model("measure_diffusion", {**BASE, "sigma": 1.0})
    assert np.allclose(diffusion_eval(md, np.array([9.0]), ParticleCloud([1.0, 3.0])), [[3.0]])

    zero = builtin_model("zero", BASE)
    assert np.array_equal(diffusion_eval(zero, np.array([1.0]), mu), [[0.0]])


def test_eval_shape_and_numeric_errors():
    ou = builtin_model("meanfield_ou", {**BASE, "a": 1.0, "b": 0.5, "sigma": 1.0})
    with pytest.raises(ShapeError):
        drift_eval(ou, np.array([1.0, 2.0]), ParticleCloud([0.0]))
    with pytest.raises(ShapeError):
        drift_eval(ou, np.array([1.0]), ParticleCloud(np.zeros((3, 2))))

    from mlmc_mvsde.model import ModelSpec

    bad = ModelSpec(
        d=1, d_bar=1,
        drift=lambda x, mu: np.array([float("nan")]),
        diffusion=lambda x, mu: np.zeros((1, 1)),
        epsilon=0.1, x0=np.array([0.0]), horizon=1.0,
        lipschitz_K=0.0, growth_beta=2.0,
    )
    with pytest.raises(NumericError) as err:
        drift_eval(bad, np.array([0.0]), ParticleCloud([0.0]))
    assert "component" in str(err.value)


def test_builtin_model_examples():
    zero = builtin_model("zero", BASE)
    mu = ParticleCloud([1.0, -1.0])
    assert np.array_equal(drift_eval(zero, np.array([3.0]), mu), [0.0])
    assert np.array_equal(diffusion_eval(zero, np.array([3.0]), mu), [[0.0]])

    const = builtin_model("constant_drift", {"c": 2.0, "x0": 0.0, "T": 1.0, "epsilon": 0.5})
    assert np.array_equal(drift_eval(const, np.array([9.0]), mu), [2.0])
    assert np.array_equal(diffusion_eval(const, np.array([9.0]), mu), [[1.0]])

    ou = builtin_model("meanfield_ou", {"a": 1.0, "b": 0.5, "sigma": 1.0,
                                        "x0": 1.0, "T": 1.0, "epsilon": 0.25})
    assert ou.meta["exact_mean_at_horizon"][0] == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_builtin_model_errors():
    with pytest.raises(ConfigurationError):
        builtin_model("not_a_model", BASE)
    with pytest.raises(ConfigurationError) as err:
        builtin_model("meanfield_ou", {**BASE, "b": 0.5, "sigma": 1.0})
    assert "'a'" in str(err.value)
    with pytest.raises(ConfigurationError) as err:
        builtin_model("zero", {"T": 1.0, "epsilon": 0.1})
    assert "'x0'" in str(err.value)


def test_unicode_parameter_aliases():
    m1 = builtin_model("meanfield_ou", {"a": 1.0, "b": 0.5, "σ": 2.0,
                                        "x0": 1.0, "T": 1.0, "ε": 0.25})
    m2 = builtin_model("meanfield_ou", {"a": 1.0, "b": 0.5, "sigma": 2.0,
                                        "x0": 1.0, "T": 1.0, "epsilon": 0.25})
    mu = ParticleCloud([0.5, 1.5])
    x = np.array([0.3])
    assert np.array_equal(diffusion_eval(m1, x, mu), diffusion_eval(m2, x, mu))
    assert m1.epsilon == m2.epsilon


def test_epsilon_range():
    builtin_model("zero", {**BASE, "epsilon": 0.0})  # deterministic limit allowed
    builtin_model("zero", {**BASE, "epsilon": 1.0})
    with pytest.raises(ConfigurationError):
        builtin_model("zero", {**BASE, "epsilon": 1.5})


def test_coefficient_purity():
    ou = builtin_model("meanfield_ou", {**BASE, "a": 1.0, "b": 0.5, "sigma": 1.0})
    rng = np.random.default_rng(2)
    x = rng.normal(size=1)
    mu = ParticleCloud(rng.normal(size=12))
    first = drift_eval(ou, x, mu)
    for _ in range(5):
        assert np.array_equal(drift_eval(ou, x, mu), first)


def test_vectorized_matches_pointwise():
    rng = np.random.default_rng(4)
    for model in all_builtins():
        mu = ParticleCloud(rng.normal(size=(16, model.d)))
        stack = rng.normal(size=(10, model.d))
        f_stack = model.drift(stack, mu)
        g_stack = model.diffusion(stack, mu)
        for i in range(10):
            assert np.array_equal(np.asarray(f_stack)[i], drift_eval(model, stack[i], mu))
            assert np.array_equal(np.asarray(g_stack)[i], diffusion_eval(model, stack[i], mu))


def _sample_pair(rng, d, max_m=64):
    m = int(rng.integers(1, max_m + 1))
    x = rng.uniform(-10, 10, size=d)
    y = rng.uniform(-10, 10, size=d)
    mu = ParticleCloud(rng.uniform(-10, 10, size=(m, d)))
    nu = ParticleCloud(rng.uniform(-10, 10, size=(m, d)))
    return x, y, mu, nu


def test_declared_lipschitz_constant_holds_on_samples():
    rng = np.random.default_rng(41)
    slack = 1.01
    for model in all_builtins():
        for _ in range(1000):
            x, y, mu, nu = _sample_pair(rng, model.d)
            df = drift_eval(model, x, mu) - drift_eval(model, y, nu)
            dg = diffusion_eval(model, x, mu) - diffusion_eval(model, y, nu)
            gap = max(float(np.sum(df**2)), float(np.sum(dg**2)))
            bound = model.lipschitz_K * (
                float(np.sum((x - y) ** 2)) + wasserstein2(mu, nu) ** 2
            )
            assert gap <= slack * bound + 1e-12


def test_declared_growth_constant_holds_on_samples():
    rng = np.random.default_rng(43)
    slack = 1.01
    for model in all_builtins():
        for _ in range(1000):
            x, _, mu, _ = _sample_pair(rng, model.d)
            f = drift_eval(model, x, mu)
            g = diffusion_eval(model, x, mu)
            envelope = model.growth_beta * (1 + float(np.sum(x**2)) + moment_w2(mu) ** 2)
            assert float(np.sum(f**2)) <= slack * envelope
            assert float(np.sum(g**2)) <= slack * envelope


def test_origin_growth_constant_formula():
    const = builtin_model("constant_drift", {**BASE, "c": 2.0, "sigma": 1.0})
    assert origin_growth_constant(const) == pytest.approx(2.0 * max(1.0, 2.0, 1.0))
    kura = builtin_model("kuramoto", BASE)
    assert origin_growth_constant(kura) == pytest.approx(2.0)


def test_origin_growth_constant_is_valid_for_bounded_models():
    # for the bounded-coefficient builtins the origin-normalized constant
    # already dominates on samples; linear drifts need the declared one
    rng = np.random.default_rng(47)
    for name in ("zero", "kuramoto"):
        model = builtin_model(name, BASE)
        beta0 = origin_growth_constant(model)
        for _ in range(300):
            x, _, mu, _ = _sample_pair(rng, model.d)
            f = drift_eval(model, x, mu)
            envelope = beta0 * (1 + float(np.sum(x**2)) + moment_w2(mu) ** 2)
            assert float(np.sum(f**2)) <= 1.01 * envelope


def test_test_function_gradient_bound():
    rng = np.random.default_rng(53)
    eps = 1e-6
    for name in ("identity", "cos"):
        fn = builtin_test_function(name)
        for _ in range(200):
            x = rng.uniform(-5, 5, size=1)
            grad = (fn.psi(x + eps) - fn.psi(x - eps)) / (2 * eps)
            assert abs(grad) <= fn.grad_bound * (1 + 1e-4)
    with pytest.raises(ConfigurationError):
        builtin_test_function("nope")
