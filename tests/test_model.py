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
    wasserstein2,
)
from mlmc_mvsde.model import coefficients

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


@pytest.mark.parametrize("name,params,unknown", [
    ("meanfield_ou", {"a": 1.0, "b": 0.5, "sigam": 2.0}, "sigam"),
    ("kuramoto", {"b": 0.5}, "b"),
    ("zero", {"sigma": 1.0}, "sigma"),
], ids=["meanfield_ou", "kuramoto", "zero"])
def test_builtin_model_rejects_a_parameter_it_does_not_read(name, params, unknown):
    with pytest.raises(ConfigurationError) as err:
        builtin_model(name, {**BASE, **params})
    assert f"['{unknown}']" in str(err.value)


def test_unicode_parameter_aliases():
    m1 = builtin_model("meanfield_ou", {"a": 1.0, "b": 0.5, "σ": 2.0,
                                        "x0": 1.0, "T": 1.0, "ε": 0.25})
    m2 = builtin_model("meanfield_ou", {"a": 1.0, "b": 0.5, "sigma": 2.0,
                                        "x0": 1.0, "T": 1.0, "epsilon": 0.25})
    mu = ParticleCloud([0.5, 1.5])
    x = np.array([0.3])
    assert np.array_equal(diffusion_eval(m1, x, mu), diffusion_eval(m2, x, mu))
    assert m1.epsilon == m2.epsilon
    assert builtin_model("meanfield_ou", {"a": 1.0, "b": 0.5, "x0": 1.0, "T": 1.0,
                                          "eps": 0.25}).epsilon == m1.epsilon
    k1 = builtin_model("kuramoto", {"κ": 1.7, "x0": 1.0, "T": 1.0, "ε": 0.25})
    k2 = builtin_model("kuramoto", {"kappa": 1.7, "x0": 1.0, "T": 1.0, "epsilon": 0.25})
    assert np.array_equal(drift_eval(k1, x, mu), drift_eval(k2, x, mu))
    # one parameter under two spellings is refused, whether or not they agree
    for key, twice in (("epsilon", {"epsilon": 0.25, "eps": 0.25}),
                       ("sigma", {"sigma": 2.0, "σ": 1.0})):
        with pytest.raises(ConfigurationError, match=f"'{key}' is given twice"):
            builtin_model("meanfield_ou", {"a": 1.0, "b": 0.5, **BASE, **twice})


#: one of every kind of finite real number a parameter may be
NUMBERS = [1, 1.0, np.int64(1), np.float64(1.0), np.float32(1.0)]


@pytest.mark.parametrize("value", NUMBERS, ids=lambda v: type(v).__name__)
def test_builtin_model_reads_any_finite_real_number_as_a_float(value):
    keys = ("a", "b", "sigma", "x0", "T", "epsilon")
    model = builtin_model("meanfield_ou", dict.fromkeys(keys, value))
    want = builtin_model("meanfield_ou", dict.fromkeys(keys, 1.0))
    assert type(model.epsilon) is float and type(model.horizon) is float
    assert (model.epsilon, model.horizon, model.lipschitz_K, model.growth_beta, model.meta) == (
        want.epsilon, want.horizon, want.lipschitz_K, want.growth_beta, want.meta)


@pytest.mark.parametrize("x0", [0.5, [0.5, -1], (0.5, -1), np.array([0.5, -1.0]), [np.int64(2)]],
                         ids=["scalar", "list", "tuple", "array", "numpy-entry"])
def test_x0_is_a_number_or_a_vector_of_them(x0):
    model = builtin_model("zero", {**BASE, "x0": x0})
    assert np.array_equal(model.x0, np.atleast_1d(np.asarray(x0, dtype=float)))


#: values that are no finite real number, each refused for a scalar parameter
NOT_NUMBERS = ["1.5", True, np.True_, None, math.nan, math.inf, -math.inf, 10**400, [1.0]]


@pytest.mark.parametrize("key,value", [
    *[(key, v) for key in ("a", "T", "epsilon") for v in NOT_NUMBERS],
    *[("x0", v) for v in ("1.5", True, None, math.nan, [], [[1.0]], [1.0, "2"], [True],
                          np.array([[1.0]]), np.array([1.0, np.inf]))],
])
def test_builtin_model_refuses_what_is_no_finite_real_number(key, value):
    with pytest.raises(ConfigurationError, match=f"'{key}' must be a finite real number"):
        builtin_model("meanfield_ou", {**BASE, "a": 1.0, "b": 0.5, key: value})


@pytest.mark.parametrize("name,given,defaults", [
    ("constant_drift", {"c": 2.0}, {"sigma": 1.0}),
    ("meanfield_ou", {"a": 1.0, "b": 0.5}, {"sigma": 1.0}),
    ("kuramoto", {}, {"kappa": 1.0, "sigma": 1.0}),
    ("measure_diffusion", {"sigma": 0.7}, {"a": 1.0}),
])
def test_a_default_spelt_out_builds_the_same_model(name, given, defaults):
    bare = builtin_model(name, {**BASE, **given})
    full = builtin_model(name, {**BASE, **given, **defaults})
    assert (bare.lipschitz_K, bare.growth_beta, bare.meta) == (
        full.lipschitz_K, full.growth_beta, full.meta)
    cloud = ParticleCloud(np.random.default_rng(5).normal(size=(8, 1)))
    for want, got in zip(coefficients(bare, cloud), coefficients(full, cloud)):
        assert np.array_equal(want, got)


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
