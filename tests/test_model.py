import math
from dataclasses import replace

import numpy as np
import pytest

from mlmc_mvsde import (
    ConfigurationError,
    NumericError,
    ParticleCloud,
    ShapeError,
    builtin_model,
    builtin_test_function,
    coefficients,
    em_step,
    moment_w2,
    wasserstein2,
)
from mlmc_mvsde.model import ModelSpec

BASE = {"x0": 1.0, "T": 1.0, "epsilon": 0.1}


def all_builtins():
    return [
        builtin_model("zero", BASE),
        builtin_model("constant_drift", {**BASE, "c": 2.0}),
        builtin_model("meanfield_ou", {**BASE, "a": 1.0, "b": 0.5, "sigma": 1.0}),
        builtin_model("kuramoto", BASE),
        builtin_model("measure_diffusion", {**BASE, "sigma": 1.0}),
    ]


def drift_at(model, x, mu):
    """The model's own drift callable at the one (d,) state x against the (M, d)
    states mu, a flat list being M states in one dimension."""
    return model.drift(x[None], np.reshape(mu, (len(mu), -1)))[0]


def diffusion_at(model, x, mu):
    """The model's own diffusion callable at the one (d,) state x against the
    states mu, as ``drift_at`` reads them."""
    return model.diffusion(x[None], np.reshape(mu, (len(mu), -1)))[0]


def test_drift_examples():
    zero = builtin_model("zero", BASE)
    mu = [0.3, -0.7]
    assert np.array_equal(drift_at(zero, np.array([2.0]), mu), [0.0])

    ou = builtin_model("meanfield_ou", {**BASE, "a": 1.0, "b": 0.5, "sigma": 1.0})
    at_two = np.full((8, 1), 2.0)
    assert drift_at(ou, np.array([2.0]), at_two) == pytest.approx([-2.0], abs=1e-15)

    kura = builtin_model("kuramoto", BASE)
    mu = [0.0, math.pi / 2]
    assert drift_at(kura, np.array([0.0]), mu) == pytest.approx([0.5], abs=1e-15)


def kuramoto_pairwise(kappa, x, pos):
    """The O(M^2) form kappa mean_j sin(x_j - x) over a stack of states x."""
    return kappa * np.mean(np.sin(pos[:, None, :] - x[None, :, :]), axis=0)


def test_kuramoto_drift_matches_pairwise_sum():
    rng = np.random.default_rng(8)
    for d in (1, 2):
        kura = builtin_model("kuramoto", {**BASE, "x0": [0.0] * d, "kappa": 1.7})
        for m in (1, 2, 7, 64, 512):
            pos = rng.uniform(-4.0, 4.0, size=(m, d))
            x = rng.uniform(-4.0, 4.0, size=(33, d))
            want = kuramoto_pairwise(1.7, x, pos)
            assert np.allclose(kura.drift(x, pos), want, rtol=0.0, atol=1e-12)
            assert np.allclose(drift_at(kura, x[0], pos), want[0],
                               rtol=0.0, atol=1e-12)


def test_kuramoto_drift_is_permutation_invariant():
    rng = np.random.default_rng(9)
    kura = builtin_model("kuramoto", {**BASE, "x0": [0.0, 0.0]})
    pos = rng.normal(size=(50, 2))
    x = rng.normal(size=(10, 2))
    shuffled = pos[rng.permutation(50)]
    assert np.array_equal(kura.drift(x, pos), kura.drift(x, shuffled))


def test_diffusion_examples():
    const = builtin_model("constant_drift", {**BASE, "c": 1.0, "sigma": 0.7})
    mu = [0.0, 1.0]
    assert np.allclose(diffusion_at(const, np.array([5.0]), mu), [[0.7]])

    md = builtin_model("measure_diffusion", {**BASE, "sigma": 1.0})
    assert np.allclose(diffusion_at(md, np.array([9.0]), [1.0, 3.0]), [[3.0]])

    zero = builtin_model("zero", BASE)
    assert np.array_equal(diffusion_at(zero, np.array([1.0]), mu), [[0.0]])


def test_coefficients_refuse_a_wrong_state_or_output_shape():
    ou = builtin_model("meanfield_ou", {**BASE, "a": 1.0, "b": 0.5, "sigma": 1.0})
    for states in (np.zeros((3, 2)), np.zeros(3)):
        with pytest.raises(ShapeError, match=r"states have shape .*, expected \(\.\.\., M, 1\)"):
            coefficients(ou, states)

    def custom(drift, diffusion):
        return ModelSpec(d=1, d_bar=1, drift=drift, diffusion=diffusion, epsilon=0.1,
                         x0=np.array([0.0]), horizon=1.0, lipschitz_K=0.0, growth_beta=2.0)

    good_f = lambda x, mu: np.zeros_like(x)
    good_g = lambda x, mu: np.zeros(x.shape[:-1] + (1, 1))
    x = np.zeros((3, 1))
    with pytest.raises(ShapeError, match=r"drift returned shape \(1,\), expected \(3, 1\)"):
        coefficients(custom(lambda x, mu: np.array([0.0]), good_g), x)
    with pytest.raises(ShapeError, match=r"diffusion returned shape \(3, 1\), expected"):
        coefficients(custom(good_f, lambda x, mu: np.zeros((3, 1))), x)
    with pytest.raises(ShapeError, match=r"diffusion returned shape \(1, 1\), expected"):
        coefficients(custom(good_f, lambda x, mu: np.zeros((1, 1))), x[None])
    with pytest.raises(NumericError, match="drift produced a non-finite value at component"):
        em_step(custom(lambda x, mu: np.full(x.shape, np.nan), good_g), ParticleCloud([0.0]),
                0.1, np.zeros((1, 1)))


def test_builtin_model_examples():
    zero = builtin_model("zero", BASE)
    mu = [1.0, -1.0]
    assert np.array_equal(drift_at(zero, np.array([3.0]), mu), [0.0])
    assert np.array_equal(diffusion_at(zero, np.array([3.0]), mu), [[0.0]])

    const = builtin_model("constant_drift", {"c": 2.0, "x0": 0.0, "T": 1.0, "epsilon": 0.5})
    assert np.array_equal(drift_at(const, np.array([9.0]), mu), [2.0])
    assert np.array_equal(diffusion_at(const, np.array([9.0]), mu), [[1.0]])

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


@pytest.mark.parametrize("name", ["nope", None, ["zero"]], ids=str)
def test_an_unknown_name_is_refused_by_name(name):
    # the CLI kept its own copy of the model-name rule; an unhashable test
    # function name raised a TypeError
    with pytest.raises(ConfigurationError, match="^unknown model ") as err:
        builtin_model(name, BASE)
    assert err.value.field == "name"
    with pytest.raises(ConfigurationError, match="^unknown test function "):
        builtin_test_function(name)


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
    mu = [0.5, 1.5]
    x = np.array([0.3])
    assert np.array_equal(diffusion_at(m1, x, mu), diffusion_at(m2, x, mu))
    assert m1.epsilon == m2.epsilon
    assert builtin_model("meanfield_ou", {"a": 1.0, "b": 0.5, "x0": 1.0, "T": 1.0,
                                          "eps": 0.25}).epsilon == m1.epsilon
    k1 = builtin_model("kuramoto", {"κ": 1.7, "x0": 1.0, "T": 1.0, "ε": 0.25})
    k2 = builtin_model("kuramoto", {"kappa": 1.7, "x0": 1.0, "T": 1.0, "epsilon": 0.25})
    assert np.array_equal(drift_at(k1, x, mu), drift_at(k2, x, mu))
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
    x = np.random.default_rng(5).normal(size=(8, 1))
    for want, got in zip(coefficients(bare, x), coefficients(full, x)):
        assert np.array_equal(want, got)


def test_epsilon_range():
    builtin_model("zero", {**BASE, "epsilon": 0.0})  # deterministic limit allowed
    builtin_model("zero", {**BASE, "epsilon": 1.0})
    with pytest.raises(ConfigurationError):
        builtin_model("zero", {**BASE, "epsilon": 1.5})
    # the model's horizon is the only one a run walks: a positive finite number
    for horizon in (math.inf, math.nan, 0.0, -1.0, "1"):
        with pytest.raises(ConfigurationError, match="horizon must be a positive finite number"):
            replace(builtin_model("zero", BASE), horizon=horizon)


def test_coefficient_purity():
    ou = builtin_model("meanfield_ou", {**BASE, "a": 1.0, "b": 0.5, "sigma": 1.0})
    rng = np.random.default_rng(2)
    x = rng.normal(size=1)
    mu = rng.normal(size=12)
    first = drift_at(ou, x, mu)
    for _ in range(5):
        assert np.array_equal(drift_at(ou, x, mu), first)


def test_vectorized_matches_pointwise():
    rng = np.random.default_rng(4)
    for model in all_builtins():
        pos = rng.normal(size=(16, model.d))
        stack = rng.normal(size=(10, model.d))
        f_stack = model.drift(stack, pos)
        g_stack = model.diffusion(stack, pos)
        for i in range(10):
            assert np.array_equal(np.asarray(f_stack)[i], drift_at(model, stack[i], pos))
            assert np.array_equal(np.asarray(g_stack)[i], diffusion_at(model, stack[i], pos))


def _sample_pair(rng, d, max_m=64):
    m = int(rng.integers(1, max_m + 1))
    x = rng.uniform(-10, 10, size=d)
    y = rng.uniform(-10, 10, size=d)
    mu = rng.uniform(-10, 10, size=(m, d))
    nu = rng.uniform(-10, 10, size=(m, d))
    return x, y, mu, nu


def test_declared_lipschitz_constant_holds_on_samples():
    rng = np.random.default_rng(41)
    slack = 1.01
    for model in all_builtins():
        for _ in range(1000):
            x, y, mu, nu = _sample_pair(rng, model.d)
            df = drift_at(model, x, mu) - drift_at(model, y, nu)
            dg = diffusion_at(model, x, mu) - diffusion_at(model, y, nu)
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
            f = drift_at(model, x, mu)
            g = diffusion_at(model, x, mu)
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
