"""Models, observables and strategies shared by the test modules."""

from hypothesis import strategies as st

from mlmc_mvsde import builtin_model, builtin_test_function
from mlmc_mvsde.model import BUILTIN_MODELS

IDENT = builtin_test_function("identity")

#: the mean-field OU model of most examples; its exact mean at T is e^-1
OU = {"a": 1.0, "b": 0.5, "sigma": 1.0, "x0": 1.0, "T": 1.0}

#: coefficient parameters of every builtin, without x0, T and epsilon
PARAMS = {
    "zero": {},
    "constant_drift": {"c": 2.0},
    "meanfield_ou": {"a": 1.0, "b": 0.5, "sigma": 1.0},
    "kuramoto": {"kappa": 1.5},
    "measure_diffusion": {"sigma": 1.0},
}


def ou(eps):
    return builtin_model("meanfield_ou", {**OU, "epsilon": eps})


def euler_mean(a, x0, h, steps):
    """The zero-noise Euler iterate of dx = -a x dt after ``steps`` steps."""
    m = x0
    for _ in range(steps):
        m *= 1.0 - a * h
    return m


@st.composite
def builtin_args(draw, epsilons=(0.0, 0.1, 0.5, 1.0)):
    """``builtin_model`` arguments: any builtin, d in {1, 2}, a random x0."""
    name = draw(st.sampled_from(BUILTIN_MODELS))
    d = draw(st.integers(1, 2))
    x0 = draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d))
    eps = draw(st.sampled_from(epsilons))
    return name, {**PARAMS[name], "x0": x0, "T": 1.0, "epsilon": eps}
