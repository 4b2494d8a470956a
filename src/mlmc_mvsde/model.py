"""Mean-field SDE models: coefficients, noise scale, and built-in examples.

A model is the pair of coefficient maps

    drift(x, mu) -> R^d        diffusion(x, mu) -> R^(d x dbar)

together with the noise scale ``epsilon``, the deterministic initial state,
the horizon, and declared regularity constants. The steppers apply
``epsilon`` themselves; ``diffusion`` never includes it.

Coefficient callables must be pure: every system starts from the same
all-x0 cloud, and its coefficients there are evaluated once per (model, M)
and reused (``ModelSpec.start``). When ``vectorized`` is set (all builtins),
they also accept the (M, d) states of a whole cloud, or a (..., M, d) stack
of independent systems together with the stacked cloud, and return the
stacked coefficients, which is what the particle steppers use; they reduce
over the particle axis -2. Measure arguments are always uniform empirical
clouds; builtins reduce over the particle axis in canonical sorted order so
their output is exactly invariant under particle relabeling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigurationError, NumericError, ShapeError
from .measure import ParticleCloud, empirical_mean, particle_mean

DriftFn = Callable[[np.ndarray, ParticleCloud], np.ndarray]
DiffusionFn = Callable[[np.ndarray, ParticleCloud], np.ndarray]

BUILTIN_MODELS = ("zero", "constant_drift", "meanfield_ou", "kuramoto", "measure_diffusion")


@dataclass(frozen=True)
class ModelSpec:
    """Immutable description of one mean-field SDE.

    ``lipschitz_K`` and ``growth_beta`` are declared constants: the joint
    Lipschitz bound |f(x,mu)-f(y,nu)|^2 <= K (|x-y|^2 + W2(mu,nu)^2) and the
    growth bound |f(x,mu)|^2 <= beta (1 + |x|^2 + W2(mu)^2), both of which
    hold for the builtins on the sampled validation region (linear drifts
    satisfy them only there, not globally).
    """

    d: int
    d_bar: int
    drift: DriftFn
    diffusion: DiffusionFn
    epsilon: float
    x0: np.ndarray
    horizon: float
    lipschitz_K: float
    growth_beta: float
    vectorized: bool = True
    name: str = "custom"
    meta: dict = field(default_factory=dict)
    # M -> (start cloud, its drift, its diffusion); fresh and empty in every
    # copy made by ``replace`` or ``with_epsilon``
    _start: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d < 1 or self.d_bar < 1:
            raise ConfigurationError("state and noise dimensions must be >= 1")
        # epsilon = 0 is admitted as the deterministic limit of the family
        if not (0.0 <= self.epsilon <= 1.0):
            raise ConfigurationError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        if not self.horizon > 0:
            raise ConfigurationError(f"horizon must be positive, got {self.horizon}")
        if self.lipschitz_K < 0 or self.growth_beta < 0:
            raise ConfigurationError("regularity constants must be nonnegative")
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float)).copy()
        if x0.shape != (self.d,):
            raise ShapeError(f"x0 has shape {x0.shape}, expected ({self.d},)")
        if not np.all(np.isfinite(x0)):
            raise NumericError("x0 must be finite")
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)

    def with_epsilon(self, epsilon: float) -> "ModelSpec":
        """Same dynamics at a different noise scale (for epsilon sweeps)."""
        return replace(self, epsilon=float(epsilon))

    def start(self, m: int) -> ParticleCloud:
        """The read-only cloud of m particles at x0 that every system starts from.

        Built once per M, together with its drift and diffusion, which
        ``coefficients`` returns whenever it is given this very cloud.
        """
        entry = self._start.get(m)
        if entry is None:
            cloud = ParticleCloud.at(self.x0, m)
            f, g = (a.view() for a in coefficients(self, cloud))
            f.setflags(write=False)
            g.setflags(write=False)
            entry = self._start.setdefault(m, (cloud, f, g))
        return entry[0]


@dataclass(frozen=True)
class TestFunction:
    """Scalar observable Psi with a declared first-derivative bound.

    ``psi`` maps (..., d) state stacks to (...) values so it can be applied
    to a whole cloud at once.
    """

    psi: Callable[[np.ndarray], np.ndarray]
    grad_bound: float
    name: str = "custom"


def drift_eval(model: ModelSpec, x: np.ndarray, mu: ParticleCloud) -> np.ndarray:
    """Evaluate the drift at one state against an empirical measure."""
    x = _check_state(model, x)
    _check_measure(model, mu)
    out = np.asarray(model.drift(x, mu), dtype=float)
    if out.shape != (model.d,):
        raise ShapeError(f"drift returned shape {out.shape}, expected ({model.d},)")
    _check_finite(out, "drift")
    return out


def diffusion_eval(model: ModelSpec, x: np.ndarray, mu: ParticleCloud) -> np.ndarray:
    """Evaluate the diffusion matrix at one state against an empirical measure."""
    x = _check_state(model, x)
    _check_measure(model, mu)
    out = np.asarray(model.diffusion(x, mu), dtype=float)
    if out.shape != (model.d, model.d_bar):
        raise ShapeError(
            f"diffusion returned shape {out.shape}, expected ({model.d}, {model.d_bar})"
        )
    _check_finite(out, "diffusion")
    return out


def coefficients(model: ModelSpec, cloud: ParticleCloud) -> tuple[np.ndarray, np.ndarray]:
    """Drift (..., M, d) and diffusion (..., M, d, d_bar) of every particle
    against its own system's cloud, for one cloud or a stack of systems.

    Vectorized models are called once on the whole stack and their outputs
    shape-checked; pointwise ones go through ``drift_eval`` and
    ``diffusion_eval`` once per particle of each system. At
    ``model.start(M)`` itself the pair evaluated when that cloud was built
    is returned.
    """
    entry = model._start.get(cloud.m)
    if entry is not None and entry[0] is cloud:
        return entry[1], entry[2]
    x = cloud.positions
    g_shape = x.shape[:-1] + (model.d, model.d_bar)
    if not model.vectorized:
        systems = [ParticleCloud._wrap(s) for s in x.reshape(-1, cloud.m, cloud.d)]
        f = np.stack([drift_eval(model, p, mu) for mu in systems for p in mu.positions])
        g = np.stack([diffusion_eval(model, p, mu) for mu in systems for p in mu.positions])
        return f.reshape(x.shape), g.reshape(g_shape)
    f = np.asarray(model.drift(x, cloud), dtype=float)
    if f.shape != x.shape:
        raise ShapeError(f"drift returned shape {f.shape}, expected {x.shape}")
    g = np.asarray(model.diffusion(x, cloud), dtype=float)
    if g.shape != g_shape:
        raise ShapeError(f"diffusion returned shape {g.shape}, expected {g_shape}")
    return f, g


def _check_state(model: ModelSpec, x: np.ndarray) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (model.d,):
        raise ShapeError(f"state has shape {x.shape}, expected ({model.d},)")
    return x


def _check_measure(model: ModelSpec, mu: ParticleCloud):
    if mu.d != model.d:
        raise ShapeError(f"measure dimension {mu.d} does not match model d={model.d}")


def _check_finite(arr: np.ndarray, label: str):
    if not np.isfinite(arr).all():
        bad = np.argwhere(~np.isfinite(arr))[0]
        raise NumericError(f"{label} produced a non-finite value at component {tuple(bad)}")


def _provable_growth_beta(lipschitz_K: float, f0: float, g0: float) -> float:
    return 2.0 * max(1.0, lipschitz_K, f0 * f0, g0 * g0)


def _constant_diffusion(matrix: np.ndarray) -> DiffusionFn:
    mat = np.asarray(matrix, dtype=float)
    views: dict[tuple, np.ndarray] = {}  # read-only broadcast view per stack shape

    def diffusion(x, mu):
        shape = x.shape[:-1] + mat.shape
        view = views.get(shape)
        if view is None:
            view = views[shape] = np.broadcast_to(mat, shape)
        return view

    return diffusion


_PARAM_ALIASES = {
    "sigma": ("σ", "sigma"),
    "epsilon": ("ε", "epsilon", "eps"),
    "a": ("a",),
    "b": ("b",),
    "c": ("c",),
    "x0": ("x0",),
    "T": ("T",),
    "kappa": ("kappa", "κ"),
}


def _param(params: Mapping, key: str, default=None, required: bool = False) -> float:
    for alias in _PARAM_ALIASES.get(key, (key,)):
        if alias in params:
            return float(params[alias])
    if required:
        raise ConfigurationError(f"missing model parameter '{key}'")
    return default


def builtin_model(name: str, params: Mapping) -> ModelSpec:
    """Construct one of the named example models.

    Every builtin needs ``x0``, ``T`` and ``ε`` (ASCII aliases ``epsilon`` /
    ``eps`` and ``sigma`` are accepted); the remaining keys are per model:

    - ``zero``: f = 0, g = 0.
    - ``constant_drift``: f = c, g = σ (default 1).
    - ``meanfield_ou``: f(x,μ) = -a x + b (mean(μ) - x), g = σ. The particle
      mean started from a point obeys m(t) = x0 exp(-a t); the exact mean at
      the horizon is recorded in ``meta['exact_mean_at_horizon']``.
    - ``kuramoto``: f(x,μ) = κ mean_j sin(x_j - x) componentwise, g = σ,
      evaluated in O(M) as κ (S cos x - C sin x) with S, C the means of
      sin x_j and cos x_j. The only builtin whose coefficients satisfy the
      declared bounds globally, not just on the validation region.
    - ``measure_diffusion``: f = -a x, g(x,μ) = σ (1 + mean(μ)) on the
      diagonal.
    """
    if name not in BUILTIN_MODELS:
        raise ConfigurationError(f"unknown model '{name}'; expected one of {BUILTIN_MODELS}")
    x0 = np.atleast_1d(np.asarray(_require_vector(params, "x0"), dtype=float))
    horizon = _param(params, "T", required=True)
    epsilon = _param(params, "epsilon", required=True)
    d = x0.shape[0]
    d_bar = d
    meta: dict = {}

    if name == "zero":
        drift = lambda x, mu: np.zeros_like(x)
        diffusion = _constant_diffusion(np.zeros((d, d_bar)))
        K, beta = 0.0, 2.0

    elif name == "constant_drift":
        c = _param(params, "c", required=True)
        sigma = _param(params, "sigma", default=1.0)
        cvec = np.full(d, c)
        drift = lambda x, mu: np.broadcast_to(cvec, x.shape)
        diffusion = _constant_diffusion(sigma * np.eye(d, d_bar))
        K = 0.0
        beta = _provable_growth_beta(K, abs(c) * math.sqrt(d), abs(sigma) * math.sqrt(d))

    elif name == "meanfield_ou":
        a = _param(params, "a", required=True)
        b = _param(params, "b", required=True)
        sigma = _param(params, "sigma", default=1.0)

        def drift(x, mu, _a=a, _b=b):
            m = empirical_mean(mu)
            return -_a * x + _b * (m - x)

        diffusion = _constant_diffusion(sigma * np.eye(d, d_bar))
        K = max((a + b) ** 2 + b**2, sigma**2)
        beta = _provable_growth_beta(K, 0.0, abs(sigma) * math.sqrt(d))
        meta["exact_mean_at_horizon"] = (x0 * math.exp(-a * horizon)).tolist()
        meta["mean_rate"] = a

    elif name == "kuramoto":
        kappa = _param(params, "kappa", default=1.0)
        sigma = _param(params, "sigma", default=1.0)

        def drift(x, mu, _k=kappa):
            # sin(x_j - x) = sin x_j cos x - cos x_j sin x
            pos = mu.positions
            s = particle_mean(np.sin(pos))
            c = particle_mean(np.cos(pos))
            return _k * (s * np.cos(x) - c * np.sin(x))

        diffusion = _constant_diffusion(sigma * np.eye(d, d_bar))
        K = max(2.0 * kappa**2, sigma**2)
        beta = 2.0 * max(1.0, kappa**2, sigma**2)

    else:  # measure_diffusion
        a = _param(params, "a", default=1.0)
        sigma = _param(params, "sigma", required=True)

        def drift(x, mu, _a=a):
            return -_a * x

        def diffusion(x, mu, _s=sigma):
            m = empirical_mean(mu)
            mat = _s * np.eye(d, d_bar) * (1.0 + m)[..., None]
            return np.broadcast_to(mat, x.shape[:-1] + mat.shape[-2:])

        K = max(a**2, 2.0 * sigma**2)
        beta = _provable_growth_beta(K, 0.0, abs(sigma) * math.sqrt(d))

    return ModelSpec(
        d=d,
        d_bar=d_bar,
        drift=drift,
        diffusion=diffusion,
        epsilon=epsilon,
        x0=x0,
        horizon=horizon,
        lipschitz_K=K,
        growth_beta=beta,
        name=name,
        meta=meta,
    )


def _require_vector(params: Mapping, key: str):
    if key not in params:
        raise ConfigurationError(f"missing model parameter '{key}'")
    return params[key]


BUILTIN_TEST_FUNCTIONS = ("identity", "cos")


def builtin_test_function(name: str) -> TestFunction:
    """Named observables: 'identity' (first component) and 'cos'."""
    if name == "identity":
        return TestFunction(psi=lambda x: np.asarray(x, dtype=float)[..., 0], grad_bound=1.0, name="identity")
    if name == "cos":
        return TestFunction(
            psi=lambda x: np.cos(np.asarray(x, dtype=float)[..., 0]), grad_bound=1.0, name="cos"
        )
    raise ConfigurationError(
        f"unknown test function '{name}'; expected one of {BUILTIN_TEST_FUNCTIONS}"
    )
